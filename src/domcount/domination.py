"""Exact domination number and minimum-dominating-set counting on forests.

Each tree component is rooted into a flat parent array (``root_at``) and
folded from its last position to its first, so a vertex is complete
before it is merged into its parent.  Per position the fold keeps a
record of plain integers, (z0, c0, z1, c1, z2, c2): the minimum size and
the exact number of sets of that size for three states:

  sigma0 -- the vertex is in the dominating set,
  sigma1 -- the vertex is out but dominated by one of its children,
  sigma2 -- the vertex is out and not yet dominated (its parent must be in).

``_mds_merge`` merges one child's record into its parent's; the fold and
the exhaustive sweep's kernel (``search._records``) both call it, so
the recurrence is written once.  The merged result does not depend on the
order children arrive in.  Merging a child adds sizes and multiplies
counts; alternatives keep the smaller size and add counts on ties.  An
infeasible state has size None and count 0.  sigma1 needs at least one
child in sigma0: while children are merged, sigma2 doubles as the running
"no child in sigma0 yet" record and sigma1 as the "at least one" record.
The constraint is not recovered by subtracting unconstrained counts,
because the constrained minimum can be strictly larger than the
unconstrained one and subtraction would lose those sets.  A vertex
forced into the set starts from the sigma0-only leaf ``_MDS_IN``, and the
counter is ``_mds_containing`` with no vertex forced.

Every fold of a whole forest, for both counters here and in
``independence``, runs through one driver, ``_fold_forest``.  It roots
each component, folds a merge over the given leaf records, picks the
root's optimum and combines components: sizes add and values multiply.
Callers differ only in their leaf records, which choose the values:
counts and forced counts (ints; a forced vertex's leaf is ``_MDS_IN``),
member masks (``_Members``, whose + and * both take the union of the
sets counted, so one fold says which vertices lie in some minimum
dominating set) and set families (``_SetFamily``, vertex bitmasks whose
+ is the union of disjoint families and * joins one set from each side
in every way; both enumerators).  The merges only compare sizes and add
or multiply counts, so lifting them this way gives exactly the sets
that the counts count.  An infeasible state keeps the int count 0,
which the merges never read.

Counts are exact arbitrary-precision integers throughout.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .forest import Forest, root_at
from .limits import oracle_max_order


def _pick_min(za, ca, zb, cb):
    """The smaller of two (size, count) alternatives; counts add on ties."""
    if zb is None or (za is not None and za < zb):
        return za, ca
    if za is None or zb < za:
        return zb, cb
    return za, ca + cb


# (z0, c0, z1, c1, z2, c2) of a vertex before any child is merged, and of
# a vertex forced into the set: sigma0 only.
MDS_LEAF = (1, 1, None, 0, 0, 1)
_MDS_IN = (1, 1, None, 0, None, 0)


def _mds_merge(acc, child):
    """The record of ``acc``'s vertex once the subtree whose root record is
    ``child`` hangs from it; records are (z0, c0, z1, c1, z2, c2).

    The (size, count) picks of _pick_min are written out.  z0 is never
    None, and a None size always has count 0.
    """
    z0, c0, z1, c1, z2, c2 = acc
    a0, n0, a1, n1, a2, m2 = child
    # low: the best of the child's sigma0 and sigma1; then the best of all three.
    if a1 is None or a0 < a1:
        low, n_low = a0, n0
    elif a1 < a0:
        low, n_low = a1, n1
    else:
        low, n_low = a0, n0 + n1
    if a2 is None or low < a2:
        z0, c0 = z0 + low, c0 * n_low
    elif a2 < low:
        z0, c0 = z0 + a2, c0 * m2
    else:
        z0, c0 = z0 + low, c0 * (n_low + m2)
    # Before this merge z2 is "no child in sigma0 yet", z1 "at least one".
    z_has = z1
    if z_has is not None:
        z_has += low
        c_has = c1 * n_low
    if z2 is not None:
        z_first = z2 + a0  # this child is the first one in sigma0
        if z_has is None or z_first < z_has:
            z_has, c_has = z_first, c2 * n0
        elif z_first == z_has:
            c_has += c2 * n0
        if a1 is None:
            z2, c2 = None, 0
        else:
            z2, c2 = z2 + a1, c2 * n1
    if z_has is not None:
        z1, c1 = z_has, c_has
    return z0, c0, z1, c1, z2, c2


def _fold(parent: list[int], records: list, merge) -> list:
    """Merge every position's record into its parent's, last position to
    first, in place; ``records`` starts as each position's leaf record."""
    for i in range(len(parent) - 1, 0, -1):
        p = parent[i]
        records[p] = merge(records[p], records[i])
    return records


def mds_table(parent: list[int]) -> list[tuple]:
    """The (z0, c0, z1, c1, z2, c2) record of every position of a rooted
    tree; ``parent`` is ``RootedTree.parent``."""
    return _fold(parent, [MDS_LEAF] * len(parent), _mds_merge)


@dataclass(frozen=True)
class DomResult:
    gamma: int
    mds_count: int


def domination_number(forest: Forest) -> int:
    return count_min_dominating_sets(forest).gamma


def _fold_forest(forest: Forest, leaves, merge, pick, one=1) -> tuple:
    """Size and value of the optimal sets of ``forest``.  Each component is
    rooted at its least vertex, ``merge`` folds over ``leaves(order)`` (the
    leaf records in rooted order), and ``pick`` chooses from the first four
    fields of the root's record.  Sizes add over components and values
    multiply, starting from ``one``, so the empty forest gives (0, one)."""
    size = 0
    value = one
    for members in forest.components:
        tree = root_at(forest, members[0])
        root = _fold(tree.parent, leaves(tree.order), merge)[0]
        least, number = pick(*root[:4])
        size += least
        value *= number
    return size, value


def _mds_containing(forest: Forest, forced) -> tuple[int, int]:
    """Size and number of the smallest dominating sets of ``forest`` that
    contain every vertex of ``forced``."""
    if forced:
        return _fold_forest(forest, lambda order: [_MDS_IN if v in forced else MDS_LEAF for v in order],
                            _mds_merge, _pick_min)
    return _fold_forest(forest, lambda order: [MDS_LEAF] * len(order), _mds_merge, _pick_min)


def count_min_dominating_sets(forest: Forest) -> DomResult:
    """Exact domination number and number of minimum dominating sets."""
    return DomResult(*_mds_containing(forest, ()))


class _Members:
    """A count that keeps only which marked vertices occur in the sets it
    counts, as a bitmask: ``+`` and ``*`` both take the union, since every
    count the merges read is of a nonempty family."""

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        self.mask = mask

    def __add__(self, other: _Members) -> _Members:
        return _Members(self.mask | other.mask)

    __mul__ = __add__


def _mds_members(forest: Forest, marked) -> int:
    """Bitmask, bit v for vertex v, of the vertices of ``marked`` that lie
    in at least one minimum dominating set: one fold of the counter's
    merges with each count replaced by ``_Members``."""
    unmarked = _Members(0)
    return _fold_forest(forest, lambda order: [(1, _Members(1 << v) if v in marked else unmarked,
                                                None, 0, 0, unmarked) for v in order],
                        _mds_merge, _pick_min, unmarked)[1].mask


class _SetFamily:
    """A family of vertex sets as bitmasks, standing in for a count: ``+``
    is the union of two disjoint families and ``*`` joins one set from
    each side in every way, so the merges list sets where they count them.
    Families are never mutated."""

    __slots__ = ("masks",)

    def __init__(self, masks: list[int]):
        self.masks = masks

    def __add__(self, other: _SetFamily) -> _SetFamily:
        return _SetFamily(self.masks + other.masks)

    def __mul__(self, other: _SetFamily) -> _SetFamily:
        if other is EMPTY_SET:
            return self
        if self is EMPTY_SET:
            return other
        return _SetFamily([a | b for a in self.masks for b in other.masks])


# The family standing in for count 1: the empty set alone.
EMPTY_SET = _SetFamily([0])


@functools.cache
def _byte_sets(j: int) -> tuple[frozenset[int], ...]:
    """Byte j of a big-endian set mask, by value, as vertices 8j..8j+7."""
    return tuple(frozenset(dict.fromkeys(8 * j + i for i in range(8) if x >> (7 - i) & 1))
                 for x in range(256))


def _enumerate_sets(forest: Forest, leaves, merge, pick, limit: int | None) -> list[frozenset[int]]:
    """Every optimal set of ``forest``, ordered by sorted vertex lists and
    truncated to ``limit`` entries when given.

    ``merge`` and ``pick`` are a counter's; ``leaves(singles)`` gives the
    leaf records of a component's vertices with ``singles``, the family of
    each vertex alone, in place of their counts.  Vertex v is bit
    ``top - v``; ``top + 1`` is the order rounded up to whole bytes, so
    each byte of a mask is looked up as a presized frozenset and the set
    is their union.  Every set has the same size, and among sets of one
    size the order of sorted vertex lists is the decreasing order of
    these masks.  A negative ``limit`` is rejected, and so is a forest
    above the oracle order cap, since output size can grow exponentially.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    guard = oracle_max_order()
    if forest.n > guard:
        raise ValueError(f"enumeration capped at order {guard}, got {forest.n}")
    width = max(1, (forest.n + 7) // 8)
    top = 8 * width - 1
    family = _fold_forest(forest, lambda order: leaves([_SetFamily([1 << (top - v)]) for v in order]),
                          merge, pick, EMPTY_SET)[1]
    pieces = [_byte_sets(j) for j in range(width)]
    return [functools.reduce(operator.or_, map(operator.getitem, pieces, m.to_bytes(width, "big")))
            for m in sorted(family.masks, reverse=True)[:limit]]


def enumerate_min_dominating_sets(forest: Forest, limit: int | None = None) -> list[frozenset[int]]:
    """All minimum dominating sets, ordered by their sorted vertex lists and
    truncated to ``limit`` entries when given (see ``_enumerate_sets``)."""
    return _enumerate_sets(forest, lambda singles: [(1, s, None, 0, 0, EMPTY_SET) for s in singles],
                           _mds_merge, _pick_min, limit)


def brute_force_domination(forest: Forest) -> DomResult:
    """Oracle: scan vertex subsets by increasing cardinality.

    Kept deliberately independent of the dynamic program; the first
    cardinality admitting a dominating set is gamma, and every subset of
    that cardinality is tested.
    """
    guard = oracle_max_order()
    if forest.n > guard:
        raise ValueError(f"brute force capped at order {guard}, got {forest.n}")
    n = forest.n
    closed = [1 << v for v in range(n)]
    for v in range(n):
        for w in forest.adj[v]:
            closed[v] |= 1 << w
    full = (1 << n) - 1
    for size in range(n + 1):
        count = 0
        for combo in itertools.combinations(range(n), size):
            mask = 0
            for v in combo:
                mask |= closed[v]
            if mask == full:
                count += 1
        if count:
            return DomResult(size, count)
    return DomResult(0, 1)
