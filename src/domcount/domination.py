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
the exhaustive sweep's kernel (``search._level_counts``) both call it, so
the recurrence is written once.  The merged result does not depend on the
order children arrive in.  Merging a child adds sizes and multiplies
counts; alternatives keep the smaller size and add counts on ties.  An
infeasible state has size None and count 0.  sigma1 needs at least one
child in sigma0: while children are merged, sigma2 doubles as the running
"no child in sigma0 yet" record and sigma1 as the "at least one" record.
The constraint is not recovered by subtracting unconstrained counts,
because the constrained minimum can be strictly larger than the
unconstrained one and subtraction would lose those sets.

Enumeration walks the same tables.  It splits the sigma1 sets of a vertex
by their first child in sigma0: the children before it are in sigma1, the
later ones in whichever of sigma0 and sigma1 is smaller (both on a tie),
and a split is expanded only when its total size equals sigma1's.

Counts are exact arbitrary-precision integers throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .forest import Forest, RootedTree, root_at
from .limits import oracle_max_order


def _pick_min(za, ca, zb, cb):
    """The smaller of two (size, count) alternatives; counts add on ties."""
    if zb is None or (za is not None and za < zb):
        return za, ca
    if za is None or zb < za:
        return zb, cb
    return za, ca + cb


# (z0, c0, z1, c1, z2, c2) of a vertex before any child is merged.
MDS_LEAF = (1, 1, None, 0, 0, 1)


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


def mds_table(parent: list[int]) -> list[tuple]:
    """The (z0, c0, z1, c1, z2, c2) record of every position of a rooted
    tree; ``parent`` is ``RootedTree.parent``."""
    records = [MDS_LEAF] * len(parent)
    for i in range(len(parent) - 1, 0, -1):
        p = parent[i]
        records[p] = _mds_merge(records[p], records[i])
    return records


@dataclass(frozen=True)
class DomResult:
    gamma: int
    mds_count: int


def domination_number(forest: Forest) -> int:
    return count_min_dominating_sets(forest).gamma


def count_min_dominating_sets(forest: Forest) -> DomResult:
    """Exact domination number and number of minimum dominating sets.

    Both aggregate over components: sizes add, counts multiply.  The empty
    forest has domination number 0 and one (empty) minimum dominating set.
    """
    gamma = 0
    count = 1
    for members in forest.components:
        z0, c0, z1, c1, _, _ = mds_table(root_at(forest, members[0]).parent)[0]
        size, number = _pick_min(z0, c0, z1, c1)
        gamma += size
        count *= number
    return DomResult(gamma, count)


def _joins(base, options) -> list[frozenset[int]]:
    """``base`` joined with one set from each option list, every way."""
    return [frozenset(base).union(*parts) for parts in itertools.product(*options)]


def _component_sets(tree: RootedTree) -> list[frozenset[int]]:
    """All minimum dominating sets of one component, DP-guided.

    Only state choices that achieve the recorded minima are expanded, so
    the work is polynomial in component size times the number of sets.
    """
    order = tree.order
    z0, _, z1, _, z2, _ = zip(*mds_table(tree.parent))
    sizes = (z0, z1, z2)
    children = tree.child_positions()
    memo: dict[tuple[int, int], list[frozenset[int]]] = {}

    def optimal(i: int, states) -> list[frozenset[int]]:
        feasible = [s for s in states if sizes[s][i] is not None]
        least = min(sizes[s][i] for s in feasible)
        return [x for s in feasible if sizes[s][i] == least for x in sets(i, s)]

    def sets(i: int, state: int) -> list[frozenset[int]]:
        key = (i, state)
        if key in memo:
            return memo[key]
        kids = children[i]
        if state == 0:
            result = _joins({order[i]}, [optimal(c, (0, 1, 2)) for c in kids])
        elif state == 2:
            result = _joins((), [sets(c, 1) for c in kids])
        else:
            low = [z0[c] if z1[c] is None else min(z0[c], z1[c]) for c in kids]
            rest = sum(low)
            head = 0
            result = []
            for j, c in enumerate(kids):
                rest -= low[j]
                if head + z0[c] + rest == z1[i]:
                    result += _joins((), [sets(k, 1) for k in kids[:j]] + [sets(c, 0)]
                                     + [optimal(k, (0, 1)) for k in kids[j + 1:]])
                if z1[c] is None:
                    break
                head += z1[c]
        memo[key] = result
        return result

    return optimal(0, (0, 1))


def _enumerate_sets(forest: Forest, component_sets, limit: int | None) -> list[frozenset[int]]:
    """Every union of one set per component, ordered by sorted vertex
    lists and truncated to ``limit`` entries when given.

    ``component_sets`` lists the sets of one rooted component.  A negative
    ``limit`` is rejected, and so is a forest above the oracle order cap,
    since output size can grow exponentially.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    guard = oracle_max_order()
    if forest.n > guard:
        raise ValueError(f"enumeration capped at order {guard}, got {forest.n}")
    combined = [frozenset()]
    for members in forest.components:
        here = component_sets(root_at(forest, members[0]))
        combined = [acc | s for acc in combined for s in here]
    combined.sort(key=lambda s: tuple(sorted(s)))
    if limit is not None:
        combined = combined[:limit]
    return combined


def enumerate_min_dominating_sets(forest: Forest, limit: int | None = None) -> list[frozenset[int]]:
    """All minimum dominating sets, ordered by their sorted vertex lists and
    truncated to ``limit`` entries when given (see ``_enumerate_sets``)."""
    return _enumerate_sets(forest, _component_sets, limit)


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
