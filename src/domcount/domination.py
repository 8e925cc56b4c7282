"""Exact domination number and minimum-dominating-set counting on forests.

Each tree component is rooted into a flat parent array (``root_at``) and
folded from its last position to its first, so a vertex is complete
before it is merged into its parent.  Per position the fold keeps, as
plain integers, the minimum size and the exact number of sets of that
size for three states:

  sigma0 -- the vertex is in the dominating set,
  sigma1 -- the vertex is out but dominated by one of its children,
  sigma2 -- the vertex is out and not yet dominated (its parent must be in).

Merging a child adds sizes and multiplies counts; alternatives keep the
smaller size and add counts on ties.  An infeasible state has size None
and count 0.  sigma1 needs at least one child in sigma0: while children
are merged, sigma2 doubles as the running "no child in sigma0 yet" record
and sigma1 as the "at least one" record.  The constraint is not recovered
by subtracting unconstrained counts, because the constrained minimum can
be strictly larger than the unconstrained one and subtraction would lose
those sets.

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


def mds_table(parent: list[int]):
    """Sizes and counts of every state at every position of a rooted tree.

    ``parent`` is ``RootedTree.parent``.  Returns ``(sizes, counts)``, each
    a triple of lists indexed by state (sigma0, sigma1, sigma2) and then by
    position.
    """
    m = len(parent)
    z0, c0 = [1] * m, [1] * m
    z1, c1 = [None] * m, [0] * m
    z2, c2 = [0] * m, [1] * m
    # The (size, count) picks of _pick_min, written out.  z0 is never None,
    # and a None size always has count 0.
    for i in range(m - 1, 0, -1):
        p = parent[i]
        a0, n0, a1, n1, a2 = z0[i], c0[i], z1[i], c1[i], z2[i]
        # low: the best of sigma0 and sigma1; best: of all three states.
        if a1 is None or a0 < a1:
            low, n_low = a0, n0
        elif a1 < a0:
            low, n_low = a1, n1
        else:
            low, n_low = a0, n0 + n1
        if a2 is None or low < a2:
            z0[p] += low
            c0[p] *= n_low
        elif a2 < low:
            z0[p] += a2
            c0[p] *= c2[i]
        else:
            z0[p] += low
            c0[p] *= n_low + c2[i]
        # Before this merge z2[p] is "no child in sigma0 yet", z1[p] "at least one".
        z_has, z_no = z1[p], z2[p]
        if z_has is not None:
            z_has += low
            c_has = c1[p] * n_low
        if z_no is not None:
            c_no = c2[p]
            z_first = z_no + a0  # this child is the first one in sigma0
            if z_has is None or z_first < z_has:
                z_has, c_has = z_first, c_no * n0
            elif z_first == z_has:
                c_has += c_no * n0
            if a1 is None:
                z2[p], c2[p] = None, 0
            else:
                z2[p], c2[p] = z_no + a1, c_no * n1
        if z_has is not None:
            z1[p], c1[p] = z_has, c_has
    return (z0, z1, z2), (c0, c1, c2)


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
        (z0, z1, _), (c0, c1, _) = mds_table(root_at(forest, members[0]).parent)
        size, number = _pick_min(z0[0], c0[0], z1[0], c1[0])
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
    sizes, _ = mds_table(tree.parent)
    z0, z1, _ = sizes
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


def enumerate_min_dominating_sets(forest: Forest, limit: int | None = None) -> list[frozenset[int]]:
    """All minimum dominating sets, ordered by their sorted vertex lists.

    Truncated to ``limit`` entries when given; a negative ``limit`` is
    rejected.  Guarded by the oracle order cap since output size can grow
    exponentially.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    guard = oracle_max_order()
    if forest.n > guard:
        raise ValueError(f"enumeration capped at order {guard}, got {forest.n}")
    combined = [frozenset()]
    for members in forest.components:
        here = _component_sets(root_at(forest, members[0]))
        combined = [acc | s for acc in combined for s in here]
    combined.sort(key=lambda s: tuple(sorted(s)))
    if limit is not None:
        combined = combined[:limit]
    return combined


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
