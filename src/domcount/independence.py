"""Exact independence number and maximum-independent-set counting.

Mirrors the domination counter with a two-state (max, count) fold over the
same flat rooting: per vertex either IN (in the independent set, children
must be OUT) or OUT (children free).  ``_mis_merge`` merges one child's
(z_in, c_in, z_out, c_out) record into its parent's, for the fold and for
the exhaustive sweep's kernel alike.  The counter and the enumerator run
the forest driver of ``domination`` (``_fold_forest``) with this merge
and ``_pick_max``, with int counts or with set families in place of
counts.  Also ships the structural recognizer for the trees that meet the
2^(alpha-1)+1 count with equality: a star with all but one edge
subdivided once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .domination import EMPTY_SET, _enumerate_sets, _fold, _fold_forest
from .forest import Forest
# The counters here fold through ``domination``, but perfbench's traced runs
# patch ``root_at`` by name on this module too, so it stays importable here.
from .forest import root_at  # noqa: F401
from .limits import oracle_max_order


def _pick_max(za, ca, zb, cb):
    """The larger of two (size, count) alternatives; counts add on ties."""
    if za > zb:
        return za, ca
    if zb > za:
        return zb, cb
    return za, ca + cb


# (z_in, c_in, z_out, c_out) of a vertex before any child is merged.
MIS_LEAF = (1, 1, 0, 1)


def _mis_merge(acc, child):
    """The record of ``acc``'s vertex once the subtree whose root record is
    ``child`` hangs from it; records are (z_in, c_in, z_out, c_out).  The
    child's OUT state joins IN; the pick of _pick_max joins OUT."""
    z_in, c_in, z_out, c_out = acc
    a, n_a, b, n_b = child
    if a > b:
        return z_in + b, c_in * n_b, z_out + a, c_out * n_a
    if b > a:
        return z_in + b, c_in * n_b, z_out + b, c_out * n_b
    return z_in + b, c_in * n_b, z_out + a, c_out * (n_a + n_b)


def mis_table(parent: list[int]) -> list[tuple]:
    """The (z_in, c_in, z_out, c_out) record of every position of a rooted
    tree; ``parent`` is ``RootedTree.parent``."""
    return _fold(parent, [MIS_LEAF] * len(parent), _mis_merge)


@dataclass(frozen=True)
class IndResult:
    alpha: int
    mis_count: int


def independence_number(forest: Forest) -> int:
    return count_max_independent_sets(forest).alpha


def count_max_independent_sets(forest: Forest) -> IndResult:
    """Exact independence number and number of maximum independent sets."""
    return IndResult(*_fold_forest(forest, lambda order: [MIS_LEAF] * len(order), _mis_merge, _pick_max))


def enumerate_max_independent_sets(forest: Forest, limit: int | None = None) -> list[frozenset[int]]:
    """All maximum independent sets, ordered by their sorted vertex lists and
    truncated to ``limit`` entries when given (see ``_enumerate_sets``)."""
    return _enumerate_sets(forest, lambda singles: [(1, s, 0, EMPTY_SET) for s in singles], _mis_merge, _pick_max,
                           limit)


def brute_force_independence(forest: Forest) -> IndResult:
    """Oracle: scan subsets by decreasing cardinality, independent of the DP."""
    guard = oracle_max_order()
    if forest.n > guard:
        raise ValueError(f"brute force capped at order {guard}, got {forest.n}")
    n = forest.n
    adj_mask = [0] * n
    for v in range(n):
        for w in forest.adj[v]:
            adj_mask[v] |= 1 << w
    for size in range(n, -1, -1):
        count = 0
        for combo in itertools.combinations(range(n), size):
            mask = 0
            ok = True
            for v in combo:
                if adj_mask[v] & mask:
                    ok = False
                    break
                mask |= 1 << v
            if ok:
                count += 1
        if count:
            return IndResult(size, count)
    return IndResult(0, 1)


@dataclass(frozen=True)
class SpiderShape:
    """Recognizer verdict: is the tree a star with all but one edge
    subdivided once, and for which leg count."""
    is_subdivided_star: bool
    k: int | None = None


NOT_SUBDIVIDED_STAR = SpiderShape(False, None)


def is_subdivided_star(forest: Forest) -> SpiderShape:
    """Recognize a center with k legs of length 2 plus one leg of length 1.

    Order 2k+2 with independence number k+1; k=0 is the single edge and
    k=1 the path on four vertices.  Works by degree profile only, so the
    verdict is independent of vertex labeling.
    """
    if forest.component_count != 1:
        raise ValueError("recognizer expects a single tree component")
    n = forest.n
    if n < 2 or n % 2 != 0:
        return NOT_SUBDIVIDED_STAR
    k = (n - 2) // 2
    if k == 0:
        return SpiderShape(True, 0)
    degrees = [forest.degree(v) for v in range(n)]
    if k == 1:
        # Only the path has profile (1,1,2,2) among the two 4-vertex trees.
        return SpiderShape(True, 1) if sorted(degrees) == [1, 1, 2, 2] else NOT_SUBDIVIDED_STAR
    centers = [v for v in range(n) if degrees[v] == k + 1]
    if len(centers) != 1:
        return NOT_SUBDIVIDED_STAR
    center = centers[0]
    pendant_legs = 0
    long_legs = 0
    for w in forest.adj[center]:
        if degrees[w] == 1:
            pendant_legs += 1
        elif degrees[w] == 2:
            tip = [x for x in forest.adj[w] if x != center][0]
            if degrees[tip] != 1:
                return NOT_SUBDIVIDED_STAR
            long_legs += 1
        else:
            return NOT_SUBDIVIDED_STAR
    if pendant_legs == 1 and long_legs == k:
        return SpiderShape(True, k)
    return NOT_SUBDIVIDED_STAR
