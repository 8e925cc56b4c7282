"""The two-level spider family: trees with many minimum dominating sets.

A family tree is a root joined to k hubs, with hub i carrying p_i pendant
paths of length two.  With p_1 + ... + p_k = g - 1 the tree has domination
number g, and for the balanced choice of the p_i a closed-form expression
gives its number of minimum dominating sets exactly.  Maximizing that
expression over k yields one table row per g.

The family does not hold the maximum.  Its best tree per g equals the
exhaustive sweep's per-gamma record for g = 2..7, but from g = 8 on the
sweep finds more sets at the family tree's own order: 372 against 368 at
order 18 (g = 8), 808 against 788 at order 20 (g = 9) and 1,696 against
1,688 at order 22 (g = 10).

Table rows carry two value columns.  The full closed form (1688 for g=10,
k=3) is the total count, confirmed by the dynamic program and the
brute-force oracle on the built trees.  The reduced column subtracts
2^(g-1), which is exactly the number of sets containing the root (the
root plus one free pick per pendant chain), leaving the sets that avoid
the root (1176 for the same row).  Tables of record counts are sometimes
stated in the reduced form, so both columns are always reported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .domination import _mds_containing
from .forest import Forest, build_forest, forest_to_text, pendant_bundles


@dataclass(frozen=True)
class FamilySpec:
    gamma: int
    k: int
    p: tuple[int, ...]

    def __post_init__(self):
        _check_hub_count(self.gamma, self.k)
        if len(self.p) != self.k or any(x < 1 for x in self.p):
            raise ValueError("p must hold k positive entries")
        if sum(self.p) != self.gamma - 1:
            raise ValueError(f"p must sum to gamma-1={self.gamma - 1}, got {sum(self.p)}")

    @classmethod
    def balanced(cls, gamma: int, k: int) -> "FamilySpec":
        return cls(gamma, k, balanced_partition(gamma, k))


def _check_hub_count(gamma: int, k: int) -> None:
    if gamma < 2:
        raise ValueError(f"gamma must be at least 2, got {gamma}")
    if not 1 <= k <= gamma - 1:
        raise ValueError(f"k must be in 1..{gamma - 1}, got {k}")


def balanced_partition(gamma: int, k: int) -> tuple[int, ...]:
    """Split gamma-1 into k parts as equal as possible, big parts first."""
    _check_hub_count(gamma, k)
    total = gamma - 1
    high, rem = total // k + 1, total % k
    return tuple([high] * rem + [total // k] * (k - rem))


@dataclass
class FamilyTree:
    """A built family tree plus the role of every vertex.

    Roles use 1-based hub/path indices: "x", "w:i", "v:i:j", "u:i:j".
    """
    forest: Forest
    p: tuple[int, ...]
    x: int
    hubs: tuple[int, ...]
    chains: tuple[tuple[tuple[int, int], ...], ...]
    roles: dict[int, str]


def build_family_tree(p) -> FamilyTree:
    """Build the family tree for a positive part vector p."""
    p = tuple(p)
    if not p or any(x < 1 for x in p):
        raise ValueError("p must be a nonempty vector of positive integers")
    k = len(p)
    x = 0
    hubs = tuple(range(1, k + 1))
    edges = [(x, w) for w in hubs]
    roles = {x: "x"}
    for i, w in enumerate(hubs, start=1):
        roles[w] = f"w:{i}"
    nxt = k + 1
    chains = []
    for i, w in enumerate(hubs, start=1):
        chain = []
        for j in range(1, p[i - 1] + 1):
            v, u = nxt, nxt + 1
            nxt += 2
            edges.append((w, v))
            edges.append((v, u))
            roles[v] = f"v:{i}:{j}"
            roles[u] = f"u:{i}:{j}"
            chain.append((v, u))
        chains.append(tuple(chain))
    forest = build_forest(nxt, edges)
    return FamilyTree(forest=forest, p=p, x=x, hubs=hubs, chains=tuple(chains), roles=roles)


def family_tree_text(tree: FamilyTree) -> str:
    """Forest file with the vertex roles recorded as comment lines."""
    role_lines = [f"role {v} {tree.roles[v]}" for v in sorted(tree.roles)]
    return forest_to_text(tree.forest, comments=role_lines)


def parse_family_roles(text: str) -> dict[int, str]:
    roles = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            tokens = line[1:].split()
            if len(tokens) == 3 and tokens[0] == "role":
                roles[int(tokens[1])] = tokens[2]
    return roles


def closed_form_count(gamma: int, k: int) -> int:
    """Exact MDS count of the balanced family tree, by formula.

    Three terms: 2^(gamma-1) for the sets containing the root, then one
    term per hub part size for the sets containing that hub instead.
    """
    _check_hub_count(gamma, k)
    total = gamma - 1
    rem = total % k
    low = total // k
    high = low + 1
    value = 1 << (gamma - 1)
    if rem:
        value += rem * (1 << high) * ((1 << high) - 1) ** (rem - 1) * ((1 << low) - 1) ** (k - rem)
    if k - rem:
        value += (k - rem) * ((1 << high) - 1) ** rem * (1 << low) * ((1 << low) - 1) ** (k - rem - 1)
    return value


@dataclass(frozen=True)
class TableRow:
    """Best hub count for one gamma, with both count columns.

    ``formula_value`` is the full closed form; ``table_interpretation_value``
    drops the 2^(gamma-1) root-containing sets, i.e. it counts the minimum
    dominating sets that avoid the root.  Both share the same argmax since
    the difference does not depend on k.
    """
    gamma: int
    best_k: int
    formula_value: int
    table_interpretation_value: int


# A k whose float score is within this margin of the best score is decided
# exactly.  Safe because k = 1 has P*S = 1, so the best score is at least 0:
# a k scoring that high has 0 < ln(S) <= ln(2k) and a ln(P) of no larger
# magnitude, so its score rounds off by about 1e-14.  That is far inside
# the margin, so no k with the largest closed form can fall outside it.
_RANK_MARGIN = 1e-9


def optimize_k(gamma: int) -> TableRow:
    """Maximize the closed form over k (exact comparison, smallest k wins ties).

    With the common factor taken out, the closed form is
    2^(gamma-1) * (1 + P*S), where over the balanced parts p_j
    P = prod(1 - 2^-p_j) and S = sum 1/(1 - 2^-p_j).  Every k is ranked by
    the float score ln(P*S); only the k within a margin of the best score
    are evaluated as integers, and the integers pick the winner.
    """
    if gamma < 2:
        raise ValueError(f"gamma must be at least 2, got {gamma}")
    total = gamma - 1
    scores = []
    for k in range(1, gamma):
        low, rem = divmod(total, k)
        drop_high, drop_low = math.ldexp(1.0, -low - 1), math.ldexp(1.0, -low)
        scores.append(math.log(rem / (1.0 - drop_high) + (k - rem) / (1.0 - drop_low))
                      + rem * math.log1p(-drop_high) + (k - rem) * math.log1p(-drop_low))
    cutoff = max(scores) - _RANK_MARGIN
    best_k, best_value = 0, -1
    for k, score in enumerate(scores, start=1):
        if score >= cutoff:
            value = closed_form_count(gamma, k)
            if value > best_value:
                best_k, best_value = k, value
    return TableRow(gamma=gamma, best_k=best_k, formula_value=best_value,
                    table_interpretation_value=best_value - (1 << (gamma - 1)))


@dataclass(frozen=True)
class LocalPartition:
    """Counts of minimum dominating sets by their trace on {w1, w2, x},
    with the pendant-path vertices below the two hubs projected away."""
    counts: dict[frozenset[str], int]
    p1: int
    p2: int

    def reassembled_total(self) -> int:
        c = self.counts
        f1, f2 = (1 << self.p1) - 1, (1 << self.p2) - 1
        return (c[frozenset({"x"})] * (1 << (self.p1 + self.p2))
                + c[frozenset({"w1"})] * (1 << self.p1) * f2
                + c[frozenset({"w2"})] * f1 * (1 << self.p2)
                + c[frozenset()] * f1 * f2)


def local_mds_partition(forest: Forest, w1: int, w2: int, x: int) -> LocalPartition:
    """Partition the minimum dominating sets by their intersection with
    {w1, w2, x}, counting distinct sets after removing the pendant-path
    vertices below the two hubs.

    Requires the local configuration: both hubs adjacent to x, each hub
    carrying only pendant 2-paths otherwise.

    Nothing is listed: one forced fold per subset of {w1, w2, x} counts
    the sets containing it, and inclusion-exclusion gives the sets of each
    exact trace T.  Every minimum set holds exactly one vertex of each
    chain (v, u): u needs u or v, and with both, u can go.  Either pick
    covers the chain, and w_i's only other neighbour is x, so every pick
    works when w_i or x is in T and every pick but all tips otherwise.
    Each exact count is thus the projected count times the product over
    both hubs of 2^p_i, less one when neither w_i nor x is in T.
    """
    for name, v in (("w1", w1), ("w2", w2), ("x", x)):
        if not 0 <= v < forest.n:
            raise ValueError(f"{name}={v} is not a vertex of this {forest.n}-vertex forest")
    if len({w1, w2, x}) != 3:
        raise ValueError("w1, w2 and x must be three distinct vertices")
    if w2 not in forest.adj[x] or w1 not in forest.adj[x]:
        raise ValueError("both hubs must be adjacent to x")
    bundles = pendant_bundles(forest).get(x, {})
    if w1 not in bundles or w2 not in bundles:
        raise ValueError("each hub must carry at least one pendant 2-path and nothing else")
    p1, p2 = bundles[w1], bundles[w2]
    vertex = {"w1": w1, "w2": w2, "x": x}
    traces = [frozenset(c) for r in range(4) for c in itertools.combinations(vertex, r)]
    folds = [_mds_containing(forest, [vertex[name] for name in t]) for t in traces]
    gamma = folds[0][0]
    containing = {t: count if size == gamma else 0 for t, (size, count) in zip(traces, folds)}
    counts = {}
    for t in traces:
        exact = sum((-1) ** len(s - t) * containing[s] for s in traces if t <= s)
        free = "x" in t
        counts[t] = exact // (((1 << p1) - (not free and "w1" not in t))
                              * ((1 << p2) - (not free and "w2" not in t)))
    return LocalPartition(counts=counts, p1=p1, p2=p2)


@dataclass(frozen=True)
class TrendRow:
    gamma: int
    best_k: int
    formula_value: int
    ratio_to_reference: float
    k_scaled: float


def trend_row(row: TableRow) -> TrendRow:
    """One table row against gamma*2^gamma/ln(gamma), and its best k against
    gamma/ln(gamma).  Display-only floats."""
    gamma = row.gamma
    log_ratio = (math.log(row.formula_value) + math.log(math.log(gamma))
                 - math.log(gamma) - gamma * math.log(2))
    return TrendRow(
        gamma=gamma,
        best_k=row.best_k,
        formula_value=row.formula_value,
        ratio_to_reference=math.exp(log_ratio),
        k_scaled=row.best_k * math.log(gamma) / gamma,
    )


def growth_trend(gammas) -> list[TrendRow]:
    """Descriptive report: ``trend_row`` of the best family row per gamma."""
    return [trend_row(optimize_k(gamma)) for gamma in gammas]
