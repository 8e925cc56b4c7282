"""Exhaustive sweep over free trees: bound checks and extremal records.

Walks every isomorphism class in an order range, counts minimum dominating
sets and maximum independent sets, and checks three things per tree:

  * the MDS count stays within 2.4606^gamma, compared exactly as
    count * 10000^gamma <= 24606^gamma so no rounding is involved;
  * the MIS count stays within 2^(alpha-1)+1, with equality exactly on the
    trees the subdivided-star recognizer accepts;
  * the MIS count stays within the order-based ceiling for trees
    (2^((n-2)/2)+1 for even n, 2^((n-3)/2) for odd n >= 3).

Per domination number and per independence number the best count seen is
kept with a witness (ties broken to the smaller order, then the smaller
canonical code).

The parent process walks each order's first-subtree blocks
(``treegen.block_starts``) and hands them out in tasks of up to
_BLOCKS_PER_TASK block starts, all of one order.  A worker generates each
block's trees (``treegen.block_trees``) and turns every level sequence
straight into its row: the root's children are split at the level-1
positions, each child's slice of the sequence keys a per-process memo of
that subtree's root entries in ``mds_table`` and ``mis_table``, and the
root merges the memoised records.  No ``Forest`` is built per tree; only
the per-gamma record witnesses are decoded, for their diagnostics.

The parent folds the returned rows in task order, which is stream order:
orders ascend, blocks follow the generator, and codes strictly increase
within an order.  So the first row to reach a record count is the
tie-break winner whatever the worker count, and the report is identical
for every ``jobs`` value.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
from dataclasses import dataclass
from fractions import Fraction

from .domination import _pick_min, enumerate_min_dominating_sets, mds_table
from .forest import Forest, classify_vertices, pendant_two_paths
from .independence import NOT_SUBDIVIDED_STAR, SpiderShape, _pick_max, mis_table
from .limits import search_max_order
from .treegen import CanonicalCode, block_starts, block_trees

# The sweep does not call these, but perfbench's traced run patches them by
# name on this module (``SEARCH_SPANS``), so they stay importable from here.
from .domination import count_min_dominating_sets  # noqa: F401
from .independence import count_max_independent_sets, is_subdivided_star  # noqa: F401
from .treegen import generate_trees  # noqa: F401

# 2.4606 as an exact rational: the bound's base, truncated to the four
# decimals used in the statement being checked.
_BOUND_NUMERATOR = 24606
_BOUND_DENOMINATOR = 10000

# First-subtree blocks per worker task.  At order 16, 1,230 blocks make 20
# tasks; no block holds more than 3 % of its order's trees.
_BLOCKS_PER_TASK = 64


@dataclass(frozen=True)
class GrowthBaseBracket:
    """Rational bracket around the largest root of x^3 - x^2 - 4x + 1."""
    lo: Fraction
    hi: Fraction

    def support_rate_bracket(self) -> tuple[Fraction, Fraction]:
        """Bracket for the companion rate b/(b-1), decreasing in b."""
        return (self.hi / (self.hi - 1), self.lo / (self.lo - 1))


def _cubic(x: Fraction) -> Fraction:
    return x * x * x - x * x - 4 * x + 1


def compute_growth_base(width) -> GrowthBaseBracket:
    """Bisect x^3 - x^2 - 4x + 1 on [2, 3] down to the requested width.

    The cubic is -3 at 2 and +7 at 3, so the bracket is valid from the
    start and every midpoint keeps exact rational endpoints.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    lo, hi = Fraction(2), Fraction(3)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if _cubic(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return GrowthBaseBracket(lo, hi)


def verify_mds_bound(gamma: int, count: int) -> bool:
    """count <= 2.4606^gamma, checked exactly over the integers."""
    if gamma < 1:
        raise ValueError(f"gamma must be at least 1, got {gamma}")
    return count * _BOUND_DENOMINATOR**gamma <= _BOUND_NUMERATOR**gamma


@dataclass(frozen=True)
class MisBoundCheck:
    passed: bool
    equality: bool
    consistent: bool


def verify_mis_bound(alpha: int, count: int, shape: SpiderShape) -> MisBoundCheck:
    """count <= 2^(alpha-1)+1, equality expected exactly on subdivided stars."""
    if alpha < 1:
        raise ValueError(f"alpha must be at least 1, got {alpha}")
    bound = (1 << (alpha - 1)) + 1
    equality = count == bound
    return MisBoundCheck(passed=count <= bound, equality=equality,
                         consistent=equality == shape.is_subdivided_star)


def mis_order_bound(n: int) -> int:
    """Ceiling for the MIS count of a tree, by order alone.

    The single vertex is handled directly (the odd-n formula is fractional
    at n=1); it has exactly one maximum independent set.
    """
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    if n == 1:
        return 1
    if n % 2 == 0:
        return (1 << ((n - 2) // 2)) + 1
    return 1 << ((n - 3) // 2)


@dataclass(frozen=True)
class HubConfiguration:
    """A vertex together with the pendant-2-path counts of those neighbors
    whose whole hanging subtree is such a bundle of paths."""
    at: int
    parts: tuple[int, ...]

    @property
    def gap(self) -> int:
        return max(self.parts) - min(self.parts)


@dataclass(frozen=True)
class DiagnosticsReport:
    endvertices_covered: bool
    uncovered_endvertices: tuple[int, ...]
    configurations: tuple[HubConfiguration, ...]

    @property
    def max_hub_gap(self) -> int | None:
        if not self.configurations:
            return None
        return max(c.gap for c in self.configurations)


def extremal_diagnostics(forest: Forest) -> DiagnosticsReport:
    """Structural sanity checks expected of count-maximizing trees.

    (1) every endvertex should appear in at least one minimum dominating
    set; (2) wherever two or more neighbors of a common vertex hang whole
    bundles of pendant 2-paths, the bundle sizes should differ by at most
    one.  Both are reported, never enforced.
    """
    if forest.component_count != 1:
        raise ValueError("diagnostics expect a single tree component")
    covered: set[int] = set()
    for dom_set in enumerate_min_dominating_sets(forest):
        covered |= dom_set
    endvertices = sorted(classify_vertices(forest).endvertices)
    uncovered = tuple(v for v in endvertices if v not in covered)
    configurations = []
    for x in range(forest.n):
        parts = []
        for w in forest.adj[x]:
            chains = pendant_two_paths(forest, w, x)
            if chains:
                parts.append(len(chains))
        if len(parts) >= 2:
            configurations.append(HubConfiguration(at=x, parts=tuple(sorted(parts, reverse=True))))
    return DiagnosticsReport(
        endvertices_covered=not uncovered,
        uncovered_endvertices=uncovered,
        configurations=tuple(configurations),
    )


@dataclass(frozen=True)
class ExtremalRecord:
    key: int
    best_count: int
    witness: CanonicalCode
    witness_order: int


@dataclass(frozen=True)
class TreeRow:
    order: int
    code: str
    gamma: int
    mds_count: int
    alpha: int
    mis_count: int
    mds_bound_ok: bool
    mis_bound_ok: bool
    mis_equality: bool
    is_subdivided_star: bool


@dataclass
class SearchReport:
    min_order: int
    max_order: int
    trees_processed: int
    gamma_records: dict[int, ExtremalRecord]
    alpha_records: dict[int, ExtremalRecord]
    mds_bound_violations: list[tuple[str, str]]
    mis_bound_violations: list[tuple[str, str]]
    order_bound_violations: list[tuple[str, str]]
    diagnostics: dict[int, DiagnosticsReport]
    rows: list[TreeRow] | None = None

    @property
    def violation_count(self) -> int:
        return (len(self.mds_bound_violations) + len(self.mis_bound_violations)
                + len(self.order_bound_violations))


# Root entries of mds_table and mis_table for every root-child subtree a
# sweep meets in this process, keyed by the subtree's slice of its tree's
# level sequence (every root child sits at level 1, so slices need no
# re-basing).  One entry per distinct subtree: 1,230 cover all of orders
# 1..16, 5,373 all of orders 1..18.
_SUBTREE_RECORDS: dict[tuple[int, ...], tuple] = {}


def _subtree_record(sub: tuple[int, ...]) -> tuple:
    """(z0, c0, z1, c1, z2, c2, z_in, c_in, z_out, c_out) at the subtree's root."""
    parent = [-1, *CanonicalCode(tuple(x - 1 for x in sub)).parents()]
    (z0, z1, z2), (c0, c1, c2) = mds_table(parent)
    (z_in, z_out), (c_in, c_out) = mis_table(parent)
    return z0[0], c0[0], z1[0], c1[0], z2[0], c2[0], z_in[0], c_in[0], z_out[0], c_out[0]


def _level_counts(levels: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(gamma, MDS count, alpha, MIS count) of a tree given by its level
    sequence rooted at vertex 0.

    Each root child's subtree record comes from the memo, and the root
    merges the records with the steps of ``mds_table`` and ``mis_table``.
    """
    z0, c0, z1, c1, z2, c2 = 1, 1, None, 0, 0, 1
    z_in, c_in, z_out, c_out = 1, 1, 0, 1
    s = 1
    children = levels.count(1)
    while children:
        children -= 1
        e = levels.index(1, s + 1) if children else len(levels)
        sub = levels[s:e]
        s = e
        record = _SUBTREE_RECORDS.get(sub)
        if record is None:
            record = _SUBTREE_RECORDS[sub] = _subtree_record(sub)
        a0, n0, a1, n1, a2, m2, a_in, n_in, a_out, n_out = record
        if a1 is None or a0 < a1:
            low, n_low = a0, n0
        elif a1 < a0:
            low, n_low = a1, n1
        else:
            low, n_low = a0, n0 + n1
        if a2 is None or low < a2:
            z0 += low
            c0 *= n_low
        elif a2 < low:
            z0 += a2
            c0 *= m2
        else:
            z0 += low
            c0 *= n_low + m2
        z_has = z1
        if z_has is not None:
            z_has += low
            c_has = c1 * n_low
        if z2 is not None:
            z_first = z2 + a0
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
        z_in += a_out
        c_in *= n_out
        if a_in > a_out:
            z_out += a_in
            c_out *= n_in
        elif a_out > a_in:
            z_out += a_out
            c_out *= n_out
        else:
            z_out += a_in
            c_out *= n_in + n_out
    gamma, mds_count = _pick_min(z0, c0, z1, c1)
    alpha, mis_count = _pick_max(z_in, c_in, z_out, c_out)
    return gamma, mds_count, alpha, mis_count


def _level_spider_shape(levels: tuple[int, ...]) -> SpiderShape:
    """``is_subdivided_star`` on a canonical level sequence: at order 2k+2
    the only accepted code is (0,) + (1, 2)*k + (1,)."""
    n = len(levels)
    k = (n - 2) // 2
    if n % 2 == 0 and levels == (0,) + (1, 2) * k + (1,):
        return SpiderShape(True, k)
    return NOT_SUBDIVIDED_STAR


def _block_rows(starts) -> list[TreeRow]:
    """Generate, count and check every tree of some first-subtree blocks;
    one row per tree, in stream order."""
    rows = []
    for start in starts:
        for levels in block_trees(start):
            gamma, mds_count, alpha, mis_count = _level_counts(levels)
            shape = _level_spider_shape(levels)
            mis_check = verify_mis_bound(alpha, mis_count, shape)
            rows.append(TreeRow(
                order=len(levels), code=CanonicalCode(levels).to_string(), gamma=gamma,
                mds_count=mds_count, alpha=alpha, mis_count=mis_count,
                mds_bound_ok=verify_mds_bound(gamma, mds_count),
                mis_bound_ok=mis_check.passed, mis_equality=mis_check.equality,
                is_subdivided_star=shape.is_subdivided_star))
    return rows


def _tasks(min_order: int, max_order: int):
    """Runs of up to _BLOCKS_PER_TASK block starts, each within one order."""
    for n in range(min_order, max_order + 1):
        starts = block_starts(n)
        while task := list(itertools.islice(starts, _BLOCKS_PER_TASK)):
            yield task


def search_extremal(min_order: int, max_order: int, jobs: int = 1,
                    emit_rows: bool = False) -> SearchReport:
    """Sweep all free trees with min_order <= n <= max_order.

    Every tree gets the three bound checks, and every per-gamma record
    witness gets ``extremal_diagnostics``.  Workers generate and map tasks
    of first-subtree blocks to rows; this function folds the rows in task
    order, which is the generation stream's order.  The stream has
    ascending orders and strictly increasing codes within an order, so
    keeping the first row that reaches a record count breaks ties to the
    smaller order, then the smaller code.  The report is byte-for-byte
    identical for every ``jobs`` value.
    """
    ceiling = search_max_order()
    if not 1 <= min_order <= max_order:
        raise ValueError(f"need 1 <= min_order <= max_order, got {min_order}..{max_order}")
    if max_order > ceiling:
        raise ValueError(f"max order {max_order} exceeds the search ceiling {ceiling}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")

    trees = 0
    gamma_best: dict[int, TreeRow] = {}
    alpha_best: dict[int, TreeRow] = {}
    mds_violations: list[tuple[str, str]] = []
    mis_violations: list[tuple[str, str]] = []
    order_violations: list[tuple[str, str]] = []
    rows: list[TreeRow] | None = [] if emit_rows else None
    tasks = _tasks(min_order, max_order)
    with multiprocessing.Pool(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        for batch in pool.imap(_block_rows, tasks) if pool else map(_block_rows, tasks):
            for row in batch:
                trees += 1
                if not row.mds_bound_ok:
                    mds_violations.append(
                        (row.code, f"gamma={row.gamma} count={row.mds_count} exceeds 2.4606^gamma"))
                if not row.mis_bound_ok:
                    mis_violations.append(
                        (row.code, f"alpha={row.alpha} count={row.mis_count} exceeds 2^(alpha-1)+1"))
                elif row.mis_equality != row.is_subdivided_star:
                    mis_violations.append(
                        (row.code,
                         f"alpha={row.alpha} count={row.mis_count} equality={row.mis_equality} "
                         f"recognizer={row.is_subdivided_star}"))
                order_bound = mis_order_bound(row.order)
                if row.mis_count > order_bound:
                    order_violations.append(
                        (row.code,
                         f"order={row.order} count={row.mis_count} exceeds order bound {order_bound}"))
                best = gamma_best.get(row.gamma)
                if best is None or row.mds_count > best.mds_count:
                    gamma_best[row.gamma] = row
                best = alpha_best.get(row.alpha)
                if best is None or row.mis_count > best.mis_count:
                    alpha_best[row.alpha] = row
                if emit_rows:
                    rows.append(row)
    # Records are cheap to rebuild; do not keep them past the sweep.
    _SUBTREE_RECORDS.clear()

    gamma_records = {g: ExtremalRecord(g, r.mds_count, CanonicalCode.from_string(r.code), r.order)
                     for g, r in sorted(gamma_best.items())}
    alpha_records = {a: ExtremalRecord(a, r.mis_count, CanonicalCode.from_string(r.code), r.order)
                     for a, r in sorted(alpha_best.items())}
    return SearchReport(
        min_order=min_order,
        max_order=max_order,
        trees_processed=trees,
        gamma_records=gamma_records,
        alpha_records=alpha_records,
        mds_bound_violations=mds_violations,
        mis_bound_violations=mis_violations,
        order_bound_violations=order_violations,
        diagnostics={g: extremal_diagnostics(record.witness.decode())
                     for g, record in gamma_records.items()},
        rows=rows,
    )


CSV_HEADER = ("order,code,gamma,mds_count,alpha,mis_count,"
              "mds_bound_ok,mis_bound_ok,mis_equality,is_subdivided_star")


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def report_csv_lines(report: SearchReport) -> list[str]:
    lines = [CSV_HEADER]
    for row in report.rows or ():
        lines.append(",".join([
            str(row.order), row.code, str(row.gamma), str(row.mds_count),
            str(row.alpha), str(row.mis_count), _fmt_bool(row.mds_bound_ok),
            _fmt_bool(row.mis_bound_ok), _fmt_bool(row.mis_equality),
            _fmt_bool(row.is_subdivided_star),
        ]))
    return lines


def report_text(report: SearchReport) -> str:
    lines = [
        "search report",
        f"orders: {report.min_order}..{report.max_order}",
        f"trees processed: {report.trees_processed}",
        "checks: mds-bound, mis-bound, order-bound, diagnostics",
        f"mds bound violations: {len(report.mds_bound_violations)}",
    ]
    lines.extend(f"  {code} {detail}" for code, detail in report.mds_bound_violations)
    lines.append(f"mis bound violations: {len(report.mis_bound_violations)}")
    lines.extend(f"  {code} {detail}" for code, detail in report.mis_bound_violations)
    lines.append(f"order bound violations: {len(report.order_bound_violations)}")
    lines.extend(f"  {code} {detail}" for code, detail in report.order_bound_violations)
    lines.append("per-gamma records:")
    for gamma, record in report.gamma_records.items():
        suffix = ""
        if record.best_count > (1 << gamma):
            suffix = f" exceeds 2^gamma={1 << gamma}"
        lines.append(f"  gamma={gamma} count={record.best_count} "
                     f"order={record.witness_order} code={record.witness.to_string()}{suffix}")
    lines.append("per-alpha records:")
    for alpha, record in report.alpha_records.items():
        lines.append(f"  alpha={alpha} count={record.best_count} "
                     f"order={record.witness_order} code={record.witness.to_string()}")
    lines.append(f"record diagnostics (within order <= {report.max_order}):")
    for gamma, diag in report.diagnostics.items():
        gap = "-" if diag.max_hub_gap is None else str(diag.max_hub_gap)
        lines.append(f"  gamma={gamma}: endvertices_covered={_fmt_bool(diag.endvertices_covered)} "
                     f"max_hub_gap={gap}")
    return "\n".join(lines) + "\n"
