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
(``treegen.block_starts``) and cuts the block starts of all orders into
tasks of _BLOCKS_PER_TASK starts.  A worker folds every tree of each
block straight into its task's partial; no ``Forest`` and no level
sequence is built per tree, and only the per-gamma record witnesses are
decoded, for their diagnostics.  A subtree's (MDS, MIS) root records come
from one recursion over slices of the sequence: its children are the
entries one level below its first, each child's slice is looked up in a
per-process memo of its records, and the records are merged with the
counters' own ``_mds_merge`` and ``_mis_merge``.

Every tree of a block shares the root's first subtree, so its records
are lifted once per block to what a parent's merge reads of them
(``_mds_lift``, ``_mis_lift``), and the code string's prefix, ``c n``
and the parents of the first subtree, is built once per block.  Only the
rest of the tree changes.  Each order has one ``treegen.RestList``, the
same block driver ``generate_trees`` uses: ``run(start)`` finds the
block's first subtree and gives its rests as one run of the list for
their size, which starts at the latest block's first rest.  Each listed
rest carries its entry (``_rest_entry``): the root's record over the
rest's children, the rest's part of the code string and its star flag.
The same rests recur across the blocks of an order: 2,677 rests serve
the 19,320 trees (1,230 blocks) of order 16, 11,883 the 123,867 of order
18 and 55,879 the 823,065 of order 20, each built at most once per
worker, and at most 25,164 of order 20's are listed at a time.  A tree
then costs its root's pick, written out in ``_fold_run``: the least of
three (size, count) candidates for gamma and the larger of two for
alpha, counts adding on ties, read from its rest's root record and the
lifted first subtree.  That is the counters' pick of the root's record
with the first subtree merged last, without building the record; the
merged result does not depend on the order children are merged in.  Then
one lookup in the order's verdict table.

The verdict table maps a tree's (gamma, MDS count, alpha, MIS count, star
flag) to its CSV fields after the code and the texts of the checks it
fails, computed once per key with the same calls as for a single tree:
1,667 keys serve order 16, 5,058 order 18 and 15,174 order 20.  The flag
marks the order's subdivided star, whose recognizer verdict differs from
every other tree's with its counts.  Its rest alone identifies it, as its
first subtree (1, 2) is the only one of two vertices, so the rest's entry
carries the flag.  Only one order's rest list and verdicts are kept at a
time, and they are dropped after the sweep.

A task's partial holds its tree count, per gamma and per alpha the first
of its trees to reach the task's best count, and its violations in
order.  A tree's code string is built only when it sets a task record,
fails a check or is emitted as a row.  With several jobs the tasks go to
a process pool in stream order, at most _TASKS_PER_WORKER per worker
submitted and not yet consumed, so a slow writer of the rows holds the
workers back instead of letting their results pile up in the parent.  On
an error the tasks no worker has taken are dropped and the workers exit
before the error reaches the caller.  The parent merges the partials in
task order, which is stream order: orders ascend, blocks follow the
generator, and codes strictly increase within an order.  It replaces a
record only on a strictly larger count, so the first tree to reach a
record count is the tie-break winner whatever the worker count and task
size, and the report is identical for every ``jobs`` value.  Rows, when
wanted, come back with their task as one CSV text, which the caller
writes as it arrives, so the parent never holds every row; ``TreeRow``
tuples are read back from that text in the parent, never built by a
worker.
"""

from __future__ import annotations

import collections
import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .domination import MDS_LEAF, _mds_lift, _mds_members, _mds_merge
from .forest import Forest, classify_vertices, pendant_bundles
from .independence import MIS_LEAF, NOT_SUBDIVIDED_STAR, SpiderShape, _mis_lift, _mis_merge
from .limits import search_max_order
from .treegen import CanonicalCode, RestList, _parent_names, block_starts

# The sweep does not call these, but perfbench's traced run patches them by
# name on this module (``SEARCH_SPANS``), so they stay importable from here.
from .domination import count_min_dominating_sets  # noqa: F401
from .independence import count_max_independent_sets, is_subdivided_star  # noqa: F401
from .treegen import generate_trees  # noqa: F401

# 2.4606 as an exact rational: the bound's base, truncated to the four
# decimals used in the statement being checked.
_BOUND_NUMERATOR = 24606
_BOUND_DENOMINATOR = 10000

# First-subtree blocks per task.  Tasks may span orders; order 16 has 1,230
# blocks, none with over 3 % of its trees.
_BLOCKS_PER_TASK = 64

# Tasks per worker submitted and not yet consumed: few enough that finished
# tasks' rows do not pile up in the parent behind a slow writer, enough
# that a worker seldom waits while the oldest task, which may hold 100
# times the trees of the next ones, is still running.  With 3, two workers
# idled about a sixth of a 1..20 sweep.
_TASKS_PER_WORKER = 8


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
    """count <= 2.4606^gamma, checked exactly over the integers as
    count * 10000^gamma <= 24606^gamma.  The sweep calls it once per
    verdict key, not per tree (``_verdict``)."""
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
    bound = _mis_alpha_bound(alpha)
    equality = count == bound
    return MisBoundCheck(count <= bound, equality, equality == shape.is_subdivided_star)


def _mis_alpha_bound(alpha: int) -> int:
    """2^(alpha-1)+1, the ceiling that ``verify_mis_bound`` checks."""
    if alpha < 1:
        raise ValueError(f"alpha must be at least 1, got {alpha}")
    return (1 << (alpha - 1)) + 1


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
    set, read off one fold that carries the endvertices of each state's
    optimal sets; (2) wherever two or more neighbors of a common vertex hang whole
    bundles of pendant 2-paths, the bundle sizes should differ by at most
    one.  Both are reported, never enforced.
    """
    if forest.component_count != 1:
        raise ValueError("diagnostics expect a single tree component")
    endvertices = classify_vertices(forest).endvertices
    covered = _mds_members(forest, endvertices)
    uncovered = tuple(sorted(v for v in endvertices if not covered >> v & 1))
    configurations = [HubConfiguration(at=x, parts=tuple(sorted(bundles.values(), reverse=True)))
                      for x, bundles in pendant_bundles(forest).items() if len(bundles) >= 2]
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


class TreeRow(NamedTuple):
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


def _records(sub: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The (MDS, MIS) root records of the subtree whose slice of a level
    sequence is ``sub``.  Its children are the entries one level below
    ``sub[0]``; their records come from ``_subtree_record`` and are merged
    with the counters' own ``_mds_merge`` and ``_mis_merge``."""
    mds, mis = MDS_LEAF, MIS_LEAF
    level = sub[0] + 1
    s = 1
    children = sub.count(level)
    while children:
        children -= 1
        e = sub.index(level, s + 1) if children else len(sub)
        child_mds, child_mis = _subtree_record(sub[s:e])
        s = e
        mds = _mds_merge(mds, child_mds)
        mis = _mis_merge(mis, child_mis)
    return mds, mis


# Per-process memo of ``_records`` by slice, levels as they stand in their
# tree, so a subtree at two depths has two entries: 1,656 cover all of
# orders 1..16, 7,029 all of orders 1..18.  Cleared after each sweep.
_subtree_record = functools.cache(_records)


class _Order(NamedTuple):
    """One order's per-process tables, built when a block of the order
    arrives (``_tables``)."""
    names: tuple[str, ...]  # each after a space
    rests: RestList
    verdicts: dict[tuple[int, int, int, int, bool], tuple]
    star: tuple[int, ...] | None  # the subdivided star's rest


# Per-process tables of one order at a time; no entry carries over to
# another order, and the cache is cleared after each sweep.
@functools.lru_cache(maxsize=1)
def _tables(n: int) -> _Order:
    """Order n's vertex names, its rest list (items are ``_rest_entry``),
    its verdicts by (gamma, MDS count, alpha, MIS count, star flag)
    (``_verdict``) and its subdivided star's rest."""
    star = None
    if n % 2 == 0:
        # is_subdivided_star on canonical levels: at order 2k+2 the only
        # accepted code is (0,) + (1, 2)*k + (1,), whose first subtree
        # (1, 2) ends at position 3; at order 2 the rest is empty.
        star = ((0,) + (1, 2) * ((n - 2) // 2) + (1,))[3:]
    return _Order(tuple(" " + str(i) for i in range(n)), RestList(_rest_entry), {}, star)


def _rest_entry(rest: tuple[int, ...], m: int) -> tuple:
    """The root's (MDS, MIS) records over the children in ``rest``, the
    code string's parents of the rest, and its star flag: whether it is
    the order's subdivided star's rest.  The rest follows a first subtree
    that ends at position m, so its tree has order m + len(rest), whose
    ``_tables`` give the positions' names and the star's rest."""
    sub = (0, *rest)
    mds, mis = _records(sub)
    names, _, _, star = _tables(m + len(rest))
    # Position j of sub is the root for j = 0, else position m + j - 1.
    return mds, mis, "".join(_parent_names(sub, (names[0], *names[m:]))), rest == star


# The recognizer's verdict as ``verify_mis_bound`` reads it, by star flag.
_STAR_SHAPES = (NOT_SUBDIVIDED_STAR, SpiderShape(True))


def _verdict(n: int, gamma: int, mds_count: int, alpha: int, mis_count: int, is_star: bool) -> tuple:
    """A tree's CSV fields after its code (with the newline), and the checks
    it fails as (kind, detail), kind indexing ``_Partial.violations``; the
    same for every tree of order n with these counts and star flag, which
    ``verify_mis_bound`` reads as the recognizer's verdict."""
    mds_ok = verify_mds_bound(gamma, mds_count)
    mis = verify_mis_bound(alpha, mis_count, _STAR_SHAPES[is_star])
    failures = []
    if not mds_ok:
        failures.append((0, f"gamma={gamma} count={mds_count} exceeds 2.4606^gamma"))
    if not mis.passed:
        failures.append((1, f"alpha={alpha} count={mis_count} exceeds 2^(alpha-1)+1"))
    elif not mis.consistent:
        failures.append((1, f"alpha={alpha} count={mis_count} equality={mis.equality} recognizer={is_star}"))
    if mis_count > (order_bound := mis_order_bound(n)):
        failures.append((2, f"order={n} count={mis_count} exceeds order bound {order_bound}"))
    tail = _csv_tail(gamma, mds_count, alpha, mis_count, mds_ok, mis.passed, mis.equality, is_star)
    return tail + "\n", tuple(failures)


# The lifts, as ``_fold_run`` reads them, of a root with no first subtree,
# the single vertex: its states pass through (size 0, count 1), and the MDS
# candidate that needs the first subtree in sigma0 counts no sets, at a
# size that is never below the root's own sigma0 size 1.
_MDS_ALONE = (0, 1, 0, 1, 1, 0)
_MIS_ALONE = (0, 1, 0, 1)


@dataclass
class _Partial:
    """One task's share of a sweep.  Per gamma and per alpha a record is
    (count, order, code) of the first tree to reach the task's best count.
    ``violations`` lists the MDS, MIS and order-bound violations, each as
    (code, detail) in stream order.  ``rows`` is the rows' CSV lines, then
    their text once the task ends, or None when no rows are wanted."""
    trees: int = 0
    gamma_best: dict[int, tuple[int, int, str]] = field(default_factory=dict)
    alpha_best: dict[int, tuple[int, int, str]] = field(default_factory=dict)
    violations: tuple[list[tuple[str, str]], ...] = field(default_factory=lambda: ([], [], []))
    rows: list[str] | str | None = None


def _fold_run(part: _Partial, start: tuple[int, ...], m: int, run) -> None:
    """Count and check the trees ``start[:m] + rest`` for the rests whose
    ``_rest_entry`` items are ``run``, and fold them into ``part`` in that
    order.  When ``part.rows`` is a list, each tree's CSV line and newline
    is appended to it.

    The first subtree's records are lifted once (``_mds_lift``,
    ``_mis_lift``) and the code prefix is built once.  A tree costs the
    root's pick of the join of its rest's root record with the lifted first
    subtree, written out: the least of three (size, count) candidates for
    gamma and the larger of two for alpha, counts adding on ties.  Then one
    lookup of its order's verdict for its counts and its rest's star flag
    and, only for a row, a new task record or a failed check, one string
    concatenation; the verdict holds the failed checks' texts.
    """
    n = len(start)
    order = _tables(n)
    verdicts = order.verdicts
    prefix = f"c {n}" + "".join(_parent_names(start[:m], order.names))
    if m > 1:
        first_mds, first_mis = _subtree_record(start[1:m])
        best, n_best, low, n_low, a0, n0 = _mds_lift(first_mds)[:6]
        b, n_b, top, n_top = _mis_lift(first_mis)
    else:
        best, n_best, low, n_low, a0, n0 = _MDS_ALONE
        b, n_b, top, n_top = _MIS_ALONE
    gamma_best, alpha_best, violations = part.gamma_best, part.alpha_best, part.violations
    append = part.rows.append if part.rows is not None else None
    lead = f"{n},{prefix}"
    for (z0, c0, z1, c1, z2, c2), (z_in, c_in, z_out, c_out), suffix, is_star in run:
        # The root in; dominated by a rest child; dominated by the first
        # subtree's root alone.  z1 is None only for an empty rest.
        gamma, mds_count = z0 + best, c0 * n_best
        if z1 is not None:
            z = z1 + low
            if z < gamma:
                gamma, mds_count = z, c1 * n_low
            elif z == gamma:
                mds_count += c1 * n_low
        if z2 is not None:
            z = z2 + a0
            if z < gamma:
                gamma, mds_count = z, c2 * n0
            elif z == gamma:
                mds_count += c2 * n0
        # The root in, with the first subtree's root out; the root out.
        alpha, mis_count = z_in + b, c_in * n_b
        z = z_out + top
        if z > alpha:
            alpha, mis_count = z, c_out * n_top
        elif z == alpha:
            mis_count += c_out * n_top
        key = (gamma, mds_count, alpha, mis_count, is_star)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = _verdict(n, *key)
        tail, failures = verdict
        if append:
            append(lead + suffix + tail)
        record = gamma_best.get(gamma)
        if record is None or mds_count > record[0]:
            gamma_best[gamma] = (mds_count, n, prefix + suffix)
        record = alpha_best.get(alpha)
        if record is None or mis_count > record[0]:
            alpha_best[alpha] = (mis_count, n, prefix + suffix)
        for kind, detail in failures:
            violations[kind].append((prefix + suffix, detail))
    part.trees += len(run)


def _sweep_task(starts, rows: bool = False) -> _Partial:
    """Count and check every tree of the blocks at ``starts``, in stream
    order, into one partial, with its rows as one CSV text if ``rows``.
    Each block's rests are the run its order's rest list gives, which in
    stream order builds each rest's entry once per process."""
    part = _Partial(rows=[] if rows else None)
    for start in starts:
        _fold_run(part, start, *_tables(len(start)).rests.run(start))
    if rows:
        part.rows = "".join(part.rows)
    return part


def _read_rows(text: str, tails: dict[str, tuple]) -> list[TreeRow]:
    """Each CSV line of ``text`` as a ``TreeRow``; ``tails`` keeps the fields
    of each tail after a code read so far, which trees share by verdict."""
    rows = []
    for order, code, tail in (line.split(",", 2) for line in text.splitlines()):
        if tail not in tails:
            values = tail.split(",")
            tails[tail] = (*map(int, values[:4]), *(value == "true" for value in values[4:]))
        rows.append(TreeRow(int(order), code, *tails[tail]))
    return rows


def _in_order(submit, tasks, window: int):
    """``submit(task).result()`` for each of ``tasks``, in task order, with
    at most ``window`` tasks submitted and not yet consumed: the next task
    is submitted only once the caller has consumed the oldest result and
    asks for the next one."""
    pending = collections.deque()
    for task in tasks:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(submit(task))
    while pending:
        yield pending.popleft().result()


def search_extremal(min_order: int, max_order: int, jobs: int = 1, emit_rows: bool = False,
                    write: Callable[[str], object] | None = None) -> SearchReport:
    """Sweep all free trees with min_order <= n <= max_order.

    Every tree gets the three bound checks, and every per-gamma record
    witness gets ``extremal_diagnostics``.  The stream of first-subtree
    blocks is cut into tasks of _BLOCKS_PER_TASK blocks; each task, run by
    a worker or in this process when ``jobs`` is 1, folds its trees into a
    partial, and this function merges the partials in task order, which is
    the generation stream's order.  The stream has ascending orders and
    strictly increasing codes within an order, and a task's record is the
    first of its trees to reach its best count, so replacing a record only
    on a strictly larger count breaks ties to the smaller order, then the
    smaller code.  The report is byte-for-byte identical for every ``jobs``
    value and every task size.

    Workers are forked where the platform can fork, else spawned, and get
    the next task as the oldest result is consumed, at most
    _TASKS_PER_WORKER per worker ahead.  A task returns its rows, when
    wanted, as CSV text.  With ``emit_rows``, ``report.rows`` lists every
    tree's ``TreeRow``, read back from that text.  With ``write``, the CSV header and then each task's text are
    passed to ``write`` in stream order once the arguments are checked, and
    no row is kept.
    """
    ceiling = search_max_order()
    if not 1 <= min_order <= max_order:
        raise ValueError(f"need 1 <= min_order <= max_order, got {min_order}..{max_order}")
    if max_order > ceiling:
        raise ValueError(f"max order {max_order} exceeds the search ceiling {ceiling}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if emit_rows and write is not None:
        raise ValueError("emit_rows and write are exclusive")

    trees = 0
    gamma_best: dict[int, tuple[int, int, str]] = {}
    alpha_best: dict[int, tuple[int, int, str]] = {}
    mds_violations, mis_violations, order_violations = violations = ([], [], [])
    rows: list[TreeRow] | None = [] if emit_rows else None
    tails: dict[str, tuple] = {}
    if write is not None:
        write(CSV_HEADER + "\n")
    task = functools.partial(_sweep_task, rows=emit_rows or write is not None)
    starts = (start for n in range(min_order, max_order + 1) for start in block_starts(n))
    tasks = iter(lambda: list(itertools.islice(starts, _BLOCKS_PER_TASK)), [])
    executor = None
    try:
        if jobs > 1:
            # Imported here, as together they add 14-23 ms to importing the package.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            executor = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context(method))
            parts = _in_order(functools.partial(executor.submit, task), tasks, _TASKS_PER_WORKER * jobs)
        else:
            parts = map(task, tasks)
        for part in parts:
            trees += part.trees
            for best, records in ((gamma_best, part.gamma_best), (alpha_best, part.alpha_best)):
                for key, record in records.items():
                    if key not in best or record[0] > best[key][0]:
                        best[key] = record
            for merged, found in zip(violations, part.violations):
                merged += found
            if write is not None:
                write(part.rows)
            elif emit_rows:
                rows += _read_rows(part.rows, tails)
    finally:
        if executor is not None:
            # After an error, drop the tasks no worker has taken and wait
            # for the workers to exit.
            executor.shutdown(cancel_futures=True)
        # Records are cheap to rebuild; do not keep them past the sweep.
        _subtree_record.cache_clear()
        _tables.cache_clear()

    gamma_records = {g: ExtremalRecord(g, count, CanonicalCode.from_string(code), order)
                     for g, (count, order, code) in sorted(gamma_best.items())}
    alpha_records = {a: ExtremalRecord(a, count, CanonicalCode.from_string(code), order)
                     for a, (count, order, code) in sorted(alpha_best.items())}
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


_BOOLS = ("false", "true")


def _csv_tail(gamma, mds_count, alpha, mis_count, mds_ok, mis_ok, equality, is_star) -> str:
    """The CSV fields of a row after its code, each after a comma."""
    return (f",{gamma},{mds_count},{alpha},{mis_count},{_BOOLS[mds_ok]},"
            f"{_BOOLS[mis_ok]},{_BOOLS[equality]},{_BOOLS[is_star]}")


def report_csv_lines(report: SearchReport) -> list[str]:
    return [CSV_HEADER, *(f"{row.order},{row.code}" + _csv_tail(*row[2:]) for row in report.rows or ())]


def report_text(report: SearchReport) -> str:
    lines = [
        "search report",
        f"orders: {report.min_order}..{report.max_order}",
        f"trees processed: {report.trees_processed}",
        "checks: mds-bound, mis-bound, order-bound, diagnostics",
    ]
    for label, violations in (("mds", report.mds_bound_violations), ("mis", report.mis_bound_violations),
                              ("order", report.order_bound_violations)):
        lines.append(f"{label} bound violations: {len(violations)}")
        lines.extend(f"  {code} {detail}" for code, detail in violations)
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
        lines.append(f"  gamma={gamma}: endvertices_covered={_BOOLS[diag.endvertices_covered]} "
                     f"max_hub_gap={gap}")
    return "\n".join(lines) + "\n"
