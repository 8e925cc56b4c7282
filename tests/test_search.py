import gc
import hashlib
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from domcount import search
from domcount.domination import (
    _mds_containing,
    _mds_merge,
    _pick_min,
    count_min_dominating_sets,
    enumerate_min_dominating_sets,
)
from domcount.family import build_family_tree
from domcount.forest import classify_vertices, path, spider, star
from domcount.independence import (
    SpiderShape,
    _mis_merge,
    _pick_max,
    count_max_independent_sets,
    is_subdivided_star,
)
from domcount.search import (
    DiagnosticsReport,
    HubConfiguration,
    _Memo,
    _Partial,
    _read_rows,
    _Sweeper,
    compute_growth_base,
    extremal_diagnostics,
    mis_order_bound,
    report_csv_lines,
    report_text,
    search_extremal,
    verify_mds_bound,
    verify_mis_bound,
)
from domcount.treegen import CanonicalCode, _first_subtree_end, block_starts, canonical_code, generate_trees
from oracles import forest_tree_rows, mds_table, mis_table
from strategies import random_tree, relabeled


def cubic(x):
    return x**3 - x**2 - 4 * x + 1


def test_cubic_bracket_endpoints():
    assert cubic(Fraction(2)) == -3
    assert cubic(Fraction(3)) == 7


def test_growth_base_bracket():
    bracket = compute_growth_base(Fraction(1, 10000))
    assert Fraction(2) < bracket.lo <= bracket.hi < Fraction(3)
    assert bracket.hi - bracket.lo <= Fraction(1, 10000)
    assert cubic(bracket.lo) <= 0 <= cubic(bracket.hi)
    # The root sits just below the four-decimal constant used in the bound:
    # the bracket certifies root < 2.4606, so the exact integer check is
    # strictly safe.
    assert bracket.hi < Fraction(24606, 10000)
    assert abs(bracket.lo - Fraction(24606, 10000)) < Fraction(2, 10000)


def test_growth_base_width_validation():
    with pytest.raises(ValueError):
        compute_growth_base(0)


def test_support_rate_bracket():
    bracket = compute_growth_base(Fraction(1, 10**8))
    lo, hi = bracket.support_rate_bracket()
    assert lo <= hi
    # rate = base/(base-1), close to the displayed 1.6847
    assert Fraction(16846, 10000) < lo <= hi < Fraction(16848, 10000)


def test_mds_bound_examples():
    assert verify_mds_bound(4, 18)
    assert verify_mds_bound(1, 2)
    assert not verify_mds_bound(4, 40)
    edge = 24606**4 // 10000**4
    assert verify_mds_bound(4, edge)
    assert not verify_mds_bound(4, edge + 1)
    # No integer count meets 2.4606^gamma exactly; a rational one pins
    # that the bound itself passes.
    assert verify_mds_bound(3, Fraction(24606, 10000) ** 3)
    with pytest.raises(ValueError):
        verify_mds_bound(0, 1)


def test_mis_bound_examples():
    check = verify_mis_bound(4, 9, SpiderShape(True, 3))
    assert check.passed and check.equality and check.consistent
    check = verify_mis_bound(3, 1, SpiderShape(False, None))
    assert check.passed and not check.equality and check.consistent
    check = verify_mis_bound(1, 2, SpiderShape(True, 0))
    assert check.passed and check.equality and check.consistent
    check = verify_mis_bound(4, 9, SpiderShape(False, None))
    assert check.passed and check.equality and not check.consistent
    assert not verify_mis_bound(3, 6, SpiderShape(False, None)).passed


def test_mis_order_bound_values():
    assert mis_order_bound(1) == 1
    assert mis_order_bound(2) == 2
    assert mis_order_bound(3) == 1
    assert mis_order_bound(4) == 3
    assert mis_order_bound(5) == 2
    assert mis_order_bound(8) == 9
    with pytest.raises(ValueError):
        mis_order_bound(0)


def test_diagnostics_spider(tstar):
    diag = extremal_diagnostics(tstar)
    assert diag.endvertices_covered
    assert diag.uncovered_endvertices == ()
    assert len(diag.configurations) == 1
    config = diag.configurations[0]
    assert config.at == 5 and config.parts == (2, 1) and config.gap == 1
    assert diag.max_hub_gap == 1


def test_diagnostics_balanced_family():
    forest = build_family_tree((3, 3, 3)).forest
    diag = extremal_diagnostics(forest)
    assert diag.max_hub_gap == 0
    assert any(c.parts == (3, 3, 3) for c in diag.configurations)


def test_diagnostics_unbalanced_family():
    forest = build_family_tree((4, 2)).forest
    assert extremal_diagnostics(forest).max_hub_gap == 2


def test_diagnostics_uncovered_endvertex():
    # The 3-path's only minimum dominating set is its center.
    diag = extremal_diagnostics(path(3))
    assert not diag.endvertices_covered
    assert diag.uncovered_endvertices == (0, 2)
    assert diag.max_hub_gap is None


def enumerated_uncovered(forest):
    """Endvertices in no minimum dominating set, read off the full list."""
    covered = frozenset().union(*enumerate_min_dominating_sets(forest))
    return tuple(sorted(classify_vertices(forest).endvertices - covered))


def test_diagnostics_coverage_matches_enumeration():
    # Every tree up to order 12, as decoded (rooted at its center) and
    # relabeled (rooted wherever vertex 0 lands, often at a leaf).
    rng = random.Random(28)
    for n in range(1, 13):
        for code in generate_trees(n):
            for forest in (code.decode(), relabeled(code.decode(), rng)):
                diag = extremal_diagnostics(forest)
                assert diag.uncovered_endvertices == enumerated_uncovered(forest), code
                assert diag.endvertices_covered == (not diag.uncovered_endvertices)


def test_diagnostics_above_the_enumeration_cap(monkeypatch):
    # The (4,4,4) family tree has order 28 and 14,896 minimum dominating
    # sets; the star's leaves and some spider legs lie in none.
    trees = [build_family_tree((4, 4, 4)).forest, star(27), spider(1, 1, 2, 2, 2, 3, 3, 3, 4, 5)]
    assert all(forest.n > 25 for forest in trees)
    reports = [extremal_diagnostics(forest) for forest in trees]
    assert reports[0] == DiagnosticsReport(endvertices_covered=True, uncovered_endvertices=(),
                                           configurations=(HubConfiguration(at=0, parts=(4, 4, 4)),))
    assert reports[1].uncovered_endvertices == tuple(range(1, 28))
    monkeypatch.setenv("DOMCOUNT_MAX_ORDER", "40")
    for forest, report in zip(trees, reports):
        assert report.uncovered_endvertices == enumerated_uncovered(forest)


def forced_fold_uncovered(forest):
    """Endvertices whose forced-in fold misses gamma, one fold each."""
    gamma = _mds_containing(forest, ())[0]
    return tuple(sorted(v for v in classify_vertices(forest).endvertices
                        if _mds_containing(forest, (v,))[0] > gamma))


def test_diagnostics_coverage_matches_forced_folds():
    rng = random.Random(14)
    trees = [build_family_tree((4, 4, 4)).forest]
    for n in range(1, 15):
        for code in generate_trees(n):
            trees += [code.decode(), relabeled(code.decode(), rng)]
    for forest in trees:
        assert extremal_diagnostics(forest).uncovered_endvertices == forced_fold_uncovered(forest)


def test_diagnostics_on_a_wide_star():
    # One fold covers all 4,000 leaves; a forced fold per leaf would be
    # quadratic in the order.
    assert extremal_diagnostics(star(4000)).uncovered_endvertices == tuple(range(1, 4001))


def test_diagnostics_requires_tree():
    from domcount.forest import disjoint_union
    with pytest.raises(ValueError):
        extremal_diagnostics(disjoint_union(path(2), path(2)))


def test_search_orders_1_to_9(tstar):
    report = search_extremal(1, 9)
    assert report.trees_processed == 95
    assert report.violation_count == 0
    record = report.gamma_records[4]
    assert record.best_count == 18
    assert record.witness_order == 9
    assert record.best_count > 2**4
    from domcount.treegen import canonical_code
    assert record.witness == canonical_code(tstar)
    text = report_text(report)
    assert "exceeds 2^gamma=16" in text
    assert "trees processed: 95" in text


def test_search_alpha_records_track_subdivided_stars():
    report = search_extremal(1, 10)
    for alpha in (2, 3, 4, 5):
        record = report.alpha_records[alpha]
        assert record.best_count == 2 ** (alpha - 1) + 1
        assert record.witness_order == 2 * alpha
        assert is_subdivided_star(record.witness.decode()).is_subdivided_star


def test_search_no_violations_up_to_12():
    report = search_extremal(1, 12)
    assert report.violation_count == 0
    assert report.diagnostics.keys() == report.gamma_records.keys()


def test_search_row_emission():
    report = search_extremal(4, 4, emit_rows=True)
    lines = report_csv_lines(report)
    assert lines[0].startswith("order,code,gamma")
    assert len(lines) == 3
    star_row = [line for line in lines if line.split(",")[9] == "true"]
    assert len(star_row) == 1  # only the 4-path is a subdivided star


def test_search_deterministic_across_workers():
    # Order 14 has 303 first-subtree blocks, so it spans several worker tasks.
    assert sum(1 for _ in block_starts(14)) == 303
    solo = search_extremal(1, 14, jobs=1, emit_rows=True)
    multi = search_extremal(1, 14, jobs=2, emit_rows=True)
    assert report_text(solo) == report_text(multi)
    assert report_csv_lines(solo) == report_csv_lines(multi)


def test_merge_is_independent_of_task_size(monkeypatch):
    # With one block per task, trees that tie on a record count fall in
    # different tasks; the merge keeps the first.  Rows as text, rows as
    # TreeRows and no rows give one report.
    texts, csvs = set(), set()
    for size in (1, 7, 64):
        monkeypatch.setattr(search, "_BLOCKS_PER_TASK", size)
        for jobs in (1, 2):
            chunks = []
            texts.add(report_text(search_extremal(1, 12, jobs=jobs, write=chunks.append)))
            csvs.add("".join(chunks))
            report = search_extremal(1, 12, jobs=jobs, emit_rows=True)
            texts.add(report_text(report))
            csvs.add("".join(line + "\n" for line in report_csv_lines(report)))
            texts.add(report_text(search_extremal(1, 12, jobs=jobs)))
    assert len(texts) == len(csvs) == 1


def cached_rests(sweeper, n):
    # The rests listed for order n, whose tables must be the ones the
    # sweeper holds.
    assert sweeper.n == n
    return [rest for chain in sweeper.rests.rests.values() for rest in chain]


def test_kernel_rows_match_forest_oracle():
    # The level-sequence kernel against one decoded Forest and the public
    # counters and recognizer per tree.  Each order runs from a fresh
    # sweeper, then again with every subtree and rest of the order memoised.
    for n in range(1, 17):
        expected = forest_tree_rows([code.levels for code in generate_trees(n)])
        sweeper = _Sweeper()
        for memos in ("cold", "warm"):
            rows = _read_rows(sweeper.task(block_starts(n), True).rows, {})
            assert rows == expected, (n, memos)
        cached_rests(sweeper, n)


def test_rest_memo_holds_one_order(monkeypatch):
    # A block of a new order drops the last order's rests, whose code
    # suffixes name positions after a first subtree of another size.  Each
    # of an order's rests is built once, none is carried over from another
    # order, and every rest still listed belongs to the order.
    built = []
    entry = search._entry

    def counting_entry(memo, names, star, rest, m):
        built.append(rest)
        return entry(memo, names, star, rest, m)

    monkeypatch.setattr(search, "_entry", counting_entry)
    sweeper = _Sweeper()
    for n in (7, 8, 7, 12):
        built.clear()
        sweeper.task(block_starts(n))
        levels = [code.levels for code in generate_trees(n)]
        rests = {seq[_first_subtree_end(seq):] for seq in levels}
        assert sorted(built) == sorted(rests), n
        assert set(cached_rests(sweeper, n)) <= rests, n


def test_records_match_tables_on_every_subtree():
    # Every vertex's subtree slice in every tree of orders 1..14, against
    # the root records of the flat folds over the slice shifted to level 0.
    records = _Memo().records
    for n in range(1, 15):
        for code in generate_trees(n):
            levels = code.levels
            for i, level in enumerate(levels):
                end = next((j for j in range(i + 1, n) if levels[j] <= level), n)
                sub = levels[i:end]
                parent = [-1, *CanonicalCode(tuple(x - level for x in sub)).parents()]
                assert records(sub) == (mds_table(parent)[0], mis_table(parent)[0]), (code, i)


def test_sweep_releases_the_subtree_memo(monkeypatch):
    # Each sweep in this process fills a sweeper of its own: its subtree
    # memo, rest list and verdict table.  No sweeper outlives its sweep:
    # with the cyclic collector off it is freed as the sweep returns, and
    # after a raising check once the traceback's frames are collected.  The
    # workers' sweeper stays unset here.
    sweepers, filled = [], []
    task = _Sweeper.task

    def watched_task(self, starts, rows=False):
        if not any(ref() is self for ref in sweepers):
            sweepers.append(weakref.ref(self))
        try:
            return task(self, starts, rows)
        finally:
            filled.append((len(sweepers), len(self.memo),
                           sum(map(len, self.rests.items.values())), len(self.verdicts)))

    def failing_check(gamma, count):
        if gamma == 4:
            raise RuntimeError("check failed")
        return verify_mds_bound(gamma, count)

    monkeypatch.setattr(_Sweeper, "task", watched_task)
    collecting = gc.isenabled()
    gc.disable()
    try:
        search_extremal(1, 10)
        assert len(sweepers) == 1 and sweepers[0]() is None
    finally:
        if collecting:
            gc.enable()
    monkeypatch.setattr(search, "verify_mds_bound", failing_check)
    with pytest.raises(RuntimeError, match="check failed"):
        search_extremal(1, 10)
    gc.collect()
    assert len(sweepers) == 2 and sweepers[1]() is None
    for sweep in (1, 2):
        subtrees, entries, verdicts = [fill[1:] for fill in filled if fill[0] == sweep][-1]
        assert subtrees > 0 and entries > 0 and verdicts > 0, sweep
    assert search._worker is None


def test_kernel_matches_counters_on_random_trees():
    # The kernel's per-tree path (rest entry with its star flag, one merge
    # per counter with the first subtree, verdict table, code prefix and
    # suffix) on one tree at a time, against the public counters and
    # recognizer on the labelled tree.
    rng = random.Random(20180)
    stars = 0
    sweeper = _Sweeper()
    for _ in range(3000):
        forest = random_tree(rng)
        levels = canonical_code(forest).levels
        dom = count_min_dominating_sets(forest)
        ind = count_max_independent_sets(forest)
        m = _first_subtree_end(levels)
        sweeper.order(len(levels))
        entry = sweeper.entry(levels[m:], m)
        part = _Partial(rows=[])
        sweeper.fold_run(part, levels, m, [entry])
        (row,) = _read_rows("".join(part.rows), {})
        assert row == forest_tree_rows([levels])[0]
        assert row[2:6] == (dom.gamma, dom.mds_count, ind.alpha, ind.mis_count)
        shape = is_subdivided_star(forest)
        assert row.is_subdivided_star == shape.is_subdivided_star
        stars += shape.is_subdivided_star
    assert stars >= 50


# The kernel's fold as defined, which a test patches on the class.
FOLD_RUN = _Sweeper.fold_run


def kernel_picks(sweeper, start, m, run):
    # (gamma, MDS count, alpha, MIS count) of each tree of the run, as the
    # kernel's inline root pick gives them, read from its rows.
    part = _Partial(rows=[])
    FOLD_RUN(sweeper, part, start, m, run)
    return [tuple(map(int, line.split(",")[2:6])) for line in part.rows]


def merged_picks(sweeper, start, m, run):
    # The same from the full merges of each rest's records with the first
    # subtree's, picked as the counters pick a root.
    first = sweeper.memo[start[1:m]] if m > 1 else None
    picks = []
    for rest_mds, rest_mis, _, _ in run:
        mds = _mds_merge(rest_mds, first[0]) if first else rest_mds
        mis = _mis_merge(rest_mis, first[1]) if first else rest_mis
        picks.append((*_pick_min(*mds[:4]), *_pick_max(*mis)))
    return picks


def test_lifted_root_pick_matches_the_merges(monkeypatch):
    # The kernel picks each tree's root from the lifted first subtree
    # without merging; the counters, the enumerators and the subtree memo
    # still merge.  Both must agree on every (rest, first subtree) pair the
    # sweep meets at orders 1..14, on pairs cut from random trees and on
    # the single vertex, whose root has no first subtree.
    runs = []

    def checked_fold_run(self, part, start, m, run):
        runs.append(len(run))
        assert kernel_picks(self, start, m, run) == merged_picks(self, start, m, run), start
        FOLD_RUN(self, part, start, m, run)

    monkeypatch.setattr(_Sweeper, "fold_run", checked_fold_run)
    assert search_extremal(1, 14).trees_processed == sum(runs)
    assert len(runs) == sum(1 for n in range(1, 15) for _ in block_starts(n))

    rng = random.Random(26)
    previous = (0,)
    sweeper = _Sweeper()
    sweeper.order(1)
    assert kernel_picks(sweeper, (0,), 1, [sweeper.entry((), 1)]) == [(1, 1, 1, 1)]
    for _ in range(3000):
        levels = canonical_code(random_tree(rng)).levels
        # The tree's own split, and the previous tree hung below its
        # root as the first subtree: larger than the rest, or not.
        m = _first_subtree_end(levels)
        cross = (0, *(x + 1 for x in previous), *levels[1:])
        for start, m in ((levels, m), (cross, len(previous) + 1)):
            sweeper.order(len(start))
            run = [sweeper.entry(start[m:], m)]
            assert kernel_picks(sweeper, start, m, run) == merged_picks(sweeper, start, m, run), start
        previous = levels


FORKS = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                           reason="workers see the patched check only when forked")
FORKED_JOBS = [1, pytest.param(2, marks=FORKS)]


@pytest.mark.parametrize("jobs", FORKED_JOBS)
def test_every_failing_tree_is_reported(monkeypatch, jobs):
    # Trees share verdicts by their counts; a check that fails every tree
    # still reports every tree, once, in stream order.
    monkeypatch.setattr(search, "verify_mds_bound", lambda gamma, count: False)
    report = search_extremal(1, 10, jobs=jobs)
    codes = [code.to_string() for n in range(1, 11) for code in generate_trees(n)]
    assert report.trees_processed == len(codes) == 201
    assert [code for code, _ in report.mds_bound_violations] == codes
    assert not report.mis_bound_violations and not report.order_bound_violations


# One check forced to fail per case.  The digests are sha256 of the report
# text and of the CSV lines of 1..10, recorded when each failing tree's
# texts were still built per tree; the last violation is spelled out.
@pytest.mark.parametrize("name, fake, kind, count, last, text_sha, csv_sha", [
    ("verify_mds_bound", lambda gamma, count: False, "mds", 201,
     ("c 10 0 0 0 0 0 0 0 0 0", "gamma=1 count=1 exceeds 2.4606^gamma"),
     "bb736314966f95856967e21a03f5bf207b482590866fc0cf00d6678e65bafda4",
     "7861d743cfa6cd5b9b241ab081f5b2ab6cf8b0c8f74151b177ec6782425195f3"),
    ("mis_order_bound", lambda n: 0, "order", 201,
     ("c 10 0 0 0 0 0 0 0 0 0", "order=10 count=1 exceeds order bound 0"),
     "ccddecfe66f6f74e945d3864787499c3bd049a1db65bf5998f1727bb9b8cd17e",
     "45cef00c705ce93f08e1489e009753a532b522c9a5acfca065ba47395b363c7b"),
    # The subdivided stars exceed 2^(alpha-1); other trees meet it.
    ("_mis_alpha_bound", lambda alpha: 1 << (alpha - 1), "mis", 8,
     ("c 10 0 1 0 3 0 5 0 7 0", "alpha=5 count=17 exceeds 2^(alpha-1)+1"),
     "724a5bceec9da760a3814927f41b10cbacbf3b33e67be54dc8e0b38d47242baa",
     "4fd3c3cc950754d1b487f8254fe095d34f1e302ef71ee315ea21212ddf617aa3"),
    # Equality with 2^alpha disagrees with the recognizer.
    ("_mis_alpha_bound", lambda alpha: 1 << alpha, "mis", 4,
     ("c 10 0 1 0 3 0 5 0 7 0", "alpha=5 count=17 equality=False recognizer=True"),
     "b627f261a7e427874f5f35774c42be58027986eef30afb7fa171d68b6788f573",
     "e6c7ca8831a1214285c3baf7bac79e435e6f6a174af314f6c63024f13c0bb488"),
])
@pytest.mark.parametrize("jobs", FORKED_JOBS)
def test_violation_texts_are_pinned(monkeypatch, name, fake, kind, count, last, text_sha, csv_sha, jobs):
    monkeypatch.setattr(search, name, fake)
    report = search_extremal(1, 10, jobs=jobs, emit_rows=True)
    found = {"mds": report.mds_bound_violations, "mis": report.mis_bound_violations,
             "order": report.order_bound_violations}
    assert {key: len(violations) for key, violations in found.items() if violations} == {kind: count}
    assert found[kind][-1] == last
    assert hashlib.sha256(report_text(report).encode()).hexdigest() == text_sha
    csv = "".join(line + "\n" for line in report_csv_lines(report))
    assert hashlib.sha256(csv.encode()).hexdigest() == csv_sha


def test_spawned_workers_give_the_same_bytes(monkeypatch):
    # Where the platform cannot fork, workers are spawned: they import the
    # package afresh and share no table or memo with this process.
    def run(jobs):
        chunks = []
        return report_text(search_extremal(1, 10, jobs=jobs, write=chunks.append)), "".join(chunks)

    solo = run(1)
    contexts = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None: contexts.append(method) or get_context(method))
    assert run(2) == solo
    assert contexts == ["spawn"]
    assert solo[1].count("\n") == 202


@FORKS
def test_a_failing_sweep_stops_its_workers(monkeypatch):
    # A write that fails, as into a closed pipe, and a check that raises in
    # a worker: each error reaches the caller with its type, the tasks not
    # yet taken are dropped and no worker, nor the sweeper it built entries
    # and verdicts in, outlives the sweep.  This process makes no sweeper
    # and leaves the workers' sweeper unset.
    monkeypatch.setattr(search, "_BLOCKS_PER_TASK", 1)
    made = []
    init = _Sweeper.__init__
    monkeypatch.setattr(_Sweeper, "__init__", lambda self: made.append(weakref.ref(self)) or init(self))
    writes = []

    def failing_write(text):
        writes.append(text)
        if len(writes) == 2:
            raise BrokenPipeError("closed")

    def failing_check(gamma, count):
        # The first tree with gamma 4 is the sixth of order 8, in the third
        # of the order's blocks; the trees before it in its block have
        # their verdicts in the worker's sweeper.
        if gamma == 4:
            sweeper = search._worker
            memo = len(sweeper.memo)
            entries = sum(map(len, sweeper.rests.items.values()))
            raise RuntimeError(f"check failed at order {sweeper.n}: {memo} subtrees, "
                               f"{entries} entries, {len(sweeper.verdicts)} verdicts")
        return verify_mds_bound(gamma, count)

    with pytest.raises(BrokenPipeError):
        search_extremal(1, 14, jobs=2, write=failing_write)
    assert len(writes) == 2
    monkeypatch.setattr(search, "verify_mds_bound", failing_check)
    with pytest.raises(RuntimeError, match=r"check failed at order 8: [1-9]\d* subtrees, [1-9]\d* entries, "
                                           r"[1-9]\d* verdicts"):
        search_extremal(1, 14, jobs=2)
    assert multiprocessing.active_children() == []
    assert made == [] and search._worker is None


def test_workers_run_at_most_a_window_ahead(monkeypatch):
    # Behind a slow writer, tasks are submitted only as their results are
    # consumed: never more than the window of tasks per worker is
    # submitted and not yet written.
    from concurrent.futures import ProcessPoolExecutor

    submitted, written, ahead = [0], [-1], []  # the header is no task
    submit = ProcessPoolExecutor.submit

    def counting_submit(self, *args, **kwargs):
        submitted[0] += 1
        ahead.append(submitted[0] - written[0])
        return submit(self, *args, **kwargs)

    def slow_write(text):
        time.sleep(0.001)
        written[0] += 1

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
    monkeypatch.setattr(search, "_BLOCKS_PER_TASK", 1)
    search_extremal(1, 12, jobs=2, write=slow_write)
    assert submitted[0] == written[0] == sum(1 for n in range(1, 13) for _ in block_starts(n))
    assert max(ahead) == min(2, os.cpu_count() or 1) * search._TASKS_PER_WORKER


def test_jobs_above_the_cpu_count_start_one_worker_per_cpu(monkeypatch):
    # The pool starts all its workers at its first task, so a huge jobs
    # value must not size it.  The fake pool records its size and refuses
    # to run, so no process is started.
    import concurrent.futures
    sizes = []

    class RefusingPool:
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            raise RuntimeError("no pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RefusingPool)
    with pytest.raises(RuntimeError, match="no pool"):
        search_extremal(1, 5, jobs=100_000)
    assert sizes == [min(100_000, os.cpu_count() or 1)]
    assert multiprocessing.active_children() == []


def test_sweeps_in_threads_share_no_state():
    # Three sweeps run at once in threads of one process, switching threads
    # every 10 us: each gives the report, and the rows when it keeps them,
    # of a sweep run alone.
    chunks = []
    text = report_text(search_extremal(1, 14, write=chunks.append))
    csv = "".join(chunks)
    results = {}

    def written():
        chunks = []
        results["write"] = report_text(search_extremal(1, 14, write=chunks.append)), "".join(chunks)

    def listed():
        report = search_extremal(1, 14, emit_rows=True)
        results["rows"] = report_text(report), "".join(line + "\n" for line in report_csv_lines(report))

    def plain():
        results["plain"] = report_text(search_extremal(1, 14))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sweep) for sweep in (written, listed, plain)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {"write": (text, csv), "rows": (text, csv), "plain": text}


def test_importing_the_cli_loads_no_process_pool():
    # The process pools load only when a sweep runs with several jobs, so
    # they add nothing to the start-up of any other command.
    code = ("import sys, domcount.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_each_even_order_has_one_subdivided_star_row():
    chunks = []
    search_extremal(1, 16, write=chunks.append)
    stars = [line.split(",")[:2] for line in "".join(chunks).splitlines()[1:] if line.endswith(",true")]
    expected = []
    for n in range(4, 17, 2):
        code = CanonicalCode((0,) + (1, 2) * ((n - 2) // 2) + (1,))
        expected.append([str(n), code.to_string()])
    assert stars[1:] == expected  # after the path on 2 vertices


def test_search_parameter_validation():
    with pytest.raises(ValueError):
        search_extremal(0, 5)
    with pytest.raises(ValueError):
        search_extremal(5, 4)
    with pytest.raises(ValueError):
        search_extremal(1, 99)
    with pytest.raises(ValueError):
        search_extremal(1, 5, jobs=0)
    written = []
    with pytest.raises(ValueError):
        search_extremal(1, 5, emit_rows=True, write=written.append)
    assert written == []


def test_search_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("DOMCOUNT_MAX_ORDER", "8")
    with pytest.raises(ValueError):
        search_extremal(1, 9)
    assert search_extremal(1, 8).trees_processed == 48


def test_search_records_agree_with_direct_sweep():
    # Each record's witness is the first tree, in generation order, that
    # reaches the record count.
    from domcount.domination import count_min_dominating_sets
    from domcount.independence import count_max_independent_sets
    for min_order in (1, 3):
        report = search_extremal(min_order, 10)
        gamma_best, alpha_best = {}, {}
        for n in range(min_order, 11):
            for code in generate_trees(n):
                forest = code.decode()
                dom = count_min_dominating_sets(forest)
                ind = count_max_independent_sets(forest)
                for best, key, count in ((gamma_best, dom.gamma, dom.mds_count),
                                         (alpha_best, ind.alpha, ind.mis_count)):
                    if key not in best or count > best[key][0]:
                        best[key] = (count, code, n)
        for records, best in ((report.gamma_records, gamma_best), (report.alpha_records, alpha_best)):
            assert {k: (r.best_count, r.witness, r.witness_order) for k, r in records.items()} == best
