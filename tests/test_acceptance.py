"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and the measured runtimes.
"""

import time

import pytest

from oracles import iso_class_count
from domcount.domination import brute_force_domination, count_min_dominating_sets
from domcount.family import balanced_partition, build_family_tree, closed_form_count, optimize_k
from domcount.forest import disjoint_union, spider
from domcount.independence import brute_force_independence, count_max_independent_sets
from domcount.search import mis_order_bound, report_csv_lines, report_text, search_extremal
from domcount.treegen import generate_trees

TSTAR = spider(2, 2, 4)


@pytest.fixture(scope="module")
def sweep_14():
    """Shared full sweep to order 14, single-threaded, with wall time."""
    start = time.perf_counter()
    report = search_extremal(1, 14, jobs=1)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_01_spider_2_2_4_counts():
    result = count_min_dominating_sets(TSTAR)
    assert result.gamma == 4
    assert result.mds_count == 18
    best = min(_timed_run() for _ in range(25))
    assert best < 1e-3, f"counting took {best * 1e3:.3f} ms"
    print(f"PASS criterion 1: 2-2-4 spider -> (gamma=4, 18 sets), {best * 1e6:.0f} us per count")


def _timed_run():
    start = time.perf_counter()
    count_min_dominating_sets(TSTAR)
    return time.perf_counter() - start


def test_criterion_02_domination_oracle_equivalence_to_order_12():
    start = time.perf_counter()
    trees = 0
    for n in range(1, 13):
        per_order = 0
        for code in generate_trees(n):
            forest = code.decode()
            assert count_min_dominating_sets(forest) == brute_force_domination(forest)
            per_order += 1
        if n <= 9:
            # generation gate: class counts match the labeled-tree oracle
            assert per_order == iso_class_count(n)
        trees += per_order
    elapsed = time.perf_counter() - start
    assert trees == 987
    assert elapsed <= 60.0, f"took {elapsed:.1f} s"
    print(f"PASS criterion 2: domination DP == brute force on all {trees} trees "
          f"of order <= 12 in {elapsed:.1f} s")


def test_criterion_03_independence_oracle_equivalence_to_order_12():
    start = time.perf_counter()
    trees = 0
    for n in range(1, 13):
        for code in generate_trees(n):
            forest = code.decode()
            assert count_max_independent_sets(forest) == brute_force_independence(forest)
            trees += 1
    elapsed = time.perf_counter() - start
    assert trees == 987
    assert elapsed <= 60.0, f"took {elapsed:.1f} s"
    print(f"PASS criterion 3: independence DP == brute force on all {trees} trees "
          f"of order <= 12 in {elapsed:.1f} s")


def test_criterion_04_mds_bound_sweep_to_order_14(sweep_14):
    report, elapsed = sweep_14
    assert report.mds_bound_violations == []
    assert report.trees_processed == 5447
    assert elapsed <= 600.0, f"single-threaded sweep took {elapsed:.1f} s"
    start = time.perf_counter()
    parallel = search_extremal(1, 14, jobs=2)
    elapsed_multi = time.perf_counter() - start
    assert parallel.mds_bound_violations == []
    print(f"PASS criterion 4: zero MDS-bound violations over {report.trees_processed} trees "
          f"of order <= 14; {elapsed:.1f} s on 1 worker, {elapsed_multi:.1f} s on 2 workers "
          f"(speedup x{elapsed / elapsed_multi:.2f})")


def test_criterion_05_mis_bound_and_equality_sweep_to_order_14(sweep_14):
    report, _ = sweep_14
    # the violations list also carries equality/recognizer mismatches
    assert report.mis_bound_violations == []
    print("PASS criterion 5: zero MIS-bound violations and zero "
          "equality/recognizer mismatches over all trees of order <= 14")


def test_criterion_06_forest_of_spider_copies():
    for m in range(1, 6):
        forest = disjoint_union(*([TSTAR] * m))
        result = count_min_dominating_sets(forest)
        assert result.gamma == 4 * m
        assert result.mds_count == 18**m
    print("PASS criterion 6: m disjoint 2-2-4 spiders count 18^m exactly for m <= 5")


def test_criterion_07_closed_form_equals_dp():
    checked = 0
    for gamma in range(2, 11):
        for k in range(1, gamma):
            tree = build_family_tree(balanced_partition(gamma, k))
            result = count_min_dominating_sets(tree.forest)
            assert result.gamma == gamma
            assert result.mds_count == closed_form_count(gamma, k)
            checked += 1
    print(f"PASS criterion 7: closed form == DP count on {checked} balanced family trees "
          f"(gamma <= 10, all k)")


def _leading_digits(value: int, digits: int = 4) -> tuple[str, int]:
    text = str(value)
    return text[:digits], len(text)


def test_criterion_08_table_reproduction():
    expectations = {
        10: (3, ("1176", 4)),
        50: (9, ("4160", 16)),
        100: (16, ("8187", 31)),
        500: (56, ("8152", 152)),
    }
    for gamma, (best_k, (lead, ndigits)) in expectations.items():
        row = optimize_k(gamma)
        assert row.best_k == best_k
        got_lead, got_digits = _leading_digits(row.table_interpretation_value)
        assert (got_lead, got_digits) == (lead, ndigits), (
            f"gamma={gamma}: table value {row.table_interpretation_value}")
    row10 = optimize_k(10)
    assert row10.formula_value == 1688
    assert row10.table_interpretation_value == 1176
    tree = build_family_tree(balanced_partition(10, 3))
    assert tree.forest.n == 22
    start = time.perf_counter()
    oracle = brute_force_domination(tree.forest)
    elapsed = time.perf_counter() - start
    assert oracle.gamma == 10
    assert oracle.mds_count == 1688
    assert elapsed <= 300.0, f"order-22 brute force took {elapsed:.1f} s"
    print(f"PASS criterion 8: table rows (k=3/9/16/56; 1176, 4160e12, 8187e27, 8152e148 "
          f"at 4 digits) and 1688 == order-22 brute force in {elapsed:.1f} s")


def test_criterion_09_record_above_two_power_gamma():
    report = search_extremal(1, 9)
    assert report.trees_processed == 95
    record = report.gamma_records[4]
    assert record.best_count == 18
    assert record.best_count > 2**4
    assert record.witness_order == 9
    print("PASS criterion 9: orders 1..9 give a gamma=4 record of 18 > 2^4 = 16 "
          "with a 9-vertex witness")


def test_criterion_10_order_bound_sweep_to_order_14(sweep_14):
    report, _ = sweep_14
    assert report.order_bound_violations == []
    spot = mis_order_bound(14)
    assert spot == 2**6 + 1
    print("PASS criterion 10: zero order-based MIS bound violations over all trees "
          "of order <= 14")


def test_criterion_11_search_determinism_1_vs_8_workers():
    solo = search_extremal(1, 12, jobs=1, emit_rows=True)
    octo = search_extremal(1, 12, jobs=8, emit_rows=True)
    assert report_text(solo) == report_text(octo)
    assert report_csv_lines(solo) == report_csv_lines(octo)
    print("PASS criterion 11: order 1..12 search reports byte-identical for 1 vs 8 workers")
