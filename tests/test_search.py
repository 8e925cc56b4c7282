import random
from fractions import Fraction

import pytest

from domcount.domination import count_min_dominating_sets
from domcount.family import build_family_tree
from domcount.forest import build_forest, path, spider
from domcount.independence import SpiderShape, count_max_independent_sets, is_subdivided_star
from domcount.search import (
    _block_rows,
    _level_counts,
    _level_spider_shape,
    compute_growth_base,
    extremal_diagnostics,
    mis_order_bound,
    report_csv_lines,
    report_text,
    search_extremal,
    verify_mds_bound,
    verify_mis_bound,
)
from domcount.treegen import block_starts, canonical_code, generate_trees
from oracles import forest_tree_rows


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


def test_kernel_rows_match_forest_oracle():
    # The level-sequence kernel against one decoded Forest and the public
    # counters and recognizer per tree.
    for n in range(1, 17):
        levels = [code.levels for code in generate_trees(n)]
        assert _block_rows(list(block_starts(n))) == forest_tree_rows(levels), n


def random_tree(rng):
    """A random recursive tree or, one time in four, a spider with legs of
    length 1 to 3, its vertices shuffled; up to 60 vertices."""
    if rng.random() < 0.25:
        base = spider(*(rng.choice((1, 2, 2, 2, 3)) for _ in range(rng.randint(1, 12))))
        n, edges = base.n, base.edges
    else:
        n = rng.randint(1, 60)
        edges = [(rng.randrange(child), child) for child in range(1, n)]
    labels = list(range(n))
    rng.shuffle(labels)
    return build_forest(n, [(labels[u], labels[v]) for u, v in edges])


def test_kernel_matches_counters_on_random_trees():
    rng = random.Random(20180)
    stars = 0
    for _ in range(3000):
        forest = random_tree(rng)
        levels = canonical_code(forest).levels
        dom = count_min_dominating_sets(forest)
        ind = count_max_independent_sets(forest)
        assert _level_counts(levels) == (dom.gamma, dom.mds_count, ind.alpha, ind.mis_count)
        shape = is_subdivided_star(forest)
        assert _level_spider_shape(levels) == shape
        stars += shape.is_subdivided_star
    assert stars >= 50


def test_search_parameter_validation():
    with pytest.raises(ValueError):
        search_extremal(0, 5)
    with pytest.raises(ValueError):
        search_extremal(5, 4)
    with pytest.raises(ValueError):
        search_extremal(1, 99)
    with pytest.raises(ValueError):
        search_extremal(1, 5, jobs=0)


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
