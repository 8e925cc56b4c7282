import tracemalloc
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mds_table, scanned_min_dominating_sets
from strategies import forests, labeled_trees, shuffled_forests
from domcount.domination import (
    MDS_LEAF,
    DomResult,
    _mds_containing,
    _mds_members,
    brute_force_domination,
    count_min_dominating_sets,
    domination_number,
    enumerate_min_dominating_sets,
)
from domcount.forest import build_forest, classify_vertices, disjoint_union, path, root_at, spider, star
from domcount.independence import count_max_independent_sets
from domcount.treegen import generate_trees


def is_dominating(forest, vertices):
    covered = set(vertices)
    for v in vertices:
        covered.update(forest.adj[v])
    return len(covered) == forest.n


def test_leaf_state_invariants():
    records = mds_table(root_at(path(2), 0).parent)
    leaf = 1
    # (z0, c0, z1, c1, z2, c2): sigma0 (1, 1), sigma1 infeasible, sigma2 (0, 1).
    assert records[leaf] == MDS_LEAF == (1, 1, None, 0, 0, 1)
    assert all(z0 >= 1 for z0, *_ in records)


def test_single_vertex():
    assert count_min_dominating_sets(build_forest(1, [])) == DomResult(1, 1)


def test_empty_forest():
    assert count_min_dominating_sets(build_forest(0, [])) == DomResult(0, 1)


def test_paths_and_stars():
    assert count_min_dominating_sets(path(2)) == DomResult(1, 2)
    assert brute_force_domination(path(3)) == DomResult(1, 1)
    assert count_min_dominating_sets(path(3)) == DomResult(1, 1)
    assert count_min_dominating_sets(path(4)) == DomResult(2, 4)
    assert brute_force_domination(path(4)) == DomResult(2, 4)
    assert count_min_dominating_sets(star(3)) == DomResult(1, 1)


def test_spider_2_2_4(tstar):
    assert domination_number(tstar) == 4
    assert count_min_dominating_sets(tstar) == DomResult(4, 18)
    assert brute_force_domination(tstar) == DomResult(4, 18)


def test_two_spiders_multiply(tstar):
    double = disjoint_union(tstar, tstar)
    assert count_min_dominating_sets(double) == DomResult(8, 18 * 18)


def test_isolated_vertices_add_one_each():
    forest = build_forest(3, [(0, 1)])
    assert count_min_dominating_sets(forest) == DomResult(2, 2)


def test_dp_matches_brute_force_all_trees_small():
    for n in range(1, 11):
        for code in generate_trees(n):
            forest = code.decode()
            assert count_min_dominating_sets(forest) == brute_force_domination(forest)


def test_root_choice_is_irrelevant():
    for n in range(1, 10):
        for code in generate_trees(n):
            forest = code.decode()
            results = set()
            for v in range(forest.n):
                z0, c0, z1, c1, _, _ = mds_table(root_at(forest, v).parent)[0]
                states = ((z0, c0), (z1, c1))
                gamma = min(z for z, _ in states if z is not None)
                results.add((gamma, sum(c for z, c in states if z == gamma)))
            assert len(results) == 1


def test_enumeration_path4():
    assert [sorted(s) for s in enumerate_min_dominating_sets(path(4))] == [
        [0, 2], [0, 3], [1, 2], [1, 3]]


def test_enumeration_single_edge():
    assert [sorted(s) for s in enumerate_min_dominating_sets(path(2))] == [[0], [1]]


def test_enumeration_matches_count(tstar):
    sets = enumerate_min_dominating_sets(tstar)
    assert len(sets) == 18
    assert len(set(sets)) == 18
    gamma = domination_number(tstar)
    for s in sets:
        assert len(s) == gamma
        assert is_dominating(tstar, s)


def test_enumeration_is_sorted_and_complete_small():
    for n in range(1, 11):
        for code in generate_trees(n):
            forest = code.decode()
            sets = enumerate_min_dominating_sets(forest)
            result = count_min_dominating_sets(forest)
            assert len(sets) == result.mds_count
            assert len(set(sets)) == len(sets)
            keys = [tuple(sorted(s)) for s in sets]
            assert keys == sorted(keys)
            for s in sets:
                assert len(s) == result.gamma
                assert is_dominating(forest, s)


def test_enumeration_limit(tstar):
    sets = enumerate_min_dominating_sets(tstar, limit=5)
    assert len(sets) == 5
    assert sets == enumerate_min_dominating_sets(tstar)[:5]
    assert enumerate_min_dominating_sets(tstar, limit=0) == []
    with pytest.raises(ValueError, match="limit"):
        enumerate_min_dominating_sets(tstar, limit=-1)


def test_enumeration_over_components():
    forest = disjoint_union(path(2), path(2))
    sets = [sorted(s) for s in enumerate_min_dominating_sets(forest)]
    assert sets == [[0, 2], [0, 3], [1, 2], [1, 3]]


def test_strong_supports_in_every_set():
    # Every strong support vertex lies in every minimum dominating set.
    for legs in [(1, 1, 2), (1, 1, 1), (2, 2, 1, 1)]:
        forest = spider(*legs)
        strong = classify_vertices(forest).strong_support
        assert strong
        for s in enumerate_min_dominating_sets(forest):
            assert strong <= s


def test_brute_force_guard():
    big = path(26)
    with pytest.raises(ValueError):
        brute_force_domination(big)
    with pytest.raises(ValueError):
        enumerate_min_dominating_sets(big)


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("DOMCOUNT_MAX_ORDER", "26")
    assert brute_force_domination(path(26)).gamma == 9


@settings(max_examples=50, deadline=None)
@given(forests(max_components=3, max_order=6))
def test_multiplicativity_over_components(forest):
    total = count_min_dominating_sets(forest)
    gamma_sum, count_prod = 0, 1
    for comp in forest.components:
        index = {v: i for i, v in enumerate(comp)}
        sub = build_forest(len(comp), [(index[u], index[v]) for u, v in forest.edges
                                       if u in index and v in index])
        part = count_min_dominating_sets(sub)
        gamma_sum += part.gamma
        count_prod *= part.mds_count
    assert total == DomResult(gamma_sum, count_prod)


@settings(max_examples=50, deadline=None)
@given(labeled_trees(max_order=9))
def test_dp_matches_brute_force_random(tree):
    assert count_min_dominating_sets(tree) == brute_force_domination(tree)


def check_members_and_forced_counts(forest, forced):
    # The driver's non-count values against a subset scan: the union of the
    # minimum dominating sets, and how many of them contain ``forced``.
    sets = scanned_min_dominating_sets(forest.n, forest.adj)
    gamma = len(sets[0])
    union = reduce(or_, (1 << v for s in sets for v in s), 0)
    assert _mds_members(forest, range(forest.n)) == union
    containing = sum(forced <= s for s in sets)
    size, count = _mds_containing(forest, forced)
    if containing:
        assert (size, count) == (gamma, containing)
    else:
        assert size > gamma


@settings(max_examples=150, deadline=None)
@given(shuffled_forests(), st.data())
def test_members_and_forced_counts_on_shuffled_forests(forest, data):
    forced = data.draw(st.frozensets(st.integers(0, forest.n - 1), max_size=4))
    check_members_and_forced_counts(forest, forced)


def test_members_and_forced_counts_on_the_empty_forest():
    # One set, the empty one: size 0, count 1, no members.
    check_members_and_forced_counts(build_forest(0, []), frozenset())


def test_counters_keep_no_dead_records():
    # Each record is dead once merged into its parent's, and the counters'
    # fold drops it: on a long path only a few records are alive at a time,
    # while the full table keeps all 20,000.  The path's rooting is built
    # with the forest, before any peak is taken.
    forest = path(20000)
    parent = root_at(forest, 0).parent

    def peak(fold, *args):
        tracemalloc.start()
        try:
            fold(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    table = peak(mds_table, parent)
    assert peak(count_min_dominating_sets, forest) < table / 4
    assert peak(count_max_independent_sets, forest) < table / 4
