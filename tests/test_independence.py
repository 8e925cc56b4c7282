import math

import pytest
from hypothesis import given, settings

from oracles import mis_table
from strategies import labeled_trees
from domcount.forest import build_forest, disjoint_union, path, root_at, spider, star
from domcount.independence import (
    IndResult,
    SpiderShape,
    brute_force_independence,
    count_max_independent_sets,
    enumerate_max_independent_sets,
    independence_number,
    is_subdivided_star,
)
from domcount.treegen import generate_trees


def subdivided_star(k):
    """Center with k legs of length 2 and one leg of length 1."""
    return path(2) if k == 0 else spider(*([2] * k + [1]))


def is_independent(forest, vertices):
    return all(w not in vertices for v in vertices for w in forest.adj[v])


def test_examples():
    assert independence_number(star(3)) == 3
    assert independence_number(subdivided_star(3)) == 4
    assert independence_number(path(4)) == 2
    assert count_max_independent_sets(path(2)) == IndResult(1, 2)
    assert count_max_independent_sets(path(5)) == IndResult(3, 1)
    assert count_max_independent_sets(build_forest(1, [])) == IndResult(1, 1)
    assert count_max_independent_sets(subdivided_star(3)) == IndResult(4, 9)
    assert brute_force_independence(path(3)) == IndResult(2, 1)
    assert brute_force_independence(path(4)) == IndResult(2, 3)
    assert brute_force_independence(subdivided_star(2)) == IndResult(3, 5)


def test_empty_forest():
    assert count_max_independent_sets(build_forest(0, [])) == IndResult(0, 1)


def test_components_multiply():
    forest = disjoint_union(path(2), path(4))
    assert count_max_independent_sets(forest) == IndResult(3, 6)


def test_dp_matches_brute_force_all_trees_small():
    for n in range(1, 11):
        for code in generate_trees(n):
            forest = code.decode()
            assert count_max_independent_sets(forest) == brute_force_independence(forest)


def test_root_choice_is_irrelevant():
    for n in range(1, 10):
        for code in generate_trees(n):
            forest = code.decode()
            results = set()
            for v in range(forest.n):
                z_in, c_in, z_out, c_out = mis_table(root_at(forest, v).parent)[0]
                states = ((z_in, c_in), (z_out, c_out))
                alpha = max(z for z, _ in states)
                results.add((alpha, sum(c for z, c in states if z == alpha)))
            assert len(results) == 1


def test_alpha_at_least_half_order_for_trees():
    for n in range(1, 11):
        for code in generate_trees(n):
            assert independence_number(code.decode()) >= math.ceil(n / 2)


def test_recognizer_examples():
    assert is_subdivided_star(path(4)) == SpiderShape(True, 1)
    assert is_subdivided_star(path(5)) == SpiderShape(False, None)
    assert is_subdivided_star(spider(2, 2, 1)) == SpiderShape(True, 2)
    assert is_subdivided_star(path(2)) == SpiderShape(True, 0)
    assert is_subdivided_star(star(3)) == SpiderShape(False, None)
    assert is_subdivided_star(spider(2, 2, 2)) == SpiderShape(False, None)
    assert is_subdivided_star(spider(2, 2, 1, 1)) == SpiderShape(False, None)


def test_recognizer_on_built_family():
    for k in range(0, 7):
        tree = subdivided_star(k)
        shape = is_subdivided_star(tree)
        assert shape == SpiderShape(True, k)
        assert tree.n == 2 * k + 2
        result = count_max_independent_sets(tree)
        assert result.alpha == k + 1
        assert result.mis_count == 2**k + 1


def test_recognizer_is_label_independent():
    # Same shape under a different labeling: a 4-path given center-first.
    relabeled = build_forest(4, [(3, 1), (1, 0), (0, 2)])
    assert is_subdivided_star(relabeled) == SpiderShape(True, 1)


def test_recognizer_rejects_forests():
    with pytest.raises(ValueError):
        is_subdivided_star(disjoint_union(path(2), path(2)))


def test_recognizer_agrees_with_bound_equality_small():
    for n in range(1, 13):
        for code in generate_trees(n):
            forest = code.decode()
            result = count_max_independent_sets(forest)
            bound = 2 ** (result.alpha - 1) + 1
            assert result.mis_count <= bound
            assert (result.mis_count == bound) == is_subdivided_star(forest).is_subdivided_star


def test_order_bound_small():
    for n in range(2, 13):
        limit = 2 ** ((n - 2) // 2) + 1 if n % 2 == 0 else 2 ** ((n - 3) // 2)
        for code in generate_trees(n):
            assert count_max_independent_sets(code.decode()).mis_count <= limit


def test_enumeration_matches_count_small():
    for n in range(1, 10):
        for code in generate_trees(n):
            forest = code.decode()
            sets = enumerate_max_independent_sets(forest)
            result = count_max_independent_sets(forest)
            assert len(sets) == result.mis_count
            keys = [tuple(sorted(s)) for s in sets]
            assert keys == sorted(keys)
            for s in sets:
                assert len(s) == result.alpha
                assert is_independent(forest, s)


def test_enumeration_limit():
    tree = subdivided_star(3)
    assert len(enumerate_max_independent_sets(tree, limit=4)) == 4
    assert enumerate_max_independent_sets(tree, limit=0) == []
    with pytest.raises(ValueError, match="limit"):
        enumerate_max_independent_sets(tree, limit=-1)


def test_guards():
    big = path(26)
    with pytest.raises(ValueError):
        brute_force_independence(big)
    with pytest.raises(ValueError):
        enumerate_max_independent_sets(big)


@settings(max_examples=50, deadline=None)
@given(labeled_trees(max_order=9))
def test_dp_matches_brute_force_random(tree):
    assert count_max_independent_sets(tree) == brute_force_independence(tree)
