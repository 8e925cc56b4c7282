"""Both enumerators against the recursion they replaced and a subset scan.

``tests/oracles.py`` keeps the memoised top-down enumerators that walked
the count tables before enumeration became the counters' own fold over
set families; the subset scan shares no code with the package.  Lists
must be equal entry for entry, in the same order.
"""

import random

from hypothesis import given, settings

from oracles import (
    recursive_max_independent_sets,
    recursive_min_dominating_sets,
    scanned_max_independent_sets,
    scanned_min_dominating_sets,
)
from strategies import shuffled_forests
from domcount.domination import enumerate_min_dominating_sets
from domcount.forest import build_forest, disjoint_union
from domcount.independence import enumerate_max_independent_sets
from domcount.treegen import generate_trees

PAIRS = ((enumerate_min_dominating_sets, recursive_min_dominating_sets, scanned_min_dominating_sets),
         (enumerate_max_independent_sets, recursive_max_independent_sets, scanned_max_independent_sets))


def limits(count):
    return sorted({0, 1, 5, count, count + 1})


def trees(max_order):
    return (code.decode() for n in range(1, max_order + 1) for code in generate_trees(n))


def test_every_tree_matches_the_recursion():
    for forest in trees(13):
        for enumerate_sets, recursive, _ in PAIRS:
            expected = recursive(forest)
            assert enumerate_sets(forest) == expected
            # The recursion's limit is a plain truncation of its full list.
            for limit in limits(len(expected)):
                assert enumerate_sets(forest, limit=limit) == expected[:limit]


@settings(max_examples=150, deadline=None)
@given(shuffled_forests())
def test_shuffled_forests_match_the_recursion(forest):
    for enumerate_sets, recursive, _ in PAIRS:
        expected = recursive(forest)
        assert enumerate_sets(forest) == expected
        for limit in limits(len(expected)):
            assert enumerate_sets(forest, limit=limit) == recursive(forest, limit=limit)


def test_empty_forest_has_one_empty_set():
    empty = build_forest(0, [])
    for enumerate_sets, recursive, _ in PAIRS:
        assert enumerate_sets(empty) == recursive(empty) == [frozenset()]


def test_every_tree_matches_the_subset_scan():
    for forest in trees(12):
        for enumerate_sets, _, scanned in PAIRS:
            assert enumerate_sets(forest) == scanned(forest.n, forest.adj)


def test_random_forests_match_the_subset_scan():
    rng = random.Random(9)
    for _ in range(200):
        parts = []
        n = rng.randint(1, 12)
        while n:
            size = rng.randint(1, n)
            parts.append(build_forest(size, [(rng.randrange(child), child) for child in range(1, size)]))
            n -= size
        forest = disjoint_union(*parts)
        label = rng.sample(range(forest.n), forest.n)
        forest = build_forest(forest.n, [(label[u], label[v]) for u, v in forest.edges])
        for enumerate_sets, _, scanned in PAIRS:
            assert enumerate_sets(forest) == scanned(forest.n, forest.adj)
