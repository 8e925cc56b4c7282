"""Both enumerators against the recursion they replaced and a subset scan.

``tests/oracles.py`` keeps the memoised top-down enumerators that walked
the count tables before enumeration became the counters' own fold over
set families; the subset scan shares no code with the package.  Lists
must be equal entry for entry, in the same order.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from oracles import (
    recursive_max_independent_sets,
    recursive_min_dominating_sets,
    scanned_max_independent_sets,
    scanned_min_dominating_sets,
)
from strategies import relabeled, shuffled_forests
from domcount import domination
from domcount.domination import enumerate_min_dominating_sets
from domcount.forest import build_forest, disjoint_union, path, star
from domcount.independence import enumerate_max_independent_sets
from domcount.treegen import generate_trees

PAIRS = ((enumerate_min_dominating_sets, recursive_min_dominating_sets, scanned_min_dominating_sets),
         (enumerate_max_independent_sets, recursive_max_independent_sets, scanned_max_independent_sets))


def limits(count):
    return sorted({0, 1, 5, count, count + 1})


def trees(max_order):
    return (code.decode() for n in range(1, max_order + 1) for code in generate_trees(n))


def assert_matches_recursion(forest):
    for enumerate_sets, recursive, _ in PAIRS:
        expected = recursive(forest)
        assert enumerate_sets(forest) == expected
        # The recursion's limit is a plain truncation of its full list.
        for limit in limits(len(expected)):
            assert enumerate_sets(forest, limit=limit) == expected[:limit]


def test_every_tree_matches_the_recursion():
    for forest in trees(13):
        assert_matches_recursion(forest)


def boundary_trees(n):
    """A path, a star and three seeded random trees, all of order ``n``."""
    rng = random.Random(n)
    randoms = [relabeled(build_forest(n, [(rng.randrange(child), child) for child in range(1, n)]), rng)
               for _ in range(3)]
    return [path(n), star(n - 1), *randoms]


@pytest.mark.parametrize("n", [15, 16, 17, 31, 32, 33])
def test_trees_at_word_boundaries_match_the_recursion(n, monkeypatch):
    # A set mask is split into 16-bit words; 16 and 32 vertices fill one
    # and two words exactly, and 17 and 33 spill one vertex into the next.
    monkeypatch.setenv("DOMCOUNT_MAX_ORDER", "40")
    for forest in boundary_trees(n):
        assert_matches_recursion(forest)


def test_equal_sets_of_small_forests_are_one_object():
    # Stars centred at vertex 10, of 11 and 12 vertices, both list {10} as
    # their one minimum dominating set.
    small = build_forest(11, [(10, v) for v in range(10)])
    large = build_forest(12, [(10, v) for v in range(12) if v != 10])
    [first] = enumerate_min_dominating_sets(small)
    [second] = enumerate_min_dominating_sets(large)
    assert first == {10}
    assert first is second
    # The small star's leaves 0..9 are its maximum independent set and the
    # first minimum dominating set of the edge 9-10 beside nine isolated
    # vertices: both enumerators return the same object.
    leaves = enumerate_max_independent_sets(small)[0]
    assert leaves == set(range(10))
    assert enumerate_min_dominating_sets(build_forest(11, [(9, 10)]))[0] is leaves


def test_importing_the_cli_builds_no_word_sets():
    # A forked sweep worker inherits whatever importing the package built.
    code = "import domcount.cli; from domcount import domination; print(domination._WORD_SETS)"
    env = {**os.environ, "PYTHONPATH": str(Path(domination.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "{}\n"


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
