import itertools
import math
import random

import pytest

from domcount import family
from domcount.domination import brute_force_domination, count_min_dominating_sets
from domcount.family import (
    FamilySpec,
    balanced_partition,
    build_family_tree,
    closed_form_count,
    family_tree_text,
    growth_trend,
    local_mds_partition,
    optimize_k,
    parse_family_roles,
)
from domcount.forest import build_forest, parse_forest
from domcount.independence import is_subdivided_star
from oracles import enumerated_local_partition, optimize_k_scan


def test_balanced_partition_examples():
    assert balanced_partition(10, 3) == (3, 3, 3)
    assert balanced_partition(10, 4) == (3, 2, 2, 2)
    assert balanced_partition(2, 1) == (1,)


def test_balanced_partition_properties():
    for gamma in range(2, 12):
        for k in range(1, gamma):
            parts = balanced_partition(gamma, k)
            assert len(parts) == k
            assert sum(parts) == gamma - 1
            assert max(parts) - min(parts) <= 1
            assert list(parts) == sorted(parts, reverse=True)


def test_balanced_partition_range_errors():
    with pytest.raises(ValueError):
        balanced_partition(10, 0)
    with pytest.raises(ValueError):
        balanced_partition(10, 10)
    with pytest.raises(ValueError, match=r"^gamma must be at least 2, got 1$"):
        balanced_partition(1, 1)


def test_family_spec_validation():
    spec = FamilySpec.balanced(10, 3)
    assert spec.p == (3, 3, 3)
    with pytest.raises(ValueError):
        FamilySpec(10, 3, (3, 3, 2))
    with pytest.raises(ValueError):
        FamilySpec(10, 3, (9, 0, 0))


def test_build_single_part_is_path4():
    tree = build_family_tree((1,))
    assert tree.forest.n == 4
    assert sorted(map(len, tree.forest.adj)) == [1, 1, 2, 2]
    assert is_subdivided_star(tree.forest).is_subdivided_star


def test_build_3_3_3():
    tree = build_family_tree((3, 3, 3))
    assert tree.forest.n == 22
    assert count_min_dominating_sets(tree.forest).gamma == 10


def test_build_1_1():
    tree = build_family_tree((1, 1))
    assert tree.forest.n == 7
    assert count_min_dominating_sets(tree.forest) .gamma == 3
    assert brute_force_domination(tree.forest).mds_count == 8


def test_build_rejects_bad_parts():
    with pytest.raises(ValueError):
        build_family_tree(())
    with pytest.raises(ValueError):
        build_family_tree((2, 0))


def test_build_structure_matches_roles():
    tree = build_family_tree((2, 1))
    forest = tree.forest
    assert forest.n == 1 + 2 + 2 * 3
    for i, hub in enumerate(tree.hubs, start=1):
        assert tree.roles[hub] == f"w:{i}"
        assert tree.x in forest.adj[hub]
        for j, (inner, tip) in enumerate(tree.chains[i - 1], start=1):
            assert tree.roles[inner] == f"v:{i}:{j}"
            assert tree.roles[tip] == f"u:{i}:{j}"
            assert hub in forest.adj[inner]
            assert forest.adj[tip] == [inner]


def test_roles_serialization_round_trip():
    tree = build_family_tree((2, 2, 1))
    text = family_tree_text(tree)
    assert parse_family_roles(text) == tree.roles
    assert parse_forest(text).edges == tree.forest.edges


def test_closed_form_examples():
    assert closed_form_count(2, 1) == 4
    assert closed_form_count(3, 2) == 8
    assert closed_form_count(10, 3) == 1688
    assert closed_form_count(10, 3) == 2**9 + 3 * 2**3 * (2**3 - 1) ** 2


def test_closed_form_range_errors():
    with pytest.raises(ValueError):
        closed_form_count(10, 0)
    with pytest.raises(ValueError):
        closed_form_count(10, 10)
    with pytest.raises(ValueError, match=r"^gamma must be at least 2, got 0$"):
        closed_form_count(0, 1)


def test_closed_form_matches_dp_small():
    for gamma in range(2, 9):
        for k in range(1, gamma):
            tree = build_family_tree(balanced_partition(gamma, k))
            result = count_min_dominating_sets(tree.forest)
            assert result.gamma == gamma
            assert result.mds_count == closed_form_count(gamma, k)


def test_unbalanced_parts_never_beat_balanced():
    # Over all compositions with the same total and part count, the
    # balanced split maximizes the DP count.
    for k in (2, 3):
        for total in range(k, 9):
            best = None
            for parts in itertools.product(range(1, total + 1), repeat=k):
                if sum(parts) != total:
                    continue
                count = count_min_dominating_sets(build_family_tree(parts).forest).mds_count
                if best is None or count > best:
                    best = count
            balanced = balanced_partition(total + 1, k)
            balanced_count = count_min_dominating_sets(build_family_tree(balanced).forest).mds_count
            assert balanced_count == best


def test_two_power_sum_minimized_when_balanced():
    for total in range(2, 9):
        best = min(2**p1 + 2**(total - p1) for p1 in range(1, total))
        for p1 in range(1, total):
            p2 = total - p1
            if abs(p1 - p2) <= 1:
                assert 2**p1 + 2**p2 == best


def test_optimize_k_examples():
    row = optimize_k(10)
    assert row.best_k == 3
    assert row.formula_value == 1688
    assert row.table_interpretation_value == 1176
    assert optimize_k(2).best_k == 1


def test_optimize_k_matches_exhaustive_scan():
    for gamma in [*range(2, 601), 1000, 2500, 5000]:
        assert optimize_k(gamma) == optimize_k_scan(gamma), gamma


def test_optimize_k_evaluates_few_closed_forms(monkeypatch):
    calls = []

    def counted(gamma, k):
        calls.append(k)
        return closed_form_count(gamma, k)

    monkeypatch.setattr(family, "closed_form_count", counted)
    row = optimize_k(20000)
    assert row.best_k == 1428
    assert row.formula_value == closed_form_count(20000, 1428)
    assert 1 <= len(calls) <= 8, calls


def test_reduced_column_counts_root_avoiding_sets():
    # 2^(gamma-1) sets contain the root (one free pick per pendant chain),
    # so the reduced column equals the number of sets avoiding it.
    from domcount.domination import enumerate_min_dominating_sets
    for gamma in range(2, 7):
        for k in range(1, gamma):
            tree = build_family_tree(balanced_partition(gamma, k))
            sets = enumerate_min_dominating_sets(tree.forest)
            with_root = sum(1 for s in sets if tree.x in s)
            without_root = sum(1 for s in sets if tree.x not in s)
            assert with_root == 2 ** (gamma - 1)
            assert without_root == closed_form_count(gamma, k) - 2 ** (gamma - 1)


def test_optimize_argmax_identical_under_both_columns():
    for gamma in range(2, 13):
        full = {k: closed_form_count(gamma, k) for k in range(1, gamma)}
        shift = 1 << (gamma - 1)
        best_full = min(k for k, v in full.items() if v == max(full.values()))
        reduced = {k: v - shift for k, v in full.items()}
        best_reduced = min(k for k, v in reduced.items() if v == max(reduced.values()))
        assert best_full == best_reduced == optimize_k(gamma).best_k


def test_local_partition_1_1():
    tree = build_family_tree((1, 1))
    part = local_mds_partition(tree.forest, tree.hubs[0], tree.hubs[1], tree.x)
    counts = {tuple(sorted(k)): v for k, v in part.counts.items()}
    assert counts[("x",)] == 1
    assert counts[("w1",)] == 1
    assert counts[("w2",)] == 1
    assert counts[()] == 0
    assert counts[("w1", "w2")] == 0
    assert counts[("w1", "x")] == 0
    assert counts[("w2", "x")] == 0
    assert counts[("w1", "w2", "x")] == 0
    assert part.reassembled_total() == 8


@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (2, 2), (3, 2), (1, 1, 2), (2, 2, 3)])
def test_local_partition_properties(parts):
    tree = build_family_tree(parts)
    part = local_mds_partition(tree.forest, tree.hubs[0], tree.hubs[1], tree.x)
    allowed = {frozenset(), frozenset({"w1"}), frozenset({"w2"}), frozenset({"x"})}
    for key, value in part.counts.items():
        if key not in allowed:
            assert value == 0
    assert part.counts[frozenset({"w1"})] == part.counts[frozenset({"w2"})]
    assert part.p1 == parts[0] and part.p2 == parts[1]
    total = count_min_dominating_sets(tree.forest).mds_count
    assert part.reassembled_total() == total


def random_local_configuration(rng, max_order):
    """A random tree with a vertex x anywhere in it, two hubs at x with 1-3
    pendant 2-paths each, sometimes other components, labels shuffled.
    Returns the forest and (w1, w2, x)."""
    p1, p2 = rng.randint(1, 3), rng.randint(1, 3)
    rest = max_order - 3 - 2 * (p1 + p2)
    base = rng.randint(0, rest)
    edges = [(rng.randrange(v), v) for v in range(1, base + 1)]
    x, w1, w2 = rng.randint(0, base), base + 1, base + 2
    edges += [(x, w1), (x, w2)]
    n = base + 3
    for hub, chains in ((w1, p1), (w2, p2)):
        for _ in range(chains):
            edges += [(hub, n), (n, n + 1)]
            n += 2
    if rng.random() < 0.3:
        extra = rng.randint(1, max_order - n) if n < max_order else 0
        edges += [(rng.randrange(n, v), v) for v in range(n + 1, n + extra)]
        n += extra
    labels = list(range(n))
    rng.shuffle(labels)
    forest = build_forest(n, [(labels[u], labels[v]) for u, v in edges])
    return forest, (labels[w1], labels[w2], labels[x])


def assert_partition_matches_enumeration(forest, w1, w2, x):
    part = local_mds_partition(forest, w1, w2, x)
    oracle = enumerated_local_partition(forest, w1, w2, x)
    assert list(part.counts.items()) == list(oracle.counts.items())
    assert (part.p1, part.p2) == (oracle.p1, oracle.p2)


def test_local_partition_matches_enumeration_on_random_configurations():
    rng = random.Random(11)
    for _ in range(500):
        forest, (w1, w2, x) = random_local_configuration(rng, 25)
        assert forest.n <= 25
        assert_partition_matches_enumeration(forest, w1, w2, x)


def test_local_partition_matches_enumeration_on_family_trees():
    for gamma in range(3, 13):
        for k in range(2, gamma):
            tree = build_family_tree(balanced_partition(gamma, k))
            if tree.forest.n <= 25:
                assert_partition_matches_enumeration(tree.forest, tree.hubs[0], tree.hubs[1], tree.x)


@pytest.mark.parametrize("parts", [(4, 4, 4), (30, 30, 30)])
def test_local_partition_above_the_enumeration_cap(parts):
    tree = build_family_tree(parts)
    assert tree.forest.n > 25
    part = local_mds_partition(tree.forest, tree.hubs[0], tree.hubs[1], tree.x)
    assert part.reassembled_total() == count_min_dominating_sets(tree.forest).mds_count


def test_local_partition_rejects_bad_configuration():
    tree = build_family_tree((2, 1))
    forest = tree.forest
    with pytest.raises(ValueError):
        local_mds_partition(forest, tree.hubs[0], tree.hubs[0], tree.x)
    with pytest.raises(ValueError):
        # a chain vertex is not a hub adjacent to x
        local_mds_partition(forest, tree.chains[0][0][0], tree.hubs[1], tree.x)
    with pytest.raises(ValueError):
        # x itself carries hubs, not pendant 2-paths
        local_mds_partition(forest, tree.hubs[0], tree.x, tree.hubs[1])


@pytest.mark.parametrize("bad", [99, -1])
def test_local_partition_rejects_vertex_ids_out_of_range(bad):
    tree = build_family_tree((2, 2))
    w1, w2, x = tree.hubs[0], tree.hubs[1], tree.x
    for args in ((w1, w2, bad), (bad, w2, x), (w1, bad, x)):
        with pytest.raises(ValueError, match=f"{bad} is not a vertex"):
            local_mds_partition(tree.forest, *args)


def test_growth_trend_rows():
    rows = growth_trend([2, 10, 100])
    assert rows[0].best_k == 1 and rows[0].formula_value == 4
    ten = rows[1]
    reference = 10 * 2**10 / math.log(10)
    assert ten.formula_value == 1688
    assert ten.ratio_to_reference == pytest.approx(1688 / reference, rel=1e-9)
    assert ten.ratio_to_reference == pytest.approx(0.38, abs=0.005)
    assert rows[2].best_k == 16
    assert rows[2].k_scaled == pytest.approx(16 * math.log(100) / 100, rel=1e-9)
