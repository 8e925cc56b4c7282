import random

import pytest
from hypothesis import given, settings

from oracles import bfs_rooting, child_positions, mds_table, mis_table, pendant_two_paths
from strategies import forests, relabeled
from domcount.domination import enumerate_min_dominating_sets
from domcount.family import build_family_tree
from domcount.forest import (
    ForestError,
    build_forest,
    classify_vertices,
    disjoint_union,
    forest_to_text,
    parse_forest,
    path,
    pendant_bundles,
    root_at,
    spider,
    star,
)
from domcount.independence import enumerate_max_independent_sets
from domcount.treegen import generate_trees


def test_parse_single_edge():
    forest = parse_forest("n 2\n0 1")
    assert forest.n == 2
    assert forest.edges == [(0, 1)]
    assert forest.component_count == 1


def test_parse_single_vertex():
    forest = parse_forest("n 1")
    assert forest.n == 1
    assert forest.edges == []
    assert forest.components == [[0]]


def test_parse_spider_2_2_4(tstar_text, tstar):
    forest = parse_forest(tstar_text)
    assert forest.n == 9
    assert len(forest.edges) == 8
    assert forest.edges == tstar.edges


def test_parse_comments_and_blank_lines():
    forest = parse_forest("# header\n\nn 3\n# mid\n0 1\n\n1 2\n")
    assert forest.n == 3
    assert forest.edges == [(0, 1), (1, 2)]


def test_parse_unreferenced_ids_are_isolated():
    forest = parse_forest("n 4\n0 1")
    assert forest.components == [[0, 1], [2], [3]]


@pytest.mark.parametrize("text", [
    "0 1",                # missing header
    "n x",                # bad count
    "n 2\n0",             # malformed edge line
    "n 2\n0 a",           # non-integer endpoint
    "n 2\n0 2",           # vertex id out of range
    "n 2\n0 0",           # self-loop
    "n 2\n0 1\n1 0",      # duplicate edge
    "n 3\n0 1\n1 2\n0 2", # cycle
])
def test_parse_errors(text):
    with pytest.raises(ForestError):
        parse_forest(text)


def test_text_round_trip(tstar):
    assert parse_forest(forest_to_text(tstar)).edges == tstar.edges


def test_build_rejects_negative_order():
    with pytest.raises(ForestError):
        build_forest(-1, [])


def test_adjacency_is_sorted_and_symmetric(tstar):
    # A relabelled random tree, edges given high endpoint first, shuffled.
    rng = random.Random(7)
    label = list(range(40))
    rng.shuffle(label)
    edges = [(label[i], label[rng.randrange(i)]) for i in range(1, 40)]
    edges = [(max(e), min(e)) for e in edges]
    rng.shuffle(edges)
    shuffled = build_forest(40, edges)
    assert shuffled.edges == sorted((v, u) for u, v in edges)
    for forest in (tstar, shuffled):
        for v in range(forest.n):
            assert forest.adj[v] == sorted(forest.adj[v])
            for w in forest.adj[v]:
                assert v in forest.adj[w]
        assert sum(map(len, forest.adj)) == 2 * len(forest.edges)


def test_duplicate_edge_reported_in_either_orientation():
    with pytest.raises(ForestError, match=r"duplicate edge \(0, 2\)"):
        build_forest(4, [(2, 0), (1, 3), (0, 1), (0, 2)])


def test_classify_single_edge():
    cls = classify_vertices(path(2))
    assert cls.endvertices == {0, 1}
    assert cls.support == {0, 1}
    assert cls.strong_support == frozenset()


def test_classify_star():
    cls = classify_vertices(star(3))
    assert cls.endvertices == {1, 2, 3}
    assert cls.support == {0}
    assert cls.strong_support == {0}


def test_classify_spider_2_2_4(tstar):
    cls = classify_vertices(tstar)
    assert len(cls.endvertices) == 3
    assert len(cls.support) == 3
    assert cls.strong_support == frozenset()


def test_classify_isolated_vertex():
    cls = classify_vertices(build_forest(1, []))
    assert cls.endvertices == {0}
    assert cls.support == frozenset()


@pytest.mark.parametrize("legs", [(2,), (1, 1), (2, 2, 4), (3, 3)])
def test_star_like_strong_support(legs):
    # Any star with >= 2 leaves has exactly one strong support vertex.
    cls = classify_vertices(star(max(2, sum(legs))))
    assert len(cls.strong_support) == 1


def test_root_single_edge():
    tree = root_at(path(2), 0)
    assert tree.order == [0, 1]
    assert tree.parent == [-1, 0]


def test_root_path_at_endvertex():
    tree = root_at(path(4), 0)
    assert tree.order == [0, 1, 2, 3]
    assert tree.parent == [-1, 0, 1, 2]


def test_root_spider_at_center(tstar):
    tree = root_at(tstar, 0)
    assert tree.order[0] == 0
    assert sorted(_subtree_sizes(tree)) == [2, 2, 4]


def _subtree_sizes(tree):
    sizes = [1] * len(tree.order)
    for i in range(len(tree.order) - 1, 0, -1):
        sizes[tree.parent[i]] += sizes[i]
    return [sizes[i] for i in range(1, len(tree.order)) if tree.parent[i] == 0]


def test_root_isolated_vertex():
    tree = root_at(parse_forest("n 4\n0 1"), 2)
    assert (tree.order, tree.parent) == ([2], [-1])


def test_parent_positions_precede_children(tstar):
    tree = root_at(tstar, 5)
    assert tree.order[0] == 5
    assert tree.parent[0] == -1
    assert sorted(tree.order) == list(range(tstar.n))
    for i in range(1, len(tree.order)):
        assert 0 <= tree.parent[i] < i
        u, v = sorted((tree.order[i], tree.order[tree.parent[i]]))
        assert (u, v) in tstar.edges
    assert child_positions(tree.parent)[0] == [i for i in range(1, len(tree.order)) if tree.parent[i] == 0]


def assert_stored_rootings_are_bfs(forest):
    assert sorted(forest.rooted) == [members[0] for members in forest.components]
    for members in forest.components:
        tree = forest.rooted[members[0]]
        assert (tree.order, tree.parent) == bfs_rooting(forest, members[0])


@settings(max_examples=100, deadline=None)
@given(forests())
def test_rootings_equal_bfs_oracle(forest):
    assert_stored_rootings_are_bfs(forest)
    for v in range(forest.n):
        tree = root_at(forest, v)
        assert (tree.order, tree.parent) == bfs_rooting(forest, v)


@pytest.mark.parametrize("forest", [
    path(1), path(2), path(50), star(0), star(30), spider(2, 2, 4), spider(1, 3, 2, 5),
    disjoint_union(path(5), star(3), build_forest(2, []), spider(2, 1)),
], ids=["path1", "path2", "path50", "star0", "star30", "spider224", "spider1325", "union"])
def test_stored_rootings_of_paths_stars_spiders(forest):
    assert_stored_rootings_are_bfs(forest)


def test_decoded_preorder_rooting_gives_the_same_tables_and_sets():
    # A decoded tree keeps its preorder as its rooting; the same tree built
    # from its edges keeps the breadth-first one.
    for n in range(1, 15):
        for code in generate_trees(n):
            decoded = code.decode()
            assert decoded.rooted[0].order is decoded.components[0]
            preorder = decoded.rooted[0].parent
            built = build_forest(n, decoded.edges)
            assert_stored_rootings_are_bfs(built)
            _, parent = bfs_rooting(built, 0)
            # Position 0 is the root under both rootings.
            assert mds_table(preorder)[0] == mds_table(parent)[0]
            assert mis_table(preorder)[0] == mis_table(parent)[0]
            assert enumerate_min_dominating_sets(decoded) == enumerate_min_dominating_sets(built)
            assert enumerate_max_independent_sets(decoded) == enumerate_max_independent_sets(built)


def test_counting_roots_nothing(tstar):
    # Counters and enumerators root each component at its smallest vertex;
    # that rooting is the one stored when the forest was built.
    parsed = parse_forest("n 9\n7 2\n2 5\n8 2\n0 6\n")
    union = parse_forest(forest_to_text(disjoint_union(tstar, path(4), star(3), build_forest(2, []))))
    decoded = [code.decode() for code in generate_trees(8)]
    for forest in [parsed, union, *decoded]:
        for members in forest.components:
            assert root_at(forest, members[0]) is forest.rooted[members[0]]


def test_disjoint_union_offsets(tstar):
    both = disjoint_union(tstar, path(3))
    assert both.n == 12
    assert both.component_count == 2
    assert (9, 10) in both.edges


def test_spider_rejects_zero_leg():
    with pytest.raises(ForestError):
        spider(2, 0)


def test_pendant_two_paths_detection(tstar):
    bundles = pendant_bundles(tstar)
    # At vertex 5 of the 2-2-4 spider: hub 0 hangs two pendant 2-paths,
    # hub 6 hangs one.
    assert bundles[5][0] == 2
    assert bundles[5][6] == 1
    # Looking toward the center from 6, vertex 7's subtree is a bare path.
    assert 7 not in bundles.get(6, {})
    # A leaf hub has no pendant paths at all.
    assert 8 not in bundles.get(7, {})


def scanned_bundles(forest):
    """``pendant_bundles`` from the per-(vertex, neighbour) scan."""
    table = {}
    for x in range(forest.n):
        for w in forest.adj[x]:
            chains = pendant_two_paths(forest, w, x)
            if chains:
                table.setdefault(x, {})[w] = len(chains)
    return table


def test_pendant_bundles_edge_cases():
    # x = 1 is itself the inner vertex of a pendant 2-path at w = 0, so
    # from x only the other two of 0's paths count; w = 2 is a leaf.
    assert pendant_bundles(spider(2, 2, 2))[1] == {0: 2}
    # A leaf w hangs nothing, seen from its only neighbour.
    assert pendant_bundles(star(3)) == {}
    # Leg 0-1-2-3: its middle vertex 2 is the inner vertex of the path
    # 2-3 at 1, which is a bundle seen from 0; from 2 itself, 1 hangs
    # nothing and 3 is a leaf.  From 1, the leg 0-4-5 is a bundle at 0.
    assert pendant_bundles(spider(3, 2)) == {0: {1: 1}, 1: {0: 1}}
    for tree in (spider(2, 2, 2), star(3), spider(3, 2)):
        assert pendant_bundles(tree) == scanned_bundles(tree)


def test_pendant_bundles_match_the_per_pair_scan():
    for n in range(1, 13):
        for code in generate_trees(n):
            forest = code.decode()
            assert pendant_bundles(forest) == scanned_bundles(forest), code
    rng = random.Random(4606)
    for i in range(3000):
        if i % 3 == 0:
            n = rng.randint(1, 60)
            forest = build_forest(n, [(rng.randrange(child), child) for child in range(1, n)])
        elif i % 3 == 1:
            forest = spider(*(rng.choice((1, 2, 2, 2, 3)) for _ in range(rng.randint(1, 12))))
        else:
            forest = build_family_tree([rng.randint(1, 4) for _ in range(rng.randint(1, 4))]).forest
        forest = relabeled(forest, rng)
        assert pendant_bundles(forest) == scanned_bundles(forest), forest.edges
