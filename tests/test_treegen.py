import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domcount.treegen as treegen_module
from oracles import (
    _is_center_rooted,
    automorphism_count,
    block_trees,
    brute_force_isomorphic,
    filtered_free_levels,
    free_key,
    iso_class_count,
    labeled_tree_total,
    spliced_canonical_code,
    spliced_rooted_levels,
    stack_parents,
    stepwise_block_starts,
)
from strategies import labeled_trees, random_tree, relabeled
from domcount.forest import build_forest, disjoint_union, path, root_at, spider, star
from domcount.treegen import (
    CanonicalCode,
    RestList,
    _first_subtree_end,
    _rest_floor,
    _rooted_levels,
    _rooted_successor,
    _tree_centers,
    block_starts,
    canonical_code,
    generate_trees,
)

filtered_stream = functools.cache(lambda n: list(filtered_free_levels(n)))


def test_order_one():
    assert [c.levels for c in generate_trees(1)] == [(0,)]


def test_order_four_has_path_and_star():
    codes = list(generate_trees(4))
    assert len(codes) == 2
    decoded = [sorted(map(len, c.decode().adj)) for c in codes]
    assert sorted(decoded) == [[1, 1, 1, 3], [1, 1, 2, 2]]


def test_class_counts_match_labeled_tree_oracle():
    # Independent count: enumerate labeled trees from parent arrays and
    # bucket them by an isomorphism-complete key.
    for n in range(1, 9):
        assert sum(1 for _ in generate_trees(n)) == iso_class_count(n)


# OEIS A000055: free trees with n unlabeled vertices, n = 1..17.
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320, 48629)


def test_class_counts_match_a000055():
    for n, expected in enumerate(A000055, start=1):
        assert sum(1 for _ in generate_trees(n)) == expected


def test_generator_matches_filtered_stream():
    # Skipping rejected blocks must not change the stream: compare with the
    # generator that tests every rooted sequence.
    for n in range(1, 17):
        assert [c.levels for c in generate_trees(n)] == filtered_stream(n)


def first_subtree(levels):
    return levels[:levels.index(1, 2)] if levels.count(1) > 1 else levels


def test_block_slices_concatenate_to_stream():
    # Workers generate one first-subtree block each from its start: the
    # slices, in block order, must be the whole stream, and each slice one
    # block that no other slice shares.
    for n in range(1, 18):
        blocks = [list(block_trees(start)) for start in block_starts(n)]
        stream = [levels for block in blocks for levels in block]
        assert stream == filtered_stream(n)
        assert stream == [c.levels for c in generate_trees(n)]
        heads = [first_subtree(block[0]) for block in blocks]
        assert len(set(heads)) == len(heads)
        for head, block in zip(heads, blocks):
            assert {first_subtree(levels) for levels in block} == {head}


def strictly_decreasing(rests):
    return all(a > b for a, b in zip(rests, rests[1:]))


def test_every_block_is_one_run_of_its_rest_list():
    # Every block of orders 1..18: its run of the rest list for its size
    # equals the plain successor stream of the block, and its rests are one
    # contiguous run of all the order's rests of that size, sorted
    # decreasing.  The list stays strictly decreasing, which its bisections
    # rely on, and starts at the latest block's first rest.  In stream
    # order no rest is built twice: the list never drops a rest that a
    # later block reads.
    for n in range(1, 19):
        made, blocks = [], []
        rests = RestList(lambda rest, m: made.append(rest) or rest)
        for start in block_starts(n):
            m, run = rests.run(start)
            block = [levels[m:] for levels in block_trees(start)]
            assert run == block, start
            assert rests.rests[n - m][0] == start[m:], start
            assert strictly_decreasing(rests.rests[n - m]), start
            blocks.append((n - m, block))
        assert len(made) == len(set(made)), n
        every = {}
        for size, block in blocks:
            every.setdefault(size, set()).update(block)
        place = {size: {rest: i for i, rest in enumerate(sorted(rests, reverse=True))}
                 for size, rests in every.items()}
        for size, block in blocks:
            first = place[size][block[0]]
            assert [place[size][rest] for rest in block] == list(range(first, first + len(block)))


def test_rest_lists_serve_any_share_of_the_blocks():
    # A worker's lists see only its tasks' blocks: any share of them in
    # stream order gives each block its run, building each rest's item
    # once, and so do blocks that come in reverse (each starts over).  Each
    # list stays strictly decreasing and starts at the latest block's
    # first rest.
    rng = random.Random(19)
    for n in range(8, 16):
        starts = list(block_starts(n))
        picked = sorted(rng.sample(range(len(starts)), len(starts) // 3))
        for share, in_order in (([starts[i] for i in picked], True), (starts[::-1], False)):
            made = []
            rests = RestList(lambda rest, m: made.append(rest) or rest)
            for start in share:
                m, run = rests.run(start)
                assert run == [levels[m:] for levels in block_trees(start)], start
                assert rests.items[n - m] == rests.rests[n - m]
                assert rests.rests[n - m][0] == start[m:], start
                assert strictly_decreasing(rests.rests[n - m]), start
            if in_order:
                assert len(made) == len(set(made))


def test_block_starts_match_stepwise_walk():
    # The walk with only the jump past oversized first subtrees must not
    # change the block starts: compare with the walk that tests every
    # block with more than one root child.
    for n in range(1, 19):
        assert list(block_starts(n)) == list(stepwise_block_starts(n))


def test_block_starts_hold_free_trees():
    # Why the walk tests no block: every start's rest of the tree is its
    # first subtree repeated, cut to length, and the start is canonical.
    # The oracle needs a first subtree, so the single vertex is checked
    # on its own.
    assert list(block_starts(1)) == [(0,)]
    for n in range(2, 19):
        for start in block_starts(n):
            m = _first_subtree_end(start)
            assert start[m:] == (start[1:m] * n)[:n - m], start
            assert _is_center_rooted(start), start


def test_rest_floor_decides_canonicity():
    # The floor comparison against the oracle's height/size/lex split, on
    # every canonical rooted sequence of orders 2..14 (53,271 of them),
    # stepped from the path rooted at an end.  The single vertex's empty
    # rest meets its empty floor.
    assert [] >= _rest_floor([0], 1)
    for n in range(2, 15):
        levels = list(range(n))
        while True:
            m = _first_subtree_end(levels)
            assert (levels[m:] >= _rest_floor(levels, m)) == _is_center_rooted(levels), levels
            if not _rooted_successor(levels, n - 1, 0):
                break


def counted_floors(monkeypatch):
    calls = [0]
    floor = treegen_module._rest_floor

    def counting(*args):
        calls[0] += 1
        return floor(*args)

    monkeypatch.setattr(treegen_module, "_rest_floor", counting)
    return calls


def test_generator_skips_rejected_blocks(monkeypatch):
    # Order 16's 1,230 blocks each compute their floor once, and every
    # sequence in a block compares its rest with it: nothing runs per tree.
    calls = counted_floors(monkeypatch)
    assert sum(1 for _ in generate_trees(16)) == 19320
    assert calls[0] == 1230


def test_block_walk_skips_oversized_first_subtrees(monkeypatch):
    # 5,373 blocks of order 18 hold free trees; the walk that tests every
    # block makes 305,951 tests to find them, and this one computes no
    # floor.
    calls = counted_floors(monkeypatch)
    assert sum(1 for _ in block_starts(18)) == 5373
    assert calls[0] == 0


def forest_fields(forest):
    return forest.n, forest.edges, forest.adj, forest.components


def test_decode_equals_build_forest():
    for n in range(1, 15):
        for code in generate_trees(n):
            edges = [(p, child) for child, p in enumerate(code.parents(), start=1)]
            assert forest_fields(code.decode()) == forest_fields(build_forest(n, edges))


@pytest.mark.parametrize("levels, message", [
    ((0, 0), "level 0 at position 1 is outside 1..1"),
    ((1, 0), "level 1 at position 0 is outside 0..0"),
    ((0, 0, 1), "level 0 at position 1 is outside 1..1"),
    ((), "level sequence is empty"),
    ((0, 1, 3, 1), "level 3 at position 2 is outside 1..2"),
    ((0, 5), "level 5 at position 1 is outside 1..1"),
], ids=["0,0", "1,0", "0,0,1", "empty", "0,1,3,1", "0,5"])
def test_levels_that_are_not_a_tree_are_rejected(levels, message):
    code = CanonicalCode(levels)
    with pytest.raises(ValueError, match=message):
        code.parents()
    with pytest.raises(ValueError, match=message):
        code.decode()


def test_generated_codes_are_distinct_and_increasing():
    for n in range(1, 11):
        codes = list(generate_trees(n))
        assert len(set(codes)) == len(codes)
        for a, b in zip(codes, codes[1:]):
            assert a < b


def test_codes_do_not_order_against_other_types():
    code = CanonicalCode((0,))
    for other in (1, None, (0,)):
        with pytest.raises(TypeError):
            code < other
        with pytest.raises(TypeError):
            other > code
    with pytest.raises(TypeError):
        sorted([code, None])
    assert code != (0,)


def test_decode_gives_connected_acyclic_tree():
    for n in range(1, 11):
        for code in generate_trees(n):
            forest = code.decode()
            assert forest.n == n
            assert forest.component_count == 1
            assert len(forest.edges) == n - 1


def test_decode_then_encode_is_identity():
    rng = random.Random(1986)
    for n in range(1, 13):
        for code in generate_trees(n):
            assert canonical_code(code.decode()) == code
            assert canonical_code(relabeled(code.decode(), rng)) == code


def random_recursive_tree(rng, max_order):
    n = rng.randint(1, max_order)
    return build_forest(n, [(rng.randrange(child), child) for child in range(1, n)])


def test_encoding_matches_the_spliced_halves():
    # The codes of the rooting the generator accepts equal those of the
    # old construction, which rooted a bicentral tree's halves apart.
    rng = random.Random(15)
    for _ in range(2000):
        tree = relabeled(random_recursive_tree(rng, 199), rng)
        assert canonical_code(tree) == spliced_canonical_code(tree)
    for _ in range(300):
        parts = [random_recursive_tree(rng, 30) for _ in range(rng.randint(2, 6))]
        forest = relabeled(disjoint_union(*parts), rng)
        for component in range(forest.component_count):
            assert canonical_code(forest, component) == spliced_canonical_code(forest, component)


def test_ranked_levels_match_the_splice():
    # Every rooting at a center of every tree of orders 1..12, decoded and
    # relabelled, and of 3,000 seeded random trees and spiders up to order
    # 60, against the splice that copied O(n * height) elements; the codes
    # against the construction that rooted a bicentral tree's halves apart.
    rng = random.Random(100000)
    trees = [tree for n in range(1, 13) for code in generate_trees(n)
             for tree in (code.decode(), relabeled(code.decode(), rng))]
    trees += [random_tree(rng) for _ in range(3000)]
    for tree in trees:
        for center in _tree_centers(tree.adj, tree.components[0]):
            rooting = root_at(tree, center)
            assert _rooted_levels(rooting) == spliced_rooted_levels(rooting)
        assert canonical_code(tree) == spliced_canonical_code(tree)


def test_encoding_at_scale_has_closed_forms():
    rng = random.Random(20000)
    n, k = 20000, 5000
    cases = [
        (path(n), (*range(n // 2 + 1), *range(1, (n + 1) // 2))),
        (star(n), (0,) + (1,) * n),
        (spider(*[2] * k), (0,) + (1, 2) * k),
    ]
    for tree, levels in cases:
        assert canonical_code(tree).levels == levels
        assert canonical_code(relabeled(tree, rng)).levels == levels
    # The deepest tree of 10^5 vertices: the splice copied about 2.5e9
    # elements for it.
    n = 100000
    assert canonical_code(path(n)).levels == (*range(n // 2 + 1), *range(1, (n + 1) // 2))


@pytest.mark.parametrize("forest, component", [
    (disjoint_union(path(3), star(2)), -1),
    (disjoint_union(path(3), star(2)), 5),
    (build_forest(0, []), 0),
])
def test_encoding_rejects_a_missing_component(forest, component):
    count = forest.component_count
    with pytest.raises(ValueError, match=f"component {component} is not one of the forest's {count} components"):
        canonical_code(forest, component)


def test_generated_trees_pairwise_nonisomorphic():
    for n in range(1, 7):
        forests = [code.decode() for code in generate_trees(n)]
        for a, b in itertools.combinations(forests, 2):
            assert not brute_force_isomorphic(n, a.edges, b.edges)


def test_automorphism_weighted_counts_hit_cayley_total():
    # Sum of n!/|Aut(T)| over one representative per class must equal the
    # number of labeled trees; misses and duplicates both break it.
    import math
    for n in range(1, 15):
        total = 0
        for code in generate_trees(n):
            forest = code.decode()
            total += math.factorial(n) // automorphism_count(n, forest.edges)
        assert total == labeled_tree_total(n)


@settings(max_examples=60, deadline=None)
@given(labeled_trees(max_order=8), st.randoms(use_true_random=False))
def test_encoding_is_invariant_under_relabeling(tree, rng):
    relabeling = list(range(tree.n))
    rng.shuffle(relabeling)
    shuffled = build_forest(tree.n, [(relabeling[u], relabeling[v]) for u, v in tree.edges])
    assert canonical_code(shuffled) == canonical_code(tree)


@settings(max_examples=60, deadline=None)
@given(labeled_trees(max_order=8))
def test_encoding_agrees_with_oracle_key(tree):
    # Equal package codes exactly when the independent oracle keys match;
    # spot-checked against a fixed pool of shapes.
    pool = [path(5), star(4), spider(2, 2, 1), spider(2, 1, 1, 1), path(8)]
    for other in pool:
        if other.n != tree.n:
            continue
        same_code = canonical_code(other) == canonical_code(tree)
        same_key = free_key(tree.n, tree.edges) == free_key(other.n, other.edges)
        assert same_code == same_key


def test_code_string_round_trip():
    for n in range(1, 9):
        for code in generate_trees(n):
            text = code.to_string()
            fresh = CanonicalCode(code.levels)
            assert CanonicalCode.from_string(text) == code == fresh
            assert hash(code) == hash(fresh) and repr(code) == repr(fresh)
            assert text.startswith(f"c {n}")


def test_code_string_rejects_garbage():
    with pytest.raises(ValueError):
        CanonicalCode.from_string("x 3 0 0")
    with pytest.raises(ValueError):
        CanonicalCode.from_string("c 3 0")
    with pytest.raises(ValueError):
        CanonicalCode.from_string("c 3 0 2")


@pytest.mark.parametrize("text, message", [
    ("", "must start with 'c'"),
    ("c", "needs an order"),
    ("c 0", "order must be at least 1, got 0"),
    ("c -1", "order must be at least 1, got -1"),
    ("c 2 x", "entries must be integers"),
    ("c two", "entries must be integers"),
    ("c 3 0", "expected 2 parent entries, got 1"),
    ("c 3 0 2", "parent index 2 of vertex 2 out of range"),
    # Parent lists out of preorder: the first once read back as another
    # tree, the second as levels that decode rejects.
    ("c 4 0 0 1", "parent 1 of vertex 3 is neither vertex 2 nor one of its ancestors"),
    ("c 5 0 1 0 2", "parent 2 of vertex 4 is neither vertex 3 nor one of its ancestors"),
])
def test_code_string_errors_name_the_fault(text, message):
    with pytest.raises(ValueError, match=message):
        CanonicalCode.from_string(text)


def test_parents_and_code_string_match_stack_oracle():
    codes = [code for n in range(1, 17) for code in generate_trees(n)]
    # Orders, and on the path parent ids, past the table of small-int strings.
    codes += [canonical_code(path(2000)), canonical_code(star(1999))]
    for code in codes:
        parents = stack_parents(code.levels)
        assert code.parents() == parents
        assert code.to_string() == " ".join(["c", str(code.n), *map(str, parents)])
    assert max(codes[-2].parents()) > 255


def test_parent_indices_precede_children():
    for code in generate_trees(9):
        for child, parent in enumerate(code.parents(), start=1):
            assert parent < child


def test_stream_supports_contiguous_partitioning():
    whole = list(generate_trees(9))
    # Consuming the stream in two chunks reproduces the same content.
    first = list(itertools.islice(generate_trees(9), 20))
    rest = list(itertools.islice(generate_trees(9), 20, None))
    assert first + rest == whole


def test_generate_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        list(generate_trees(0))


def test_encode_known_shapes():
    # The path encodes as the deepest code of its order, the star as the
    # flattest; they bracket every other tree of the same order.
    n = 7
    codes = list(generate_trees(n))
    assert canonical_code(path(n)) == codes[0]
    assert canonical_code(star(n - 1)) == codes[-1]
