import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domcount.treegen as treegen_module
from oracles import (
    automorphism_count,
    brute_force_isomorphic,
    filtered_free_levels,
    free_key,
    iso_class_count,
    labeled_tree_total,
    stack_parents,
    stepwise_block_starts,
)
from strategies import labeled_trees
from domcount.forest import build_forest, path, spider, star
from domcount.treegen import (
    CanonicalCode,
    block_starts,
    block_trees,
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


def test_block_starts_match_stepwise_walk():
    # The jump past oversized first subtrees must not change the block
    # starts: compare with the walk that tests every block.
    for n in range(1, 18):
        assert list(block_starts(n)) == list(stepwise_block_starts(n))


def counted_canonicity_tests(monkeypatch):
    calls = [0]
    test = treegen_module._is_free_canonical

    def counting(*args):
        calls[0] += 1
        return test(*args)

    monkeypatch.setattr(treegen_module, "_is_free_canonical", counting)
    return calls


def test_generator_skips_rejected_blocks(monkeypatch):
    # Canonicity tests made at order 16: one per block the walk does not
    # jump over and one per further tree of an accepted block.  Without
    # any skip the generator makes one per rooted sequence, 185,032 of
    # them; without the jump past oversized first subtrees, 59,805.
    calls = counted_canonicity_tests(monkeypatch)
    assert sum(1 for _ in generate_trees(16)) == 19320
    assert calls[0] <= 20_543


def test_block_walk_skips_oversized_first_subtrees(monkeypatch):
    # 5,373 blocks of order 18 hold free trees; the walk that tests every
    # block makes 305,951 tests to find them, and this one rejects a single
    # block.
    calls = counted_canonicity_tests(monkeypatch)
    assert sum(1 for _ in block_starts(18)) == 5373
    assert calls[0] <= 5_374


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


def test_decode_gives_connected_acyclic_tree():
    for n in range(1, 11):
        for code in generate_trees(n):
            forest = code.decode()
            assert forest.n == n
            assert forest.component_count == 1
            assert len(forest.edges) == n - 1


def test_decode_then_encode_is_identity():
    for n in range(1, 11):
        for code in generate_trees(n):
            assert canonical_code(code.decode()) == code


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
