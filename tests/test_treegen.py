import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    automorphism_count,
    brute_force_isomorphic,
    free_key,
    iso_class_count,
    labeled_tree_total,
)
from strategies import labeled_trees
from domcount.forest import build_forest, path, spider, star
from domcount.treegen import CanonicalCode, canonical_code, generate_trees


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
