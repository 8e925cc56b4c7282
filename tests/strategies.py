"""Hypothesis strategies: random labeled trees and small forests; and a
seeded relabelling and seeded random trees for tests that draw from
``random.Random``."""

from hypothesis import strategies as st

from domcount.forest import build_forest, disjoint_union, spider


@st.composite
def labeled_trees(draw, min_order=1, max_order=9):
    n = draw(st.integers(min_order, max_order))
    edges = []
    for child in range(1, n):
        edges.append((draw(st.integers(0, child - 1)), child))
    return build_forest(n, edges)


@st.composite
def forests(draw, max_components=3, max_order=7):
    count = draw(st.integers(1, max_components))
    parts = [draw(labeled_trees(max_order=max_order)) for _ in range(count)]
    return disjoint_union(*parts)


@st.composite
def shuffled_forests(draw, max_components=4, max_order=6):
    """``forests`` with permuted labels, so components interleave; its
    trees of order 1 are isolated vertices."""
    parts = draw(forests(max_components, max_order))
    label = draw(st.permutations(range(parts.n)))
    return build_forest(parts.n, [(label[u], label[v]) for u, v in parts.edges])


def relabeled(forest, rng):
    """``forest`` with its vertex labels permuted by ``rng``."""
    labels = list(range(forest.n))
    rng.shuffle(labels)
    return build_forest(forest.n, [(labels[u], labels[v]) for u, v in forest.edges])


def random_tree(rng):
    """A random recursive tree or, one time in four, a spider with legs of
    length 1 to 3, its vertices shuffled by ``rng``; up to 60 vertices."""
    if rng.random() < 0.25:
        base = spider(*(rng.choice((1, 2, 2, 2, 3)) for _ in range(rng.randint(1, 12))))
        n, edges = base.n, base.edges
    else:
        n = rng.randint(1, 60)
        edges = [(rng.randrange(child), child) for child in range(1, n)]
    labels = list(range(n))
    rng.shuffle(labels)
    return build_forest(n, [(labels[u], labels[v]) for u, v in edges])
