"""The per-child merges do not depend on the order children are merged in.

The flat folds merge a vertex's children from the last position to the
first, and the sweep merges a root's children in level-sequence order,
first to last.  Both give the same records only because each merge is
order-independent; these tests pin that down.
"""

import functools
import itertools
import random

from domcount.domination import MDS_LEAF, _mds_merge, mds_table
from domcount.forest import build_forest, root_at
from domcount.independence import MIS_LEAF, _mis_merge, mis_table
from domcount.treegen import generate_trees

# Vertices with more children than this get sampled orders instead of all.
MAX_PERMUTED = 6


def fold(merge, leaf, records):
    return functools.reduce(merge, records, leaf)


def check_orders(tree, orders_of):
    """Each vertex's record, refolded from its children's records in each
    order ``orders_of`` gives, equals the table's record."""
    mds, mis = mds_table(tree.parent), mis_table(tree.parent)
    for i, kids in enumerate(tree.child_positions()):
        for order in orders_of(kids):
            assert fold(_mds_merge, MDS_LEAF, [mds[c] for c in order]) == mds[i]
            assert fold(_mis_merge, MIS_LEAF, [mis[c] for c in order]) == mis[i]


def test_every_order_of_children_gives_the_same_record():
    # Every rooting of every tree up to order 9: stars of 8 leaves, spiders
    # and caterpillars give roots with up to 8 children; up to MAX_PERMUTED
    # of them every permutation is folded.
    def orders_of(kids):
        if len(kids) > MAX_PERMUTED:
            return [kids, kids[::-1]]
        return itertools.permutations(kids)

    for n in range(1, 10):
        for code in generate_trees(n):
            forest = code.decode()
            for v in range(n):
                check_orders(root_at(forest, v), orders_of)


def test_random_orders_on_random_trees():
    rng = random.Random(40)

    def orders_of(kids):
        if len(kids) <= 4:
            return itertools.permutations(kids)
        shuffled = [rng.sample(kids, len(kids)) for _ in range(6)]
        return [kids, kids[::-1], *shuffled]

    for _ in range(300):
        n = rng.randint(1, 40)
        # Random recursive trees, and one in three with a high-degree hub.
        hub = rng.random() < 1 / 3
        edges = [(0 if hub and rng.random() < 0.5 else rng.randrange(child), child)
                 for child in range(1, n)]
        forest = build_forest(n, edges)
        check_orders(root_at(forest, rng.randrange(n)), orders_of)
