"""The per-child merges do not depend on the order children are merged in.

The flat folds merge a vertex's children from the last position to the
first, and the sweep merges a root's children in level-sequence order,
first to last.  Both give the same records only because each merge is
order-independent; these tests pin that down.

The enumerators fold the same merges with set families in place of
counts.  So every order must also give the same sorted mask list per
state, and the count of an infeasible state (size None) is poisoned: a
merge that reads it fails.
"""

import functools
import itertools
import random

from domcount.domination import EMPTY_SET, MDS_LEAF, _mds_merge, _SetFamily
from domcount.forest import build_forest, root_at
from domcount.independence import MIS_LEAF, _mis_merge
from domcount.treegen import generate_trees
from oracles import child_positions, fold_table, mds_table, mis_table

# Vertices with more children than this get sampled orders instead of all.
MAX_PERMUTED = 6


def fold(merge, leaf, records):
    return functools.reduce(merge, records, leaf)


class Poison:
    """The count of an infeasible state: any arithmetic on it fails."""

    def fail(self, _):
        raise AssertionError("a merge read the count of an infeasible state")

    __add__ = __radd__ = __mul__ = __rmul__ = fail


POISON = Poison()


def poisoned(record):
    """``record`` with the count of each state of size None poisoned."""
    return tuple(POISON if i % 2 and record[i - 1] is None else x for i, x in enumerate(record))


# Per counter: its table, leaf record and merge, and its leaf record with
# vertex v's set family; the infeasible sigma1 of a leaf is poisoned.
KINDS = ((mds_table, MDS_LEAF, _mds_merge, lambda v: (1, _SetFamily([1 << v]), None, POISON, 0, EMPTY_SET)),
         (mis_table, MIS_LEAF, _mis_merge, lambda v: (1, _SetFamily([1 << v]), 0, EMPTY_SET)))


def sorted_masks(record):
    """Per state, its size and, when feasible, its sorted masks."""
    return [(size, None if size is None else sorted(family.masks))
            for size, family in zip(record[::2], record[1::2])]


def check_orders(tree, orders_of):
    """Each vertex's record, refolded from its children's records in each
    order ``orders_of`` gives, equals the table's record, with counts and
    with set families; each family has as many sets as its count says."""
    orders = [list(orders_of(kids)) for kids in child_positions(tree.parent)]
    for table, leaf, merge, family_leaf in KINDS:
        def family_merge(acc, child, merge=merge):
            return poisoned(merge(acc, child))
        counts = table(tree.parent)
        families = fold_table(tree.parent, [family_leaf(v) for v in tree.order], family_merge)
        for i, vertex_orders in enumerate(orders):
            expected = sorted_masks(families[i])
            assert [(size, 0 if masks is None else len(masks)) for size, masks in expected] == \
                list(zip(counts[i][::2], counts[i][1::2]))
            for order in vertex_orders:
                assert fold(merge, leaf, [counts[c] for c in order]) == counts[i]
                refolded = fold(family_merge, family_leaf(tree.order[i]), [families[c] for c in order])
                assert sorted_masks(refolded) == expected


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
