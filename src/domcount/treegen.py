"""Canonical codes for free trees and exhaustive generation by order.

A free tree is identified up to isomorphism by a canonical level sequence:
the depth of every vertex in preorder, rooted at a center of the tree,
with sibling subtrees arranged in lexicographically decreasing order; a
bicentral tree is rooted at the center with the bigger (on equal sizes,
the lexicographically later) half.  ``canonical_code`` keeps whichever
center rooting passes the generator's own rule, ``_rest_floor``.

Generation steps through canonical *rooted* level sequences (Beyer and
Hedetniemi's successor, in decreasing lexicographic order, starting from
the path rooted at its center) and keeps exactly the sequences that are
canonical for their free tree.  The stream is cut into first-subtree
blocks, as in Wright, Richmond, Odlyzko and McKay's free-tree generator: a
block is the run of sequences that share their root's first subtree S.
A sequence is canonical exactly when the rest of the tree, the levels
after S, is at least S's floor (``_rest_floor``).  Within a block the
floor is fixed and the rest only decreases, so a block's trees are
exactly its rests from the first, S repeated (see the walk below), down
to the floor.

``generate_trees`` is ``block_starts`` and one ``RestList`` for the
order.  ``block_starts`` visits each block once: it yields the block's
first sequence and jumps to its last, where the rest is all leaves under
the root; the successor moves on from there.  ``RestList.run(start)``
then finds the block's first subtree and gives the block's rests as one
run of the list for their size (see "Rest lists" below).  The exhaustive
sweep drives its blocks the same way: the walk runs in its parent
process, and each worker keeps one ``RestList`` per order, whose items
are the rests' sweep entries.

A first subtree can be too big for its tree.  Let d be its depth (its
levels start 1, 2, ..., d) and ``budget = n - d``.  Every floor starts
``[1, ..., d - 1]``, so a first subtree of more than ``budget`` vertices,
leaving the rest fewer than d - 1 vertices, is rejected, and the walk skips
ahead.  No sequence it visits is larger than the centrally rooted path it
starts from, so d <= n // 2 <= ``budget``, and the first ``budget``
vertices after the root hold the whole path 1..d.  The sequences that
follow, down to the first whose root's first subtree is exactly positions
1..budget, keep ``levels[:budget + 1]`` and have a level of at least 2 at
position ``budget + 1``: their first subtrees have depth at least d and
more than ``budget`` vertices.  The block that first subtree starts is
rejected too: its rest has d - 1 vertices, d with the root, no more than
the first subtree's ``budget``.  If fewer, its floor ``[1, ..., d]`` is
longer than the rest; on equal sizes only a path passes, the centrally
rooted path the walk starts from, larger than any sequence it jumps from.
So the walk jumps to the end of that block, as if the first subtree ended
at position ``budget``.

That one jump is the whole walk; it needs no other rule or test:

- A single root child.  For n >= 3 the first subtree has n - 1 vertices
  and depth d >= 2, more than ``budget = n - d``, so the jump skips the
  block.  Orders 1 and 2 run the same loop: their one sequence is the
  centrally rooted path, whose first subtree (empty at order 1) fits.
- Every block the walk reaches without jumping holds a free tree.  The
  first sequence is the centrally rooted path, a free code.  Every later
  start comes from the rooted successor at a position p inside the
  previous first subtree, after that block's rest was set to leaves (after
  a jump, inside its first ``budget`` positions).  If ``levels[p] > 2``,
  the new sequence repeats p's parent's subtree from p on, so its root has
  a single child, and the walk jumps past it.  If ``levels[p] == 2``, p's
  parent is position 1, the only 1 before p, so the new first subtree S
  is ``levels[1:p]`` and the rest is S repeated, cut to length.  S has
  depth d <= d', the previous first subtree's depth, and s = p - 1 <=
  n - d' - 1 vertices, since p is at most that subtree's end less one,
  at most n - d'.  So the rest has n - 1 - s >= d vertices and reaches
  depth d: it is at least ``[1, ..., d]``, hence at least S's floor.

Rest lists.  The rooted successor with ``low = m`` reads and writes only
positions from m on: the last position p from m on deeper than 1, and its
parent q, which lies between m and p because ``levels[m]`` is 1.  So it
steps the rest alone: it is the successor of ``(0,) + rest`` as a rooted
sequence of its own, which has no position below 1 to change, and
``RestList`` runs it on the rest alone.  The rests of size r a successor
chain visits are thus a run of one list, the canonical rooted sequences
of r + 1 vertices in decreasing order, each without its root.  A
``RestList`` keeps one such list per rest size of its order, so the
first subtree before every rest of a list ends at the same position.
Two facts make every block one slice of its list:

- A block's trees are one contiguous run of the list.  A rest's first
  child subtree runs from its first entry to its second 1.  If rest B is
  below rest A, B's first child is at most A's: they agree up to the
  first entry where B is smaller.  If that entry lies past A's first
  child, the two share it; if inside, B there either ends its first child
  (a 1) or goes on smaller.  So the rests whose first child is at most
  the block's first subtree S, the rests that keep the sequence a
  canonical rooted one, are a suffix of the list, and it starts at the
  block's first rest, S repeated and cut to length (see the walk above).  The rests at
  least the block's floor are a prefix of the list.  The block is the
  overlap, from S repeated down to the last rest at least the floor, and
  the successor steps through it one rest at a time.
- A list holds one successor chain, from the first rest of the latest
  block it served down.  ``RestList.run`` bisects the list for the
  block's first rest.  If it is listed, the entries above it go; if not,
  the list starts over with it.  Either way the list now starts at the
  block's first rest, and successor steps extend it down to the floor, so
  nothing is missing from the block's run.  In stream order, a block's
  first rest is at most the previous first rest of its order and size,
  and its run goes down from there, so no later block reads a dropped
  rest.  A first rest that is not listed lies below the list's end (the
  chain holds every rest between its ends) or, out of stream order, above
  its start.  Both cases start over; in stream order the rests between
  the old end and the new start lie above every later block's first rest,
  so no block reads them.

Each list is strictly decreasing, as the successor steps down.  So each
block costs two bisections, for its first rest and of its floor, and a
successor walk only for rests not listed yet: the lists' cost grows with
rests and blocks, not trees.  In stream order each rest is listed once,
and a list holds no rest above the latest first rest of its size.

Correctness is not taken on faith: the tests check the stream and the
block slices against a generator without any skip and against the plain
successor stream of each block, every block's rests against one run of
the sorted list of all its order's rests of that size, the block starts
against the walk without the size jump, the floor against an independent
center test, and the stream against a labeled-tree oracle, OEIS A000055
and an automorphism-weighted count identity.

Codes carry a total order under which the stream is strictly increasing:
smaller orders first, and within one order path-like (deep) trees before
star-like (flat) ones.
"""

from __future__ import annotations

import bisect
import collections
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import total_ordering

from .forest import Forest, RootedTree, root_at


@total_ordering
@dataclass(frozen=True)
class CanonicalCode:
    levels: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.levels)

    def _key(self):
        return (len(self.levels), tuple(-x for x in self.levels))

    def __lt__(self, other: "CanonicalCode") -> bool:
        if not isinstance(other, CanonicalCode):
            return NotImplemented
        return self._key() < other._key()

    def parents(self) -> tuple[int, ...]:
        """Parent index of vertices 1..n-1 in canonical preorder.  A tree's
        levels start with 0 and each later one lies in 1..previous + 1;
        other levels raise ``ValueError`` naming the first bad position."""
        levels = self.levels
        if not levels:
            raise ValueError("level sequence is empty")
        low = high = 0
        for i, level in enumerate(levels):
            if not low <= level <= high:
                raise ValueError(f"level {level} at position {i} is outside {low}..{high}")
            low, high = 1, level + 1
        return tuple(_parent_names(levels, range(self.n)))

    def to_string(self) -> str:
        """``c n`` and the parents of vertices 1..n-1.  Expects a tree's
        levels and, unlike ``parents``, does not check them."""
        return " ".join(["c", str(self.n), *map(str, _parent_names(self.levels, range(self.n)))])

    @classmethod
    def from_string(cls, text: str) -> "CanonicalCode":
        tokens = text.split()
        if not tokens or tokens[0] != "c":
            raise ValueError(f"canonical code must start with 'c', got {text!r}")
        if len(tokens) < 2:
            raise ValueError(f"canonical code needs an order after 'c', got {text!r}")
        try:
            n, *parents = map(int, tokens[1:])
        except ValueError:
            raise ValueError(f"canonical code entries must be integers, got {text!r}") from None
        if n < 1:
            raise ValueError(f"canonical code order must be at least 1, got {n}")
        if len(parents) != n - 1:
            raise ValueError(f"expected {n - 1} parent entries, got {len(parents)}")
        # In preorder a vertex's parent is the previous vertex or one of its
        # ancestors, which ``path`` holds by level.
        levels, path = [0], [0]
        for child, p in enumerate(parents, start=1):
            if not 0 <= p < child:
                raise ValueError(f"parent index {p} of vertex {child} out of range")
            level = levels[p] + 1
            if path[level - 1:level] != [p]:
                raise ValueError(f"parent {p} of vertex {child} is neither vertex {child - 1} "
                                 "nor one of its ancestors: not in preorder")
            del path[level:]
            path.append(child)
            levels.append(level)
        return cls(tuple(levels))

    def decode(self) -> Forest:
        """Rebuild the tree, labeled 0..n-1 in canonical preorder.

        Every parent precedes its child and children are appended in
        increasing order, so each adjacency list comes out sorted, as
        ``build_forest`` would leave it.  The preorder itself is kept as
        the tree's rooting at vertex 0.  Levels that are not a tree's
        raise ``ValueError`` (see ``parents``).
        """
        n = self.n
        parents = self.parents()
        adj: list[list[int]] = [[] for _ in range(n)]
        for child, p in enumerate(parents, start=1):
            adj[p].append(child)
            adj[child].append(p)
        vertices = list(range(n))
        return Forest(n=n, edges=sorted(zip(parents, range(1, n))), adj=adj,
                      components=[vertices],
                      rooted={0: RootedTree(order=vertices, parent=[-1, *parents])})


def _parent_names(levels, names) -> list:
    """``names[p]`` for the parent p of each vertex 1..n-1, in preorder.

    One scan keeps the last vertex seen at each level; a vertex's parent
    is the last one a level above it.  Vertex 0 is the root.  ``levels``
    must be a tree's; ``CanonicalCode.parents`` checks them.
    """
    last = [0] * len(levels)
    out = []
    for i in range(1, len(levels)):
        level = levels[i]
        out.append(names[last[level - 1]])
        last[level] = i
    return out


def _first_subtree_end(levels) -> int:
    """Position just past the root's first subtree: its second child, or n.

    ``levels[1]`` is the first child, so a second 1 marks the second child.
    """
    return levels.index(1, 2) if levels.count(1) > 1 else len(levels)


def _rest_floor(levels, m: int) -> list[int]:
    """The smallest rest ``levels[m:]`` that keeps the root a center, for
    ``m = _first_subtree_end(levels)``: the sequence is canonical exactly
    when ``levels[m:] >= floor``, both lists.

    Let d be the first subtree's depth (0 for the single vertex).  In a
    canonical sequence the first subtree is the deepest, so the rest
    reaches depth h exactly when it is at least ``[1, ..., h]``, and never
    reaches d + 1.  The root is a center when the rest reaches d, or reaches d - 1
    and the first subtree (m - 1 vertices) is not the bigger half (the
    rest with the root has n - m + 1) nor, on equal sizes, the
    lexicographically later one.  So the floor is:

    - ``[1, ..., d - 1]`` for a smaller first subtree;
    - ``[1, ..., d]`` for a bigger one;
    - on equal sizes, the first subtree lifted one level without its root,
      ``levels[2:m]`` each minus 1.  It starts 1, ..., d - 1 and stays
      below d: a rest that reaches d is above it, one short of d - 1 below.
    """
    depth = max(levels[1:m], default=0)
    left_size, rest_size = m - 1, len(levels) - m + 1
    if left_size == rest_size:
        return [x - 1 for x in levels[2:m]]
    return list(range(1, depth if left_size < rest_size else depth + 1))


def block_starts(n: int) -> Iterator[tuple[int, ...]]:
    """First sequence of every first-subtree block of order n that holds a
    free tree, in stream order.

    Each block is visited once: the walk yields its first sequence
    untested, then jumps to the block's end.  Runs of blocks whose first
    subtree is too big for the tree, single root children among them, are
    skipped.  Every other block holds a free tree: its rest is its first
    subtree S repeated, long enough to reach S's depth, so it is at least
    S's floor (see the module docstring).
    """
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    # Path rooted at its center: the largest canonical free code of order n.
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = _first_subtree_end(levels)
        budget = n - max(levels[1:m], default=0)
        if m - 1 > budget:
            # Too big a first subtree: every block down to the end of the
            # one whose first subtree is the first ``budget`` vertices is
            # rejected, so jump to that block's end.
            m = budget + 1
        else:
            yield tuple(levels)
        # Jump to the last sequence of this block: the rest of the tree
        # becomes leaves under the root.
        levels[m:] = [1] * (n - m)
        if not _rooted_successor(levels, m - 1, 0):
            return


def _rooted_successor(levels: list[int], p: int, low: int) -> bool:
    """Step ``levels`` to its rooted successor, in place, if that changes no
    position below ``low``; say whether it did.

    p is the last position deeper than 1 at or before the given one, and q
    its parent; from p on, the stretch q..p-1 repeats.
    """
    while p >= low and levels[p] <= 1:
        p -= 1
    if p < low:
        return False
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    n = len(levels)
    levels[p:] = (levels[q:p] * ((n - q) // (p - q)))[:n - p]
    return True


class RestList:
    """One order's rests of the tree, in decreasing order per rest size:
    ``rests[size]`` is one successor chain from the first rest of the
    latest block of that size served, down as far as that block needs (see
    "Rest lists" in the module docstring).

    ``items[size][i]`` is ``item(rests[size][i], m)``, built when the rest
    is listed, m the end of the first subtree before it.
    """

    def __init__(self, item: Callable[[tuple[int, ...], int], object]):
        self.rests: dict[int, list[tuple[int, ...]]] = collections.defaultdict(list)
        self.items: dict[int, list] = collections.defaultdict(list)
        self._item = item

    def run(self, start: tuple[int, ...]) -> tuple[int, list]:
        """The end m of the first subtree of the block at ``start``, and the
        items of the block's rests in stream order.  The list for their
        size then starts at the block's first rest."""
        m = _first_subtree_end(start)
        size = len(start) - m
        rests, items, item = self.rests[size], self.items[size], self._item
        top = start[m:]
        # In stream order no later block reads a rest above top.
        lo = bisect.bisect_left(rests, True, key=top.__ge__)
        if rests[lo:lo + 1] == [top]:
            del rests[:lo], items[:lo]
        else:
            rests[:] = [top]
            items[:] = [item(top, m)]
        floor = tuple(_rest_floor(start, m))
        if rests[-1] >= floor:
            levels = list(rests[-1])
            while _rooted_successor(levels, len(levels) - 1, 0):
                rest = tuple(levels)
                if rest < floor:
                    break
                rests.append(rest)
                items.append(item(rest, m))
        # The rests at least the floor are a prefix of the decreasing list.
        return m, items[:bisect.bisect_left(rests, True, key=floor.__gt__)]


def generate_trees(n: int) -> Iterator[CanonicalCode]:
    """Yield one CanonicalCode per isomorphism class of free trees of order n.

    The stream is deterministic and strictly increasing in code order.
    """
    rests = RestList(lambda rest, m: rest)
    for start in block_starts(n):
        m, run = rests.run(start)
        head = start[:m]
        for rest in run:
            yield CanonicalCode(head + rest)


def _tree_centers(adj: list[list[int]], vertices: list[int]) -> list[int]:
    """Centers of a tree by iterative leaf stripping (one or two vertices)."""
    if len(vertices) <= 2:
        return sorted(vertices)
    degree = {v: len(adj[v]) for v in vertices}
    layer = [v for v in vertices if degree[v] == 1]
    remaining = len(vertices)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                if degree[w] > 1:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def _rooted_levels(tree: RootedTree) -> list[int]:
    """Canonical level sequence of a rooting, in O(n log n).

    Vertices are ranked depth by depth, deepest first.  A vertex's key is
    its children's ranks in decreasing order, and its rank is its key's
    place among the distinct keys of its depth.  Each child's sequence
    starts one level below its parent and goes on deeper, so sequences
    of one depth compare as their keys do, and writing each key's
    children in order gives the canonical preorder.
    """
    parent = tree.parent
    n = len(parent)
    depth = [0] * n
    for i in range(1, n):
        depth[i] = depth[parent[i]] + 1
    layers: list = [[] for _ in range(max(depth) + 1)]
    for i in range(n):
        layers[depth[i]].append(i)
    child_ranks: list = [[] for _ in range(n)]
    keys: list = [None] * len(layers)  # keys[d][r]: the key of rank r at depth d
    for d in range(len(layers) - 1, 0, -1):
        layer = layers[d]
        layer_keys = []
        for v in layer:
            ranks = child_ranks[v]
            ranks.sort(reverse=True)
            layer_keys.append(tuple(ranks))
        keys[d] = sorted(set(layer_keys))
        rank = {key: r for r, key in enumerate(keys[d])}
        for v, key in zip(layer, layer_keys):
            child_ranks[parent[v]].append(rank[key])
    levels = []
    stack = [(0, sorted(child_ranks[0], reverse=True))]
    while stack:
        d, key = stack.pop()
        levels.append(d)
        d += 1
        stack += [(d, keys[d][r]) for r in reversed(key)]
    return levels


def canonical_code(forest: Forest, component: int = 0) -> CanonicalCode:
    """Canonical code of one tree component of a forest: its first center
    rooting whose rest is at least its floor (``_rest_floor``).  Of a
    bicentral tree's two rootings at least one passes, so the last center
    is kept untested, and so is a single center."""
    count = forest.component_count
    if not 0 <= component < count:
        raise ValueError(f"component {component} is not one of the forest's {count} components")
    *others, last = _tree_centers(forest.adj, forest.components[component])
    for center in others:
        levels = _rooted_levels(root_at(forest, center))
        m = _first_subtree_end(levels)
        if levels[m:] >= _rest_floor(levels, m):
            return CanonicalCode(tuple(levels))
    return CanonicalCode(tuple(_rooted_levels(root_at(forest, last))))
