"""Canonical codes for free trees and exhaustive generation by order.

A free tree is identified up to isomorphism by a canonical level sequence:
the depth of every vertex in preorder, rooted at a center of the tree,
with sibling subtrees arranged in lexicographically decreasing order.  For
a bicentral tree the rooting is fixed by comparing the two halves obtained
by cutting the central edge (larger half carries the root; equal-size
halves are compared lexicographically).

Generation steps through canonical *rooted* level sequences (Beyer and
Hedetniemi's successor, in decreasing lexicographic order, starting from
the path rooted at its center) and keeps exactly the sequences that are
canonical for their free tree.  The stream is cut into first-subtree
blocks, as in Wright, Richmond, Odlyzko and McKay's free-tree generator: a
block is the run of sequences that share their root's first subtree.
Within a block the first subtree and both sizes are fixed, and the rest of
the tree only decreases lexicographically, so its height (the length of
its initial run 0, 1, 2, ...) never grows.  Each rejection reason -- the
rest is shorter than the first subtree; on equal heights, it has fewer
vertices; on equal sizes too, it is lexicographically smaller -- therefore
holds until the block ends, and the accepted sequences of a block are a
prefix of it.

Generation is split in two steps, and ``generate_trees`` is their
composition.  ``block_starts`` visits each block once: it tests the
block's first sequence, yields it if accepted, and jumps to the block's
last sequence, where the rest of the tree is all leaves under the root;
the successor moves on from there.  ``block_trees`` steps from an accepted
start while each sequence is accepted and the successor keeps the first
subtree.  The exhaustive sweep runs the first step in its parent process
and the second in its workers.

A sequence whose root has a single child is a block of its own, and for
n > 2 it is always rejected: its root is a leaf, never a center.  So
``block_starts`` never tests one.  The successor of such a sequence lowers
only its last level, by one, so the sequences that follow it down to a
last level of 1 agree with it everywhere else; each has a single root
child too.  The walk therefore sets the last level to 1 at once.  That
sequence is a valid canonical rooted sequence: the root's first subtree is
the old one less its last vertex, still canonical, followed by a leaf,
which is the smallest possible sibling and the whole rest of its block.

A first subtree can also be too big for its tree.  Let d be its depth
(its levels start 1, 2, ..., d) and ``budget = n - d``.  To reach depth
d - 1 the rest of the tree needs d - 1 vertices besides the root, so a
first subtree of more than ``budget`` vertices leaves the root off
center, and the block is rejected.  The walk then skips ahead.  No
sequence it visits is larger than the centrally rooted path it starts
from, so d <= n // 2 <= ``budget``, and the first ``budget`` vertices
after the root hold the whole path 1..d.  The sequences that follow,
down to the first whose root's first subtree is exactly positions
1..budget, keep ``levels[:budget + 1]`` and have a level of at least 2
at position ``budget + 1``: their first subtrees have depth at least d
and more than ``budget`` vertices.  The block that first subtree starts
is rejected too: its rest has only d - 1 vertices besides the root, so
it reaches depth d - 1 only as a path, and then it has d vertices with
the root, no more than the first subtree's ``budget``.  On equal sizes
both halves are paths; that is the centrally rooted path the walk starts
from, which is larger than any sequence it jumps from.  So the walk
jumps to the end of that block, as if the first subtree ended at
position ``budget``.  At order 18 this cuts the walk's canonicity tests
from 305,951 to 5,374, one more than the 5,373 blocks that hold a free
tree.

Correctness is not taken on faith: the test suite checks the stream, and
the concatenated block slices, against the generator without any skip,
the block starts against the walk without the size jump,
an independent labeled-tree oracle, OEIS A000055 and an
automorphism-weighted count identity.

Codes carry a total order under which the stream is strictly increasing:
smaller orders first, and within one order path-like (deep) trees before
star-like (flat) ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator

from .forest import Forest, RootedTree


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
        levels and, unlike ``parents``, does not check them: the exhaustive
        sweep writes the code of every tree."""
        n = self.n
        names = _INT_STRINGS if n <= len(_INT_STRINGS) else tuple(map(str, range(n)))
        return " ".join(["c", str(n), *_parent_names(self.levels, names)])

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
        levels = [0]
        for child, p in enumerate(parents, start=1):
            if not 0 <= p < child:
                raise ValueError(f"parent index {p} of vertex {child} out of range")
            levels.append(levels[p] + 1)
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


# Decimal strings of the vertex ids that most codes use; to_string looks
# them up instead of formatting each parent id.
_INT_STRINGS = tuple(map(str, range(256)))


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


def _is_free_canonical(levels, m: int) -> bool:
    """Is this rooted sequence the canonical representative of its free tree?

    ``m`` is ``_first_subtree_end(levels)``.  The root must be a center:
    the first (tallest) subtree, re-rooted, may not be taller than the rest
    of the tree, and on equal heights the first subtree must not be bigger,
    nor lexicographically later, than the rest.
    """
    left_height = max(levels[1:m]) - 1
    rest_height = max(levels[m:], default=0)
    if rest_height != left_height:
        return rest_height > left_height
    left_size, rest_size = m - 1, len(levels) - m + 1
    if left_size != rest_size:
        return left_size < rest_size
    return [x - 1 for x in levels[1:m]] <= [0, *levels[m:]]


def block_starts(n: int) -> Iterator[tuple[int, ...]]:
    """First sequence of every first-subtree block of order n that holds a
    free tree, in stream order.

    Each block is visited once: its first sequence is tested, then the
    walk jumps to the block's end.  Sequences whose root has a single child,
    and runs of blocks whose first subtree is too big for the tree, are
    skipped untested.
    """
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    if n <= 2:
        yield tuple(range(n))
        return
    # Path rooted at its center: the largest canonical free code of order n.
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = _first_subtree_end(levels)
        if m == n:
            # A single root child: the run down to a last level of 1 is
            # rejected, and that sequence starts a block of its own.
            levels[-1] = 1
            m = n - 1
        budget = n - max(levels[1:m])
        if m - 1 > budget:
            # Too big a first subtree: every block down to the end of the
            # one whose first subtree is the first ``budget`` vertices is
            # rejected, so jump to that block's end.
            m = budget + 1
        elif _is_free_canonical(levels, m):
            yield tuple(levels)
        # Jump to the last sequence of this block: the rest of the tree
        # becomes leaves under the root.
        levels[m:] = [1] * (n - m)
        if not _rooted_successor(levels, m - 1, 0):
            return


def block_trees(start: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The free trees of the block that ``block_starts`` gave as ``start``.

    Steps from the start while each sequence is accepted and the successor
    keeps the first subtree, i.e. changes no position before its end.
    """
    levels = list(start)
    m = _first_subtree_end(levels)
    yield start
    while _rooted_successor(levels, len(levels) - 1, m) and _is_free_canonical(levels, m):
        yield tuple(levels)


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


def generate_trees(n: int) -> Iterator[CanonicalCode]:
    """Yield one CanonicalCode per isomorphism class of free trees of order n.

    The stream is deterministic and strictly increasing in code order.
    """
    for start in block_starts(n):
        for levels in block_trees(start):
            yield CanonicalCode(levels)


def _tree_centers(adj: dict[int, list[int]], vertices: list[int]) -> list[int]:
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


def _canonical_rooted_levels(adj, root: int, blocked: int | None) -> list[int]:
    """Canonical level sequence of the subtree at ``root`` looking away from
    ``blocked``; sibling subtrees sorted in decreasing sequence order."""
    parent: dict[int, int | None] = {root: blocked}
    order = [root]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    seqs: dict[int, list[int]] = {}
    kids: dict[int, list[list[int]]] = {v: [] for v in order}
    for v in reversed(order):
        subs = sorted(kids.pop(v), reverse=True)
        out = [0]
        for s in subs:
            out.extend(x + 1 for x in s)
        seqs[v] = out
        p = parent[v]
        if p is not None and p != blocked:
            kids[p].append(seqs.pop(v))
    return seqs[root]


def canonical_code(forest: Forest, component: int = 0) -> CanonicalCode:
    """Canonical code of one tree component of a forest."""
    vertices = forest.components[component]
    adj = {v: forest.adj[v] for v in vertices}
    centers = _tree_centers(adj, vertices)
    if len(centers) == 1:
        return CanonicalCode(tuple(_canonical_rooted_levels(adj, centers[0], None)))
    c1, c2 = centers
    s1 = _canonical_rooted_levels(adj, c1, c2)
    s2 = _canonical_rooted_levels(adj, c2, c1)
    # Root on the side of the bigger (or lexicographically later) half.
    if (len(s1), s1) < (len(s2), s2):
        s1, s2 = s2, s1
    levels = [0] + [x + 1 for x in s2] + s1[1:]
    return CanonicalCode(tuple(levels))
