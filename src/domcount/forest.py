"""Forests as plain adjacency-list structures, plus text I/O and rooting.

Vertices are dense 0-based integers.  Isolated vertices are legal and form
their own components, which is why the text format declares the vertex
count explicitly instead of inferring it from the edge list.

Rooting a component gives a flat parent array in which every parent comes
before its children; the counting programs fold it from the last position
to the first, and rely on nothing else about the order.  Every forest keeps
one rooting per component, made while it is built: ``build_forest`` records
its breadth-first component search, and a decoded canonical code records
its preorder.  ``root_at`` hands out the stored rooting and searches only
for other roots.

All structures are built once and never mutated afterwards, so they are
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ForestError(ValueError):
    """Malformed input: bad file format, bad vertex ids, or a cycle."""


@dataclass
class Forest:
    n: int
    edges: list[tuple[int, int]]
    adj: list[list[int]]
    components: list[list[int]]
    # One rooting per component, keyed by its smallest vertex.
    rooted: dict[int, RootedTree] = field(default_factory=dict, compare=False, repr=False)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def component_count(self) -> int:
        return len(self.components)


def build_forest(n: int, edges) -> Forest:
    """Validate an edge list and assemble a Forest.

    Each edge is stored as (min, max) and the list is sorted once, so a
    duplicate edge shows up as two equal neighbours.  Adjacency is built
    from the sorted list: every vertex first receives its lower neighbours
    in increasing order, then its higher ones, so each list comes out
    sorted without a per-vertex sort.  The breadth-first search that finds
    each component starts at its smallest vertex and is kept as that
    component's rooting.

    Raises ForestError on self-loops, duplicate or out-of-range edges, and
    on any cycle.
    """
    if n < 0:
        raise ForestError(f"vertex count must be nonnegative, got {n}")
    normalized: list[tuple[int, int]] = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ForestError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        if u == v:
            raise ForestError(f"self-loop at vertex {u}")
        normalized.append((u, v) if u < v else (v, u))
    normalized.sort()
    adj: list[list[int]] = [[] for _ in range(n)]
    previous = None
    for edge in normalized:
        if edge == previous:
            raise ForestError(f"duplicate edge ({edge[0]}, {edge[1]})")
        previous = edge
        u, v = edge
        adj[u].append(v)
        adj[v].append(u)

    components: list[list[int]] = []
    rooted: dict[int, RootedTree] = {}
    visited = [False] * n
    for start in range(n):
        if not visited[start]:
            tree = _breadth_first(adj, start, visited)
            components.append(sorted(tree.order))
            rooted[start] = tree

    # A simple graph is acyclic exactly when |E| = n - #components.
    if len(normalized) != n - len(components):
        raise ForestError("cycle detected: edge count exceeds n - #components")
    return Forest(n=n, edges=normalized, adj=adj, components=components, rooted=rooted)


def parse_forest(text: str) -> Forest:
    """Parse the line-oriented forest format.

    Lines starting with '#' are comments.  The first significant line must
    be ``n <count>``; every following significant line is an edge ``u v``.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise ForestError(f"line {lineno}: expected 'n <count>' header, got {line!r}")
            try:
                n = int(tokens[1])
            except ValueError:
                raise ForestError(f"line {lineno}: vertex count {tokens[1]!r} is not an integer") from None
            if n < 0:
                raise ForestError(f"line {lineno}: vertex count must be nonnegative")
            continue
        if len(tokens) != 2:
            raise ForestError(f"line {lineno}: expected edge 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ForestError(f"line {lineno}: edge endpoints must be integers, got {line!r}") from None
        edges.append((u, v))
    if n is None:
        raise ForestError("missing 'n <count>' header line")
    return build_forest(n, edges)


def forest_to_text(forest: Forest, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"n {forest.n}")
    lines.extend(f"{u} {v}" for u, v in forest.edges)
    return "\n".join(lines) + "\n"


# Convenience constructors used all over the tests and demos.

def path(n: int) -> Forest:
    """Path on n vertices, 0-1-2-...-(n-1)."""
    return build_forest(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves: int) -> Forest:
    """Star with the given number of leaves; center is vertex 0."""
    return build_forest(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def spider(*leg_lengths: int) -> Forest:
    """Spider: center 0 with one pendant path per entry of leg_lengths."""
    edges = []
    nxt = 1
    for length in leg_lengths:
        if length < 1:
            raise ForestError("spider legs must have positive length")
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return build_forest(nxt, edges)


def disjoint_union(*forests: Forest) -> Forest:
    edges: list[tuple[int, int]] = []
    offset = 0
    for f in forests:
        edges.extend((u + offset, v + offset) for u, v in f.edges)
        offset += f.n
    return build_forest(offset, edges)


@dataclass(frozen=True)
class VertexClassification:
    endvertices: frozenset[int]
    support: frozenset[int]
    strong_support: frozenset[int]


def classify_vertices(forest: Forest) -> VertexClassification:
    """Split vertices into endvertices (degree <= 1), supports (adjacent to
    an endvertex) and strong supports (adjacent to at least two)."""
    endvertices = frozenset(v for v in range(forest.n) if forest.degree(v) <= 1)
    support = []
    strong = []
    for v in range(forest.n):
        pendant_neighbors = sum(1 for w in forest.adj[v] if w in endvertices)
        if pendant_neighbors >= 1:
            support.append(v)
        if pendant_neighbors >= 2:
            strong.append(v)
    return VertexClassification(endvertices, frozenset(support), frozenset(strong))


def pendant_bundles(forest: Forest) -> dict[int, dict[int, int]]:
    """``{x: {w: p}}``, in vertex order: the neighbours w of x whose whole
    side away from x is p >= 1 pendant 2-paths hanging at w.

    One pass counts at each w the neighbours of degree two whose other
    neighbour is a leaf.  Seen from x, that count drops x itself if x is
    one, and must cover all of w's other neighbours.
    """
    adj = forest.adj
    chains = [0] * forest.n
    for ends in adj:
        if len(ends) == 2:
            a, b = ends
            chains[a] += len(adj[b]) == 1
            chains[b] += len(adj[a]) == 1
    table = {}
    for x, neighbours in enumerate(adj):
        bundles = {}
        for w in neighbours:
            count = chains[w]
            if len(neighbours) == 2:
                other = neighbours[1] if neighbours[0] == w else neighbours[0]
                count -= len(adj[other]) == 1
            if count and count == len(adj[w]) - 1:
                bundles[w] = count
        if bundles:
            table[x] = bundles
    return table


@dataclass
class RootedTree:
    """One tree component as a flat parent array.

    ``order`` lists the component's vertices with the root first: breadth
    first for rootings from ``build_forest`` and ``root_at``, canonical
    preorder for a decoded canonical code.  ``parent[i]`` is the position
    in ``order`` of the parent of ``order[i]``, and -1 at the root.  The
    one invariant is that parents precede their children, so a loop over
    positions from last to first sees every child before its parent.
    Rootings are shared by every caller and never mutated.
    """
    order: list[int]
    parent: list[int]


def _breadth_first(adj: list[list[int]], root: int, visited: list[bool]) -> RootedTree:
    """Breadth-first search from ``root`` over unvisited vertices, marking them."""
    visited[root] = True
    order = [root]
    parent = [-1]
    # Iterating a list while appending to it visits the appended items too.
    for i, v in enumerate(order):
        for w in adj[v]:
            if not visited[w]:
                visited[w] = True
                order.append(w)
                parent.append(i)
    return RootedTree(order=order, parent=parent)


def root_at(forest: Forest, root: int) -> RootedTree:
    """Orient the tree component containing ``root`` away from it.

    The rooting stored for a component's smallest vertex is returned
    as is; any other root takes a breadth-first search.
    """
    tree = forest.rooted.get(root)
    if tree is not None:
        return tree
    if not (0 <= root < forest.n):
        raise ForestError(f"vertex {root} outside range 0..{forest.n - 1}")
    return _breadth_first(forest.adj, root, [False] * forest.n)
