"""Independent oracles for gating the generator and the counters.

Everything here is implemented from scratch, on purpose: labeled trees come
from parent arrays, isomorphism keys from nested child-key tuples minimized
over every root, and automorphism counts from center decomposition.  None
of it shares code with the package under test, except the exhaustive
``optimize_k_scan``: it checks the search over k, not the closed form, so
it evaluates the package's exact ``closed_form_count`` at every k.
``filtered_free_levels`` is the generator without the block skip: it
tests every rooted sequence for canonicity.  ``bfs_rooting`` is the
breadth-first rooting the counters used before every forest kept its own.
"""

from collections import Counter
from itertools import permutations, product
from math import factorial

from domcount.family import TableRow, closed_form_count


def labeled_parent_trees(n):
    """Edge lists of every tree on 0..n-1 in which each nonzero vertex has
    a parent with a smaller id; all isomorphism classes of order n occur."""
    if n == 1:
        yield []
        return
    for parents in product(*(range(i) for i in range(1, n))):
        yield [(parents[i - 1], i) for i in range(1, n)]


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def rooted_key(adj, root, parent=None):
    return tuple(sorted(rooted_key(adj, c, root) for c in adj[root] if c != parent))


def free_key(n, edges):
    """Isomorphism-complete key: the minimum rooted key over all roots."""
    adj = adjacency(n, edges)
    return min(rooted_key(adj, r) for r in range(n))


def iso_class_count(n):
    return len({free_key(n, edges) for edges in labeled_parent_trees(n)})


def brute_force_isomorphic(n, edges_a, edges_b):
    target = {frozenset(e) for e in edges_a}
    if len(edges_b) != len(target):
        return False
    for perm in permutations(range(n)):
        if {frozenset((perm[u], perm[v])) for u, v in edges_b} == target:
            return True
    return False


def _centers(n, adj):
    if n <= 2:
        return list(range(n))
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
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


def _rooted_aut(adj, v, parent):
    keys = []
    aut = 1
    for c in adj[v]:
        if c == parent:
            continue
        keys.append(rooted_key(adj, c, v))
        aut *= _rooted_aut(adj, c, v)
    for multiplicity in Counter(keys).values():
        aut *= factorial(multiplicity)
    return aut


def automorphism_count(n, edges):
    """|Aut| of a free tree: rooted automorphisms at the center, doubled
    when the two halves of a bicentral tree are interchangeable."""
    if n == 1:
        return 1
    adj = adjacency(n, edges)
    centers = _centers(n, adj)
    if len(centers) == 1:
        return _rooted_aut(adj, centers[0], None)
    c1, c2 = centers
    half = _rooted_aut(adj, c1, c2) * _rooted_aut(adj, c2, c1)
    if rooted_key(adj, c1, c2) == rooted_key(adj, c2, c1):
        return 2 * half
    return half


def labeled_tree_total(n):
    """Number of labeled trees on n vertices (n^(n-2); 1 for n = 1)."""
    return 1 if n == 1 else n ** (n - 2)


def optimize_k_scan(gamma):
    """Best hub count by evaluating the exact closed form at every k in
    1..gamma-1; the first k to reach the largest value wins."""
    best_k, best_value = 1, closed_form_count(gamma, 1)
    for k in range(2, gamma):
        value = closed_form_count(gamma, k)
        if value > best_value:
            best_k, best_value = k, value
    return TableRow(gamma=gamma, best_k=best_k, formula_value=best_value,
                    table_interpretation_value=best_value - (1 << (gamma - 1)))


def _next_rooted(levels):
    """Successor of a canonical rooted level sequence (decreasing lex)."""
    p = len(levels) - 1
    while p >= 0 and levels[p] <= 1:
        p -= 1
    if p < 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    result = list(levels)
    for i in range(p, len(result)):
        result[i] = result[i - (p - q)]
    return result


def _is_center_rooted(levels):
    """The root is a center and the first subtree is not the bigger or
    lexicographically later half: split off the first subtree, compare."""
    m = len(levels)
    for i in range(2, len(levels)):
        if levels[i] == 1:
            m = i
            break
    left = [levels[i] - 1 for i in range(1, m)]
    rest = [0] + [levels[i] for i in range(m, len(levels))]
    if max(rest) != max(left):
        return max(rest) > max(left)
    if len(left) != len(rest):
        return len(left) < len(rest)
    return left <= rest


def filtered_free_levels(n):
    """Free-tree level sequences of order n, by visiting every canonical
    rooted sequence from the centrally rooted path down and keeping the
    ones whose root is the canonical center."""
    if n == 1:
        yield (0,)
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        if _is_center_rooted(levels):
            yield tuple(levels)
        levels = _next_rooted(levels)


def bfs_rooting(forest, root):
    """(order, parent) of the component of ``root``, breadth first from it:
    ``parent[i]`` is the position in ``order`` of the parent of ``order[i]``."""
    order = [root]
    parent = [-1]
    for i, v in enumerate(order):
        up = order[parent[i]] if i else -1
        for w in forest.adj[v]:
            if w != up:
                order.append(w)
                parent.append(i)
    return order, parent
