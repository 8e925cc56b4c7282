"""Independent oracles for gating the generator and the counters.

Everything here is implemented from scratch, on purpose: labeled trees come
from parent arrays, isomorphism keys from nested child-key tuples minimized
over every root, and automorphism counts from center decomposition.  None
of it shares code with the package under test, except two references
for faster paths: the exhaustive ``optimize_k_scan`` checks the search over
k, not the closed form, so it evaluates the package's exact
``closed_form_count`` at every k; ``forest_tree_rows`` is the sweep's
per-tree map as it was before the level-sequence kernel, one decoded
``Forest`` and the public counters per tree.
``filtered_free_levels`` is the generator without the block skip: it
tests every rooted sequence for canonicity.  ``stepwise_block_starts`` is
the block walk without its jump past oversized first subtrees, and
``stack_parents`` reads parents off a level sequence with a stack.
``bfs_rooting`` is the breadth-first rooting the counters used before
every forest kept its own.
``fold_table`` is the counters' fold as it was before it dropped each
record once merged: it keeps every position's record.  ``mds_table`` and
``mis_table`` give every position's record of a rooted tree, folded with
the counters' own merges; the counters keep only the root's.
``recursive_min_dominating_sets`` and ``recursive_max_independent_sets``
are the enumerators as they were before they folded set families through
the counters' merges: a memoised top-down recursion over those two
tables.  ``scanned_min_dominating_sets`` and
``scanned_max_independent_sets`` share nothing with the package: they
scan vertex subsets.  ``enumerated_local_partition`` is
``local_mds_partition`` as it was before it counted with forced folds:
it lists every minimum dominating set, projects the chain vertices away
and removes duplicates; it reads the chains from ``pendant_two_paths``,
the per-(hub, neighbour) scan that ``forest.pendant_bundles`` replaced.
``spliced_canonical_code`` is ``canonical_code`` as it was before it kept
the rooting the generator accepts: it roots both halves of a bicentral
tree apart and splices them.  ``spliced_rooted_levels`` is the level
writer that ``canonical_code`` used next, before it ranked vertices depth
by depth: it splices each vertex's sorted child sequences into its own.
"""

from collections import Counter
from functools import reduce
from itertools import combinations, permutations, product
from math import factorial
from operator import or_

from domcount.domination import (
    MDS_LEAF,
    _mds_merge,
    count_min_dominating_sets,
    enumerate_min_dominating_sets,
)
from domcount.forest import root_at
from domcount.family import LocalPartition, TableRow, closed_form_count
from domcount.independence import MIS_LEAF, _mis_merge, count_max_independent_sets, is_subdivided_star
from domcount.search import TreeRow, verify_mds_bound, verify_mis_bound
from domcount.treegen import CanonicalCode, _first_subtree_end, _rest_floor, _rooted_successor


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


def _centers(adj, vertices):
    """Centers of the tree on ``vertices`` by leaf stripping."""
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
    centers = _centers(adj, range(n))
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


def pendant_two_paths(forest, hub, away_from):
    """(inner, tip) vertex pairs when everything hanging at ``hub`` away
    from ``away_from`` is pendant paths of length two; None otherwise."""
    chains = []
    for v in forest.adj[hub]:
        if v == away_from:
            continue
        if forest.degree(v) != 2:
            return None
        tip = [y for y in forest.adj[v] if y != hub][0]
        if forest.degree(tip) != 1:
            return None
        chains.append((v, tip))
    return chains if chains else None


def enumerated_local_partition(forest, w1, w2, x):
    """Minimum dominating sets by their trace on {w1, w2, x}, counted as
    distinct sets once the pendant-path vertices below both hubs are
    removed; the hubs must carry pendant 2-paths only."""
    chains1 = pendant_two_paths(forest, w1, x)
    chains2 = pendant_two_paths(forest, w2, x)
    masked = {v for pair in chains1 + chains2 for v in pair}
    labels = {w1: "w1", w2: "w2", x: "x"}
    buckets = {}
    for dom_set in enumerate_min_dominating_sets(forest):
        trace = frozenset(labels[v] for v in dom_set if v in labels)
        buckets.setdefault(trace, set()).add(dom_set - masked)
    counts = {}
    for names in ((), ("w1",), ("w2",), ("x",), ("w1", "w2"), ("w1", "x"), ("w2", "x"), ("w1", "w2", "x")):
        key = frozenset(names)
        counts[key] = len(buckets.get(key, ()))
    return LocalPartition(counts=counts, p1=len(chains1), p2=len(chains2))


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


def stepwise_block_starts(n):
    """``treegen.block_starts`` as it was before it jumped past first
    subtrees too big for their tree: it tests the first sequence of every
    block with more than one root child with ``_is_center_rooted``."""
    if n <= 2:
        yield tuple(range(n))
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = _first_subtree_end(levels)
        if m == n:
            levels[-1] = 1
            m = n - 1
        if _is_center_rooted(levels):
            yield tuple(levels)
        levels[m:] = [1] * (n - m)
        if not _rooted_successor(levels, m - 1, 0):
            return


def block_trees(start):
    """The free trees of the block that ``treegen.block_starts`` gave as
    ``start``, by the plain successor: the reference stream for
    ``treegen.RestList``.  Steps from the start while the successor changes
    no position of the first subtree and the rest stays at least the
    block's floor."""
    levels = list(start)
    m = _first_subtree_end(levels)
    floor = _rest_floor(levels, m)
    yield start
    while _rooted_successor(levels, len(levels) - 1, m) and levels[m:] >= floor:
        yield tuple(levels)


def stack_parents(levels):
    """Parent index of vertices 1..n-1 of a level sequence, from a stack of
    the current root path (``CanonicalCode.parents`` before its one-pass
    scan)."""
    parents = []
    stack = []
    for i, level in enumerate(levels):
        while len(stack) > level:
            stack.pop()
        if stack:
            parents.append(stack[-1])
        stack.append(i)
    return tuple(parents)


def child_positions(parent):
    """The positions of each position's children in a parent array, in
    increasing order."""
    children = [[] for _ in parent]
    for i in range(1, len(parent)):
        children[parent[i]].append(i)
    return children


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


def fold_table(parent, records, merge):
    """Merge every position's record into its parent's, last position to
    first, in place, and return ``records``, which starts as each
    position's leaf record."""
    for i in range(len(parent) - 1, 0, -1):
        p = parent[i]
        records[p] = merge(records[p], records[i])
    return records


def mds_table(parent):
    """The (z0, c0, z1, c1, z2, c2) record of every position of a rooted
    tree; ``parent`` is ``RootedTree.parent``."""
    return fold_table(parent, [MDS_LEAF] * len(parent), _mds_merge)


def mis_table(parent):
    """The (z_in, c_in, z_out, c_out) record of every position of a rooted
    tree; ``parent`` is ``RootedTree.parent``."""
    return fold_table(parent, [MIS_LEAF] * len(parent), _mis_merge)


def forest_tree_rows(levels_batch):
    """Count and check each tree of a batch; one row per tree, in batch order."""
    rows = []
    for levels in levels_batch:
        code = CanonicalCode(levels)
        forest = code.decode()
        dom = count_min_dominating_sets(forest)
        ind = count_max_independent_sets(forest)
        shape = is_subdivided_star(forest)
        mis_check = verify_mis_bound(ind.alpha, ind.mis_count, shape)
        rows.append(TreeRow(
            order=forest.n, code=code.to_string(), gamma=dom.gamma, mds_count=dom.mds_count,
            alpha=ind.alpha, mis_count=ind.mis_count,
            mds_bound_ok=verify_mds_bound(dom.gamma, dom.mds_count),
            mis_bound_ok=mis_check.passed, mis_equality=mis_check.equality,
            is_subdivided_star=shape.is_subdivided_star))
    return rows


def _joins(base, options):
    """``base`` joined with one set from each option list, every way."""
    return [frozenset(base).union(*parts) for parts in product(*options)]


def _recursive_mds_component(tree):
    """All minimum dominating sets of one rooted component, DP-guided.

    The sigma1 sets of a vertex are split by their first child in sigma0:
    the children before it are in sigma1, the later ones in whichever of
    sigma0 and sigma1 is smaller (both on a tie), and a split is expanded
    only when its total size equals sigma1's.
    """
    order = tree.order
    z0, _, z1, _, z2, _ = zip(*mds_table(tree.parent))
    sizes = (z0, z1, z2)
    children = child_positions(tree.parent)
    memo = {}

    def optimal(i, states):
        feasible = [s for s in states if sizes[s][i] is not None]
        least = min(sizes[s][i] for s in feasible)
        return [x for s in feasible if sizes[s][i] == least for x in sets(i, s)]

    def sets(i, state):
        key = (i, state)
        if key in memo:
            return memo[key]
        kids = children[i]
        if state == 0:
            result = _joins({order[i]}, [optimal(c, (0, 1, 2)) for c in kids])
        elif state == 2:
            result = _joins((), [sets(c, 1) for c in kids])
        else:
            low = [z0[c] if z1[c] is None else min(z0[c], z1[c]) for c in kids]
            rest = sum(low)
            head = 0
            result = []
            for j, c in enumerate(kids):
                rest -= low[j]
                if head + z0[c] + rest == z1[i]:
                    result += _joins((), [sets(k, 1) for k in kids[:j]] + [sets(c, 0)]
                                     + [optimal(k, (0, 1)) for k in kids[j + 1:]])
                if z1[c] is None:
                    break
                head += z1[c]
        memo[key] = result
        return result

    return optimal(0, (0, 1))


def _recursive_mis_component(tree):
    """All maximum independent sets of one rooted component, DP-guided."""
    order = tree.order
    z_in, _, z_out, _ = zip(*mis_table(tree.parent))
    children = child_positions(tree.parent)
    memo = {}

    def optimal(i):
        best = max(z_in[i], z_out[i])
        return ((sets(i, True) if z_in[i] == best else [])
                + (sets(i, False) if z_out[i] == best else []))

    def sets(i, in_set):
        key = (i, in_set)
        if key not in memo:
            if in_set:
                memo[key] = _joins({order[i]}, [sets(c, False) for c in children[i]])
            else:
                memo[key] = _joins((), [optimal(c) for c in children[i]])
        return memo[key]

    return optimal(0)


def _recursive_sets(forest, component_sets, limit):
    combined = [frozenset()]
    for members in forest.components:
        here = component_sets(root_at(forest, members[0]))
        combined = [acc | s for acc in combined for s in here]
    combined.sort(key=lambda s: tuple(sorted(s)))
    return combined if limit is None else combined[:limit]


def recursive_min_dominating_sets(forest, limit=None):
    """Every minimum dominating set, ordered by sorted vertex lists and
    truncated to ``limit`` entries when given."""
    return _recursive_sets(forest, _recursive_mds_component, limit)


def recursive_max_independent_sets(forest, limit=None):
    """Every maximum independent set, ordered and truncated likewise."""
    return _recursive_sets(forest, _recursive_mis_component, limit)


def scanned_min_dominating_sets(n, adj):
    """Every minimum dominating set of the graph on 0..n-1 with adjacency
    lists ``adj``, ordered by sorted vertex lists: the subsets of each size,
    smallest size first, in lexicographic order, until one dominates."""
    closed = [reduce(or_, (1 << w for w in adj[v]), 1 << v) for v in range(n)].__getitem__
    full = (1 << n) - 1
    for size in range(n + 1):
        found = [frozenset(c) for c in combinations(range(n), size)
                 if reduce(or_, map(closed, c), 0) == full]
        if found:
            return found
    raise AssertionError("the whole vertex set always dominates")


def scanned_max_independent_sets(n, adj):
    """Every maximum independent set, ordered by sorted vertex lists.

    Scans subsets in lexicographic order of their sorted vertex lists,
    skipping the supersets of each dependent set (none is independent), and
    keeps the largest independent ones.
    """
    neighbours = [reduce(or_, (1 << w for w in adj[v]), 0) for v in range(n)]
    found, size = [], -1
    stack = [((), 0, 0)]
    while stack:
        members, mask, start = stack.pop()
        if len(members) > size:
            found, size = [], len(members)
        if len(members) == size:
            found.append(frozenset(members))
        # Pushed last to first, so the smallest next vertex is popped first.
        stack.extend((members + (v,), mask | 1 << v, v + 1)
                     for v in range(n - 1, start - 1, -1) if not neighbours[v] & mask)
    return found


def _half_levels(adj, root, blocked):
    """Canonical level sequence of the subtree at ``root`` looking away from
    ``blocked``; sibling subtrees sorted in decreasing sequence order."""
    parent = {root: blocked}
    order = [root]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    seqs = {}
    kids = {v: [] for v in order}
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


def spliced_canonical_code(forest, component=0):
    """Canonical code of one tree component, rooting each half of a
    bicentral tree on its own and splicing the smaller half under the
    bigger (or lexicographically later) half's center."""
    vertices = forest.components[component]
    centers = _centers(forest.adj, vertices)
    if len(centers) == 1:
        return CanonicalCode(tuple(_half_levels(forest.adj, centers[0], None)))
    c1, c2 = centers
    s1 = _half_levels(forest.adj, c1, c2)
    s2 = _half_levels(forest.adj, c2, c1)
    if (len(s1), s1) < (len(s2), s2):
        s1, s2 = s2, s1
    return CanonicalCode(tuple([0] + [x + 1 for x in s2] + s1[1:]))


def spliced_rooted_levels(tree):
    """Canonical level sequence of a rooting, written as depths: siblings
    compare as they stand, so one pass from the last position to the first
    sorts each vertex's child sequences in decreasing order and splices
    them in unshifted, dropping each once its parent holds it.  Copies
    O(n * height) elements."""
    parent = tree.parent
    depth = [0] * len(parent)
    for i in range(1, len(parent)):
        depth[i] = depth[parent[i]] + 1
    children: list = [[] for _ in parent]
    for i in range(len(parent) - 1, -1, -1):
        subtrees, children[i] = children[i], None
        subtrees.sort(reverse=True)
        seq = [depth[i]]
        for sub in subtrees:
            seq += sub
        if i == 0:
            return seq
        children[parent[i]].append(seq)
