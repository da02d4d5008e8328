import pytest

from cyclehit import (
    GraphError,
    Multigraph,
    build_even_leaf_tree,
    build_gadget_tree,
    lonely_pendant_edges,
    matched_leaf_count,
)
from conftest import enumerate_internal_covering_matchings


def test_claw_tree_sizes():
    for t in range(1, 6):
        T = build_gadget_tree(t)
        assert len(T.leaves) == 3 * t
        assert T.tree.n == 6 * t - 2
        internal = T.internal_vertices()
        assert len(internal) == 3 * t - 2
        assert all(T.tree.degree(v) == 3 for v in internal)
        assert len(lonely_pendant_edges(T)) <= 1


def test_claw_tree_lonely_pendant_alternation():
    # the claw itself has 3 mutually adjacent pendant edges (0 lonely);
    # growing two claws on a leaf turns it internal with one non-pendant
    # child edge only when its sibling count drops to zero
    assert len(lonely_pendant_edges(build_gadget_tree(1))) == 0
    assert len(lonely_pendant_edges(build_gadget_tree(2))) == 0
    assert len(lonely_pendant_edges(build_gadget_tree(3))) == 1
    assert len(lonely_pendant_edges(build_gadget_tree(4))) == 0


def test_even_leaf_tree_properties():
    for L in (4, 6, 8, 10):
        T = build_even_leaf_tree(L)
        assert len(T.leaves) == L
        assert all(T.tree.degree(v) == 3 for v in T.internal_vertices())
        assert lonely_pendant_edges(T) == []
        assert all(len(g) == 2 for g in T.sibling_groups)
    with pytest.raises(GraphError):
        build_even_leaf_tree(5)
    with pytest.raises(GraphError):
        build_even_leaf_tree(2)


def test_sibling_groups_partition_leaves():
    for T in (build_gadget_tree(3), build_even_leaf_tree(8)):
        flat = sorted(v for g in T.sibling_groups for v in g)
        assert flat == sorted(T.leaves)


def test_matched_leaf_count_validation():
    T = build_gadget_tree(1)  # claw: center 0, leaves 1..3
    assert matched_leaf_count(T, [0]) == 1
    with pytest.raises(GraphError):
        matched_leaf_count(T, [0, 1])  # share the center: not a matching
    with pytest.raises(GraphError):
        matched_leaf_count(T, [])  # center unmatched


def test_matched_leaf_count_is_t_small():
    for t in (1, 2, 3):
        T = build_gadget_tree(t)
        matchings = enumerate_internal_covering_matchings(T.tree)
        assert matchings, f"no internal-covering matching for t={t}"
        assert all(matched_leaf_count(T, M) == t for M in matchings)


def test_even_leaf_tree_matches_evenly_many_leaves():
    # L-leaf even tree: the internal vertex count L-2 is even, so every
    # internal-covering matching hits an even number of leaves (this parity
    # is what the orientation flip relies on; the count is not constant)
    for L in (4, 6, 8):
        T = build_even_leaf_tree(L)
        counts = {
            matched_leaf_count(T, M)
            for M in enumerate_internal_covering_matchings(T.tree)
        }
        assert counts
        assert all(c % 2 == 0 for c in counts)


def test_lonely_pendant_edges_plain_trees():
    path3 = Multigraph(3, [(0, 1), (1, 2)])  # both pendant edges adjacent
    assert lonely_pendant_edges(path3) == []
    path4 = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    assert lonely_pendant_edges(path4) == [0, 2]
    with pytest.raises(GraphError):
        lonely_pendant_edges(Multigraph(3, [(0, 1), (1, 2), (0, 2)]))


def claw_grown_by_rule(t):
    """The claw-grown tree by its inductive rule: expand the leaf of the
    lonely pendant edge when one exists, otherwise the lowest leaf."""
    n, edges = 4, [(0, 1), (0, 2), (0, 3)]
    for _ in range(t - 1):
        T = Multigraph(n, edges)
        lonely = lonely_pendant_edges(T)
        if lonely:
            leaf = next(v for v in T.endpoints(lonely[0]) if T.degree(v) == 1)
        else:
            leaf = min(v for v in range(n) if T.degree(v) == 1)
        edges += [(leaf, n), (n, n + 1), (n, n + 2)]
        edges += [(leaf, n + 3), (n + 3, n + 4), (n + 3, n + 5)]
        n += 6
    return n, edges


def even_leaf_by_rule(L):
    """The even-leaf tree by its inductive rule: two new leaves on each
    member of the lowest-id sibling pair."""
    n, edges = 6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]
    for _ in range((L - 4) // 2):
        T = Multigraph(n, edges)
        parent = {
            v: T.other_end(T.incident(v)[0], v)
            for v in range(n)
            if T.degree(v) == 1
        }
        u, v = min(
            (u, v) for u in parent for v in parent if u < v and parent[u] == parent[v]
        )
        edges += [(u, n), (u, n + 1), (v, n + 2), (v, n + 3)]
        n += 4
    return n, edges


def test_builders_follow_their_inductive_rules():
    for t in range(1, 31):
        T = build_gadget_tree(t)
        assert (T.tree.n, list(T.tree.edges)) == claw_grown_by_rule(t), t
    for L in range(4, 61, 2):
        T = build_even_leaf_tree(L)
        assert (T.tree.n, list(T.tree.edges)) == even_leaf_by_rule(L), L


def bfs_slot_order(T):
    """Leaves and sibling groups by the breadth-first rule: leaves in the
    order a search from vertex 0 meets them (neighbours by id), groups in
    the order it meets their internal neighbour, each group by id."""
    tree = T.tree
    order, seen = [0], {0}
    for v in order:
        for w in sorted(tree.other_end(e, v) for e in tree.incident(v)):
            if w not in seen:
                seen.add(w)
                order.append(w)
    leaves = [v for v in order if tree.degree(v) == 1]
    groups = {}
    for v in leaves:
        groups.setdefault(tree.other_end(tree.incident(v)[0], v), []).append(v)
    parents = sorted(groups, key=order.index)
    return tuple(leaves), tuple(tuple(sorted(groups[p])) for p in parents)


def test_slot_order_is_breadth_first():
    for T in [build_gadget_tree(t) for t in range(1, 61)] + [
        build_even_leaf_tree(L) for L in range(4, 121, 2)
    ]:
        assert (T.leaves, T.sibling_groups) == bfs_slot_order(T), T.tree.n
