import pytest

from cyclehit import (
    CycleSet,
    GraphError,
    Multigraph,
    Orientation,
    build_even_leaf_tree,
    build_gadget_tree,
    cubic_expansion,
    cycle_vertices,
    orient_even_indegree,
    pack_cycles,
    project_factor,
    random_regular_multigraph,
    split_expansion,
    t_factor_oracle,
    verify_factor,
)
from conftest import doubled_triangle, k4


def test_cubic_expansion_third_on_cubic_graph():
    # t=1: the gadget tree is a claw with a single internal vertex, so the
    # expansion of a cubic graph is the graph itself up to vertex labels
    G = k4()
    O = CycleSet(G, [(0, 3, 1)])
    xmap, induced = cubic_expansion(G, O, build_gadget_tree(1))
    assert xmap.expanded.n == G.n and xmap.expanded.m == G.m
    assert xmap.expanded.is_regular() == 3
    assert induced.cycles == O.cycles


def test_cubic_expansion_half_doubled_triangle():
    G = doubled_triangle()
    O = CycleSet(G, [(0, 1, 2)])
    xmap, induced = cubic_expansion(G, O, build_even_leaf_tree(4))
    assert xmap.expanded.is_regular() == 3
    # the 4-leaf even tree has 2 internal vertices, so 3 vertices become 6
    assert xmap.expanded.n == 6
    cycle_vertices(xmap.expanded, induced.cycles[0])  # still a valid cycle


def test_cubic_expansion_consecutive_cycle_edges_stay_adjacent():
    G = random_regular_multigraph(8, 6, seed=11)
    O = pack_cycles(G, parity="odd")
    xmap, induced = cubic_expansion(G, O, build_gadget_tree(2))
    assert xmap.expanded.is_regular() == 3
    for cyc in induced.cycles:
        cycle_vertices(xmap.expanded, cyc)  # raises if adjacency was broken


def test_cubic_expansion_rejects_wrong_regularity():
    with pytest.raises(GraphError):
        cubic_expansion(k4(), CycleSet(k4(), []), build_gadget_tree(2))
    with pytest.raises(GraphError):
        cubic_expansion(doubled_triangle(), CycleSet(doubled_triangle(), []), build_even_leaf_tree(6))


def test_split_expansion_two_regular_input_is_identity_sized():
    # 2-regular input with alternating orientation: one split vertex per
    # original vertex pair class; result is the same 4-cycle
    G = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    D = Orientation(G, (0, 2, 2, 0))  # indegrees 2,0,2,0
    xmap = split_expansion(G, D, CycleSet(G, []))
    assert xmap.expanded.is_regular() == 2
    assert xmap.expanded.n == 4
    assert xmap.expanded.m == 4


def test_split_expansion_rejects_oriented_prescribed_cycle():
    G = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    O = CycleSet(G, [(0, 1, 2, 3)])
    around = Orientation(G, (1, 2, 3, 0))
    with pytest.raises(GraphError):
        split_expansion(G, around, O)


def test_split_expansion_is_bipartite_two_regular():
    G = random_regular_multigraph(10, 4, seed=5)
    O = pack_cycles(G, parity="odd")
    D = orient_even_indegree(G, O, 2)
    xmap = split_expansion(G, D, O)
    H = xmap.expanded
    assert H.is_regular() == 2
    # 2-coloring check: every cycle of H is even
    color = [-1] * H.n
    for s in range(H.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for e in H.incident(v):
                w = H.other_end(e, v)
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                else:
                    assert color[w] != color[v], "odd cycle: not bipartite"


def test_project_factor_roundtrip():
    # third family: the matched-leaf invariant makes ANY perfect matching of
    # the expansion project to a t-factor
    G = random_regular_multigraph(8, 6, seed=11)
    O = pack_cycles(G, parity="odd")
    xmap, induced = cubic_expansion(G, O, build_gadget_tree(2))
    v = t_factor_oracle(xmap.expanded, 1)
    assert v.status == "SAT"
    F = project_factor(xmap, v.witness.edge_ids, 2)
    assert verify_factor(G, F, 2)
    with pytest.raises(GraphError):
        project_factor(xmap, (0,), 2)  # not a perfect matching
