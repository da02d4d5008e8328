import random

import pytest
from hypothesis import given, settings, strategies as st

from cyclehit import (
    CycleSet,
    GraphError,
    Multigraph,
    Orientation,
    build_even_leaf_tree,
    build_gadget_tree,
    cubic_expansion,
    cycle_vertices,
    half_pipeline,
    pack_cycles,
    random_regular_multigraph,
    split_factor,
    t_factor_oracle,
    third_pipeline,
    verify_factor,
    verify_intersections,
)
from cyclehit.gadgets import GadgetTree
from cyclehit.multigraph import bridge_sides
from conftest import doubled_triangle, k4, reference_cubic_expansion, reference_split_factor


def test_cubic_expansion_third_on_cubic_graph():
    # t=1: the gadget tree is a claw with a single internal vertex, so the
    # expansion of a cubic graph is the graph itself up to vertex labels
    G = k4()
    O = CycleSet(G, [(0, 3, 1)])
    xmap, induced = cubic_expansion(G, O, build_gadget_tree(1))
    assert xmap.expanded.n == G.n and xmap.expanded.m == G.m
    assert xmap.expanded.is_regular() == 3
    assert induced.cycles == O.cycles


@pytest.mark.parametrize("parity", ["odd", None], ids=["odd", "any"])
def test_claw_expansion_is_the_graph_itself(parity):
    """With one internal vertex every edge end stays at its own vertex, so
    the claw expansion returns G and O themselves; the claw-t1 cases of
    test_cubic_expansion_matches_its_first_form check that they equal the
    expansion built slot by slot."""
    claw = build_gadget_tree(1)
    for seed in range(30):
        G = random_regular_multigraph(4 + 2 * (seed % 8), 3, seed, min_connectivity=0)
        O = pack_cycles(G, parity=parity)
        xmap, induced = cubic_expansion(G, O, claw)
        assert xmap.expanded is G and induced is O


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


TREES = {
    **{f"claw-t{t}": (3 * t, build_gadget_tree(t)) for t in (1, 2, 3)},
    **{f"even-{L}": (L, build_even_leaf_tree(L)) for L in (4, 6, 8)},
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    tree=st.sampled_from(sorted(TREES)),
    n=st.integers(2, 12),
    seed=st.integers(0, 10**6),
    parity=st.sampled_from(["odd", None]),
)
def test_cubic_expansion_matches_its_first_form(tree, n, seed, parity):
    """The expansion walked over endpoint slots equals the one built from
    sorted per-vertex pairs and an (edge, vertex) dict
    (conftest.reference_cubic_expansion): the same expanded graph and the
    same induced cycles, on every claw-grown and even-leaf tree used.  The
    induced set's walks, kept from the pass and not checked, are those the
    checking constructor finds; no search reads them, so only this catches
    a wrong one."""
    L, T = TREES[tree]
    if n * L % 2:
        n += 1
    G = random_regular_multigraph(n, L, seed, min_connectivity=0)
    O = pack_cycles(G, parity=parity)
    xmap, induced = cubic_expansion(G, O, T)
    ref_map, ref_induced = reference_cubic_expansion(G, O, T)
    assert xmap == ref_map
    assert induced.host == ref_induced.host
    assert induced.cycles == ref_induced.cycles == O.cycles
    assert induced.walks == CycleSet(xmap.expanded, O.cycles).walks


@pytest.mark.parametrize("tree", sorted(TREES))
def test_expansions_of_2_connected_graphs_are_bridgeless(tree):
    """The premise of the pipelines' bridge_parity=False: the expansion of
    a 2-connected graph has no bridge, even counting parallel edges once.
    A bridge inside a gadget would leave G - v disconnected, and one on the
    edges of a pair u, v would make u or v a cut vertex."""
    L, T = TREES[tree]
    for n in range(3, 15):
        if n * L % 2:
            continue
        for seed in range(5):
            G = random_regular_multigraph(n, L, seed)
            for parity in ("odd", None):
                xmap, _ = cubic_expansion(G, pack_cycles(G, parity=parity), T)
                assert bridge_sides(xmap.expanded) == [], (n, seed, parity)


@pytest.mark.parametrize("groups", [((1, 2),), ((1, 2, 3, 1),)], ids=["fewer", "more"])
def test_cubic_expansion_refuses_slots_unlike_the_edge_ends(groups):
    """A tree whose sibling groups do not partition its leaves (built here
    past GadgetTree's own check) offers a vertex more or fewer slots than
    it has loose edge ends: an internal error, not a wrong expansion."""
    claw = build_gadget_tree(1)
    bad = object.__new__(GadgetTree)
    for name, value in (("tree", claw.tree), ("leaves", claw.leaves), ("sibling_groups", groups)):
        object.__setattr__(bad, name, value)
    with pytest.raises(AssertionError, match="slots left for 3 edge ends"):
        cubic_expansion(k4(), CycleSet(k4(), []), bad)


def test_cubic_expansion_rejects_wrong_regularity():
    with pytest.raises(GraphError):
        cubic_expansion(k4(), CycleSet(k4(), []), build_gadget_tree(2))
    with pytest.raises(GraphError):
        cubic_expansion(doubled_triangle(), CycleSet(doubled_triangle(), []), build_even_leaf_tree(6))


def test_split_factor_on_two_regular_input():
    # 2-regular input with alternating orientation: every vertex is one
    # split vertex, so the split graph is the 4-cycle itself, walked from
    # edge 0 out through vertex 1
    G = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    D = Orientation(G, (0, 2, 2, 0))  # indegrees 2,0,2,0
    assert split_factor(G, D, CycleSet(G, []), 1).edge_ids == (0, 2)


def test_split_factor_rejects_oriented_prescribed_cycle():
    # both triangles directed around: every indegree is 2, so only the
    # oriented-cycle check can reject it
    G = doubled_triangle()
    O = CycleSet(G, [(0, 1, 2)])
    around = Orientation(G, (1, 2, 0, 1, 2, 0))
    with pytest.raises(GraphError, match="a prescribed cycle is an oriented cycle"):
        split_factor(G, around, O, 1)


def test_split_factor_rejects_odd_indegree():
    G = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    D = Orientation(G, (1, 2, 2, 0))  # indegrees 1,1,2,0
    with pytest.raises(GraphError, match="odd indegree at vertex 0"):
        split_factor(G, D, CycleSet(G, []), 1)


@pytest.mark.parametrize("r, t, seed", [(4, 2, 5), (8, 4, 3)])
def test_split_factor_is_a_hitting_and_cohitting_t_factor(r, t, seed):
    G = random_regular_multigraph(10, r, seed=seed)
    O = pack_cycles(G, parity="odd")
    D = half_pipeline(G, O, t).orientation
    F = split_factor(G, D, O, t)
    assert verify_factor(G, F, t)
    assert verify_intersections(F, O, "hit-and-cohit")


@pytest.mark.parametrize("r, t", [(4, 2), (8, 4)])
@pytest.mark.parametrize("arbitrary", [False, True], ids=["plain", "arbitrary"])
def test_split_factor_matches_the_split_graph_matching(r, t, arbitrary):
    """split_factor gives exactly the factor of the split graph built as a
    Multigraph, matched by alternating along its cycles and projected back
    (conftest.reference_split_factor), on seeded orientations of the half
    pipelines."""
    for seed in range(12):
        n = 6 + seed % 7 if r == 4 else 9 + seed % 4
        G = random_regular_multigraph(n, r, seed, min_connectivity=3 if arbitrary else 2)
        O = pack_cycles(G, parity=None if arbitrary else "odd")
        D = half_pipeline(G, O, t, arbitrary=arbitrary).orientation
        assert split_factor(G, D, O, t) == reference_split_factor(G, D, O, t)


def test_split_factor_rejects_what_the_split_graph_rejects():
    """On orientations with some cycles reversed, and sometimes one more
    edge, split_factor and reference_split_factor give the same factor or
    the same error: odd indegree, or a prescribed cycle left oriented."""
    rng = random.Random(7)
    seen = set()
    for seed in range(40):
        r, t = (4, 2) if seed % 2 else (8, 4)
        G = random_regular_multigraph(8, r, seed)
        O = pack_cycles(G, parity="odd" if seed % 3 else None)
        D = half_pipeline(G, O, t, checked=False).orientation
        flips = [*pack_cycles(G, parity=None, max_len=5).cycles, *O.cycles]
        for _ in range(4):
            E = D.flipped(e for c in flips if rng.random() < 0.4 for e in c)
            if rng.random() < 0.2:
                E = E.flipped([rng.randrange(G.m)])
            got = []
            for split in (split_factor, reference_split_factor):
                try:
                    got.append(split(G, E, O, t))
                except GraphError as error:
                    got.append(str(error))
            assert got[0] == got[1]
            seen.add(got[0].split(" at ")[0] if isinstance(got[0], str) else "factor")
    assert seen == {"factor", "odd indegree", "a prescribed cycle is an oriented cycle"}


def test_third_pipeline_factor_is_the_witness_below_m():
    # The expansion keeps G's edge ids, so the third pipeline's factor is the
    # part below G.m of the oracle's witness on the expansion; by the
    # matched-leaf invariant, that part of ANY perfect matching of the
    # expansion is a t-factor.
    G = random_regular_multigraph(8, 6, seed=11)
    O = pack_cycles(G, parity="odd")
    xmap, induced = cubic_expansion(G, O, build_gadget_tree(2))
    v = t_factor_oracle(xmap.expanded, 1, induced, "hit", forced_edge=0)
    assert v.status == "SAT"
    F = third_pipeline(G, O, 0, 2).factor
    assert F.edge_ids == tuple(e for e in v.witness.edge_ids if e < G.m)
    any_matching = t_factor_oracle(xmap.expanded, 1).witness.edge_ids
    assert verify_factor(G, [e for e in any_matching if e < G.m], 2)
