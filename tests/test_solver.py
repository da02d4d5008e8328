import itertools
from unittest import mock

import pytest

from cyclehit import (
    BUDGET_EXCEEDED,
    SAT,
    UNSAT,
    CycleSet,
    GraphError,
    Multigraph,
    SearchBudget,
    gen_sec6_2k,
    gen_thm4,
    gen_thm5,
    pack_cycles,
    petersen,
    petersen_cycles,
    random_regular_multigraph,
    t_factor_oracle,
    third_pipeline,
    verify_factor,
    verify_intersections,
)
from cyclehit import relaxation, solver
from conftest import bowtie, c4, doubled_triangle, k33, k4, naive_subset_verdict


def test_oracle_simple_sat_unsat():
    G = k4()
    assert t_factor_oracle(G, 1).status == SAT
    assert t_factor_oracle(G, 2).status == SAT
    assert t_factor_oracle(G, 3).status == SAT
    assert t_factor_oracle(bowtie(), 1).status == UNSAT  # odd order


def test_oracle_witness_is_verified():
    inst = gen_sec6_2k(2)
    v = t_factor_oracle(inst.graph, 2, inst.cycles, "hit")
    assert v.status == SAT
    assert verify_factor(inst.graph, v.witness, 2)
    assert verify_intersections(v.witness, inst.cycles, "hit")


def test_oracle_budget_is_not_unsat():
    inst = gen_thm4(4, 2)
    v = t_factor_oracle(inst.graph, 2, inst.cycles, "hit",
                        budget=SearchBudget(max_nodes=5))
    assert v.status == BUDGET_EXCEEDED
    assert v.witness is None
    assert "BUDGET" in v.summary()


def test_search_budget_time_limit_must_be_positive():
    # NaN fails every comparison, so only "not > 0" rejects it; inf is no limit.
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="^max_seconds must be positive$"):
            SearchBudget(max_seconds=bad)
    budget = SearchBudget(max_seconds=float("inf"))
    assert t_factor_oracle(k4(), 1, budget=budget).status == SAT


def test_oracle_matches_naive_subset_enumeration():
    fixtures = [
        (k4(), None),
        (c4(), None),
        (bowtie(), None),
        (doubled_triangle(), CycleSet(doubled_triangle(), [(0, 3), (1, 4), (2, 5)])),
        (k33(), pack_cycles(k33(), parity="even")),
    ]
    inst = gen_sec6_2k(2)
    fixtures.append((inst.graph, inst.cycles))
    for G, O in fixtures:
        assert G.m <= 16
        for t in range(5):
            for mode in ("none", "hit", "hit-matching", "hit-and-cohit"):
                if O is None and mode != "none":
                    continue
                got = t_factor_oracle(G, t, O, mode).status
                want = SAT if naive_subset_verdict(G, t, O, mode) else UNSAT
                assert got == want, (G, t, mode)


def test_oracle_witness_through_each_edge_is_lex_first():
    # The perfect matching through edge e that comes first in edge-id order.
    cases = [
        (k4(), [(0, 5), (1, 4), (2, 3), (2, 3), (1, 4), (0, 5)]),
        (k33(), [(0, 4, 8), (1, 3, 8), (2, 3, 7), (1, 3, 8), (0, 4, 8), (0, 5, 7),
                 (1, 5, 6), (0, 5, 7), (0, 4, 8)]),
    ]
    for G, witnesses in cases:
        got = [t_factor_oracle(G, 1, forced_edge=e).witness.edge_ids for e in range(G.m)]
        assert got == witnesses


def test_oracle_input_checks():
    G = petersen()
    bad = [
        (1, gen_thm5(3).cycles, "hit", GraphError, "cycle set does not belong"),
        (-1, None, "none", GraphError, "t must be non-negative"),
        (1, None, "nope", ValueError, "unknown mode"),
        (1, None, "hit", GraphError, "mode hit needs --cycles"),
    ]
    for t, O, mode, error, message in bad:
        with pytest.raises(error, match=message):
            t_factor_oracle(G, t, O, mode)


def test_oracle_finds_a_hitting_perfect_matching_through_every_forced_edge():
    G = petersen()
    O = petersen_cycles(G)
    for e in range(G.m):
        v = t_factor_oracle(G, 1, O, "hit", forced_edge=e)
        assert v.status == SAT
        assert e in v.witness.edge_ids


def test_lp_stage_runs_in_every_mode():
    # thm5 r=6 at t=1 is UNSAT in every hitting mode, and each search is
    # still undecided at node _LP_NODE, where the LP stage's certificate
    # ends it: with only x(C) >= 1 in mode hit, with x(C) <= floor(|C|/2)
    # too in mode hit-matching and with x(C) <= |C| - 1 in hit-and-cohit.
    # The search alone takes 753 nodes in each.
    inst = gen_thm5(6)
    runs = [(inst.graph, 1, inst.cycles, mode, 1, solver._LP_NODE)
            for mode in ("hit", "hit-matching", "hit-and-cohit")]
    # Two disjoint K7s have no 3-factor, but the LP relaxation has a point
    # (1/2 on every edge), so in mode none the search resumes after it, and
    # exhausts the space at node 1613.
    K7 = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    runs.append((Multigraph(14, K7 + [(u + 7, v + 7) for u, v in K7]), 3, None, "none", 1, 1613))
    for G, t, O, mode, calls, nodes in runs:
        with mock.patch.object(relaxation, "decide", wraps=relaxation.decide) as decide:
            v = t_factor_oracle(G, t, O, mode)
        assert (v.status, decide.call_count, v.nodes_explored) == (UNSAT, calls, nodes), mode


def test_lp_stage_decides_sec6_2k_with_its_pair_cuts():
    # Each prescribed 4-cycle of sec6-2k is the cut of a vertex pair joined
    # by 2k - 2 parallel edges, so its LP row asks for 2: the LP stage
    # settles both sides of t = k at its node, where the search alone takes
    # 54,227 nodes at k=9, t=8, and more than 5 s at k=11.
    for k in (5, 7, 9, 11):
        inst = gen_sec6_2k(k)
        for t, status in ((k - 1, UNSAT), (k, SAT)):
            v = t_factor_oracle(inst.graph, t, inst.cycles, "hit")
            assert (v.status, v.nodes_explored) == (status, solver._LP_NODE), (k, t)
            if status == SAT:
                assert verify_factor(inst.graph, v.witness, t), k
                assert verify_intersections(v.witness, inst.cycles, "hit"), k


def test_oracle_rejects_an_out_of_range_forced_edge():
    G = petersen()
    for edge in (-1, G.m):  # as an index, -1 would force the last edge
        with pytest.raises(GraphError, match=f"edge id {edge} out of range"):
            t_factor_oracle(G, 1, petersen_cycles(G), "hit", forced_edge=edge)


def test_oracle_checks_the_forced_edge_before_building_its_engine(monkeypatch):
    monkeypatch.setattr(solver, "_DegreeSearch", mock.Mock(side_effect=AssertionError("built")))
    G = petersen()
    with pytest.raises(GraphError, match=f"^edge id {G.m} out of range$"):
        t_factor_oracle(G, 1, petersen_cycles(G), "hit", forced_edge=G.m)


# Two K4-minus-edge blocks joined by the edges 10 and 11: a cubic graph
# with a 2-edge-cut.
CUT_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3),
             (4, 5), (4, 6), (5, 7), (6, 7), (4, 7),
             (1, 5), (2, 6)]


@pytest.mark.parametrize("cycles", [
    [(0, 2, 4)],  # triangle 0-1-3 on one side of the cut
    [(0, 2, 4), (5, 7, 9)],  # triangles on both sides
], ids=["one-side", "both-sides"])
def test_cubic_graph_with_a_two_edge_cut(cycles):
    G = Multigraph(8, CUT_EDGES)
    assert G.is_regular() == 3
    O = CycleSet(G, cycles)
    v = t_factor_oracle(G, 1, O, "hit")
    assert v.status == SAT
    assert verify_factor(G, v.witness, 1)
    assert verify_intersections(v.witness, O, "hit")
    rep = third_pipeline(G, O, None, 1, checked=False, arbitrary=True)
    assert verify_factor(G, rep.factor, 1)
    assert verify_intersections(rep.factor, O, "hit-matching")


def test_search_is_deterministic():
    G = random_regular_multigraph(10, 4, seed=2)
    O = pack_cycles(G, parity="odd")
    a = t_factor_oracle(G, 2, O, "hit")
    b = t_factor_oracle(G, 2, O, "hit")
    assert a.status == b.status == SAT
    assert a.witness.edge_ids == b.witness.edge_ids
    assert a.nodes_explored == b.nodes_explored


def test_backtracking_with_degrees_past_a_byte():
    """With t = 256 a vertex can end with 256 IN edges, which a byte cannot
    hold, so the search must not keep its degrees in bytes.  Vertices 0
    and 1 are fully IN from the start; the 129 prescribed 2-cycles on 2-3
    allow at most 129 of its 258 edges IN, which the search has to branch
    to find out."""
    G = Multigraph(4, [(0, 1)] * 256 + [(2, 3)] * 258)
    O = CycleSet(G, [(256 + 2 * i, 257 + 2 * i) for i in range(129)])
    for mode in ("hit-and-cohit", "hit-matching"):
        v = t_factor_oracle(G, 256, O, mode)
        assert (v.status, v.nodes_explored) == (UNSAT, 4), mode
