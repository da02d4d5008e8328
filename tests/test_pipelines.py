from unittest import mock

import networkx
import pytest
from hypothesis import given, settings, strategies as st

from cyclehit import (
    CycleSet,
    Factor,
    GraphError,
    Multigraph,
    SearchBudget,
    extend_factor,
    gen_doubled,
    gen_thm5,
    half_pipeline,
    pack_cycles,
    petersen,
    petersen_cycles,
    random_regular_multigraph,
    split_factor,
    t_factor_oracle,
    third_pipeline,
    two_factorization,
    verify_factor,
    verify_intersections,
    verify_orientation,
    vertex_connectivity,
)
from cyclehit import factors, pipelines, solver
from conftest import circulant, doubled_triangle, k4


@pytest.mark.parametrize("t", [0, -1])
@pytest.mark.parametrize("checked", [True, False], ids=["checked", "unchecked"])
@pytest.mark.parametrize("arbitrary", [False, True], ids=["plain", "arbitrary"])
def test_third_pipeline_checks_t_first(t, checked, arbitrary):
    G = petersen()
    with pytest.raises(GraphError, match="^t must be a positive integer$"):
        third_pipeline(G, petersen_cycles(G), None if arbitrary else 0, t,
                       checked=checked, arbitrary=arbitrary)


def test_third_pipeline_petersen_every_edge():
    G = petersen()
    O = petersen_cycles(G)
    for e in range(G.m):
        rep = third_pipeline(G, O, e, 1)
        assert e in rep.factor.edge_ids
        assert verify_factor(G, rep.factor, 1)
        assert verify_intersections(rep.factor, O, "hit-matching")


def test_third_pipeline_t2_doubled_petersen():
    # doubling Petersen gives a 6-regular 2-connected graph for t=2
    base = petersen()
    G = Multigraph(base.n, list(base.edges) * 2)
    O = CycleSet(G, petersen_cycles(base).cycles)
    rep = third_pipeline(G, O, 0, 2)
    assert verify_factor(G, rep.factor, 2)
    assert verify_intersections(rep.factor, O, "hit-matching")


def test_third_pipeline_precondition_checks():
    G = petersen()
    O = petersen_cycles(G)
    with pytest.raises(GraphError):
        third_pipeline(G, O, 0, 2)  # not 6-regular
    with pytest.raises(GraphError):
        third_pipeline(G, O, 99, 1)  # edge id out of range
    # even prescribed cycle rejected in the odd-cycle pipeline
    G4 = circulant(8, (1, 2, 3))
    O4 = pack_cycles(G4, parity="even")
    with pytest.raises(GraphError):
        third_pipeline(G4, O4, 0, 2)


def test_half_pipeline_orientation_doubled_triangle():
    G = doubled_triangle()
    O = CycleSet(G, [(0, 1, 2)])
    D = half_pipeline(G, O, 2).orientation
    assert verify_orientation(G, D, O)
    assert all(d in (0, 2, 4) for d in D.indegrees())


def test_half_pipeline_requires_even_t():
    G = doubled_triangle()
    O = CycleSet(G, [(0, 1, 2)])
    with pytest.raises(GraphError):
        half_pipeline(G, O, 3)


def test_half_pipeline_doubled_triangle():
    G = doubled_triangle()
    O = CycleSet(G, [(0, 1, 2)])
    rep = half_pipeline(G, O, 2)
    shared = [e for e in (0, 1, 2) if e in rep.factor.edge_ids]
    assert 1 <= len(shared) <= 2
    assert verify_factor(G, rep.factor, 2)


def test_half_pipeline_random_batch():
    for seed in range(10):
        G = random_regular_multigraph(8, 4, seed)
        O = pack_cycles(G, parity="odd")
        rep = half_pipeline(G, O, 2)
        assert verify_intersections(rep.factor, O, "hit-and-cohit")
        v = t_factor_oracle(G, 2, O, "hit-and-cohit")
        assert v.status == "SAT"


def test_extend_factor():
    inst = gen_thm5(4)
    G = inst.graph
    v = t_factor_oracle(G, 2, inst.cycles, "hit")
    F = v.witness
    F4 = extend_factor(G, F, 4)
    assert verify_factor(G, F4, 4)
    assert set(F.edge_ids) <= set(F4.edge_ids)
    assert len(F4.edge_ids) == G.m  # l = r: the whole edge set
    assert verify_intersections(F4, inst.cycles, "hit")
    assert extend_factor(G, F, 2) is F


@pytest.mark.parametrize("seed", [1, 2])
def test_extend_factor_peels_only_the_two_factors_it_keeps(seed):
    """extend_factor keeps the first (l - t)/2 2-factors of the complement
    that two_factorization gives, and peels a perfect matching for those
    alone, not for all (r - t)/2 of them."""
    G = random_regular_multigraph(100, 16, seed)
    F = two_factorization(G)[0]
    rest_ids = [e for e in range(G.m) if e not in F.edge_set()]
    complement = two_factorization(Multigraph(G.n, [G.edges[e] for e in rest_ids]))
    for l in (4, 6):
        needed = (l - F.t) // 2
        first_form = set(F.edge_ids)
        for two_factor in complement[:needed]:
            first_form.update(rest_ids[e] for e in two_factor.edge_ids)
        with mock.patch.object(
            factors, "_bipartite_perfect_matching", wraps=factors._bipartite_perfect_matching
        ) as peel:
            L = extend_factor(G, F, l)
        assert L == Factor(G, l, tuple(sorted(first_form)))
        assert peel.call_count == needed


@pytest.mark.parametrize("pipeline, t, l", [("third", 1, 3), ("half", 2, 4)])
def test_extend_factor_at_r_is_every_edge_and_peels_nothing(pipeline, t, l):
    """At l = r the 2-factors of F's complement are all of it, so the
    l-factor is every edge, and no 2-factor is peeled to find that out."""
    for seed in range(6):
        G = random_regular_multigraph(8 + 2 * seed, l, seed)
        O = pack_cycles(G, parity="odd")
        if pipeline == "third":
            F = third_pipeline(G, O, seed, t).factor
        else:
            F = half_pipeline(G, O, t).factor
        rest_ids = [e for e in range(G.m) if e not in F.edge_set()]
        complement = two_factorization(Multigraph(G.n, [G.edges[e] for e in rest_ids]))
        union = set(F.edge_ids).union(*({rest_ids[e] for e in H.edge_ids} for H in complement))
        with mock.patch.object(pipelines, "_two_factors", wraps=factors._two_factors) as peel:
            L = extend_factor(G, F, l)
        assert peel.call_count == 0
        assert L == Factor(G, l, tuple(range(G.m))) == Factor(G, l, tuple(union))


def test_extend_factor_validation():
    G = k4()
    F = Factor(G, 1, (0, 5))
    with pytest.raises(GraphError):
        extend_factor(G, F, 2)  # parity mismatch
    with pytest.raises(GraphError):
        extend_factor(G, F, 5)  # above regularity
    F3 = extend_factor(G, F, 3)
    assert verify_factor(G, F3, 3)
    assert set(F.edge_ids) <= set(F3.edge_ids)
    # A 2-factor of a 5-regular graph leaves a 3-regular complement, which
    # has no 2-factorization: refused for r - t, not for the complement.
    G5 = random_regular_multigraph(10, 5, 3)
    F2 = t_factor_oracle(G5, 2).witness
    with pytest.raises(GraphError, match="^r - t must be even to extend, got r=5 and t=2$"):
        extend_factor(G5, F2, 4)


def test_third_arbitrary_pipeline_k4():
    G = k4()
    O = CycleSet(G, [(0, 3, 1)])  # a triangle is fine here too
    rep = third_pipeline(G, O, None, 1, arbitrary=True)
    assert verify_intersections(rep.factor, O, "hit-matching")
    # and with an even cycle
    O4 = CycleSet(G, [(0, 4, 5, 1)])  # 4-cycle 0-1-3-2
    rep = third_pipeline(G, O4, None, 1, arbitrary=True)
    assert verify_intersections(rep.factor, O4, "hit-matching")


def test_third_arbitrary_pipeline_circulant():
    G = circulant(8, (1, 2, 3))  # 6-regular, 3-connected
    O = pack_cycles(G, parity="even")
    rep = third_pipeline(G, O, None, 2, arbitrary=True)
    assert verify_factor(G, rep.factor, 2)
    assert verify_intersections(rep.factor, O, "hit-matching")


def test_half_arbitrary_pipeline_circulant():
    G = circulant(8, (1, 2))  # 4-regular, 3-connected
    O = pack_cycles(G, parity="even")
    rep = half_pipeline(G, O, 2, arbitrary=True)
    assert verify_intersections(rep.factor, O, "hit-and-cohit")


def test_arbitrary_pipelines_reject_two_cycles():
    inst = gen_doubled(doubled_triangle())
    with pytest.raises(GraphError):
        third_pipeline(inst.graph, inst.cycles, None, 2, arbitrary=True)
    inst2 = gen_doubled(Multigraph(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(GraphError):
        half_pipeline(inst2.graph, inst2.cycles, 2, arbitrary=True)
    # K5 with edges 0-2 and 1-3 traded for a second 0-1 and a second 2-3:
    # 4-regular and 3-connected, with the 0-1 pair prescribed as a 2-cycle.
    # Rejected with and without the precondition checks, as in the CLI.
    G = Multigraph(5, [(0, 1), (0, 1), (0, 3), (0, 4), (1, 2),
                       (1, 4), (2, 3), (2, 3), (2, 4), (3, 4)])
    O = CycleSet(G, [(0, 1)])
    for checked in (True, False):
        with pytest.raises(GraphError, match="2-cycles are not allowed here"):
            half_pipeline(G, O, 2, checked=checked, arbitrary=True)


def test_checked_pipelines_never_compute_exact_connectivity(monkeypatch):
    def exact_connectivity_called(*args, **kwargs):
        raise RuntimeError("exact vertex connectivity was computed")

    monkeypatch.setattr(networkx, "node_connectivity", exact_connectivity_called)
    with pytest.raises(RuntimeError):
        vertex_connectivity(gen_thm5(4).graph)  # the guard is live: 4-connected, 4-regular

    rep = third_pipeline(petersen(), petersen_cycles(petersen()), 0, 1)
    assert 0 in rep.factor.edge_ids
    G4 = random_regular_multigraph(10, 4, seed=2)
    O4 = pack_cycles(G4, parity="odd")
    assert verify_intersections(half_pipeline(G4, O4, 2).factor, O4, "hit-and-cohit")
    G3 = random_regular_multigraph(12, 3, seed=5, min_connectivity=3)
    O3 = pack_cycles(G3, parity=None)
    rep = third_pipeline(G3, O3, None, 1, arbitrary=True)
    assert verify_intersections(rep.factor, O3, "hit-matching")


# Each pipeline at t = 1000, with the degree its gadget trees need.
_HUGE_T = [
    pytest.param(lambda G, O, **kw: third_pipeline(G, O, 0, 1000, **kw), 3000, id="third"),
    pytest.param(lambda G, O, **kw: third_pipeline(G, O, None, 1000, arbitrary=True, **kw),
                 3000, id="third-arb"),
    pytest.param(lambda G, O, **kw: half_pipeline(G, O, 1000, **kw), 2000, id="half"),
    pytest.param(lambda G, O, **kw: half_pipeline(G, O, 1000, arbitrary=True, **kw),
                 2000, id="half-arb"),
]


@pytest.mark.parametrize("checked", [True, False], ids=["checked", "unchecked"])
@pytest.mark.parametrize("call, degree", _HUGE_T)
def test_pipelines_check_host_and_degree_before_building(monkeypatch, call, degree, checked):
    """checked=False skips only connectivity and parity: a cycle set of
    another graph, or a graph of the wrong degree, is refused with the
    checked call's message before any gadget tree, orientation or expansion
    is built."""
    spies = {name: mock.Mock(side_effect=AssertionError(f"{name} ran"))
             for name in ("build_gadget_tree", "build_even_leaf_tree",
                          "balanced_orientation", "cubic_expansion")}
    for name, spy in spies.items():
        monkeypatch.setattr(pipelines, name, spy)
    G = petersen()
    O = petersen_cycles(G)
    with pytest.raises(GraphError, match=f"^graph must be {degree}-regular$"):
        call(G, O, checked=checked)
    G4 = random_regular_multigraph(10, 4, seed=2)
    with pytest.raises(GraphError, match="^cycle set does not belong to this graph$"):
        call(G4, O, checked=checked)
    assert not any(spy.called for spy in spies.values())


def test_pipeline_searches_skip_the_bridge_search():
    """The third, half, third-arb and half-arb searches run on bridgeless
    expansions, so they never list bridges; the oracle still does."""
    G4 = random_regular_multigraph(10, 4, seed=2)
    G3 = random_regular_multigraph(12, 3, seed=5, min_connectivity=3)
    C4 = circulant(8, (1, 2))
    with mock.patch.object(solver, "bridge_sides", wraps=solver.bridge_sides) as spy:
        third_pipeline(petersen(), petersen_cycles(petersen()), 0, 1)
        half_pipeline(G4, pack_cycles(G4, parity="odd"), 2)
        third_pipeline(G3, pack_cycles(G3, parity=None), None, 1, arbitrary=True)
        half_pipeline(C4, pack_cycles(C4, parity="even"), 2, arbitrary=True)
        assert spy.call_count == 0
        t_factor_oracle(petersen(), 1)
        assert spy.call_count == 1


# (pipeline, r, t, l, parity, min_connectivity, vertex counts): a third or
# half pipeline, plain or arbitrary, on seeded random r-regular inputs.
PIPELINE_CASES = [
    ("third", 3, 1, None, "odd", 2, (4, 20)),
    ("third", 6, 2, None, "odd", 2, (5, 12)),
    ("half", 4, 2, None, "odd", 2, (3, 16)),
    ("half", 4, 2, 4, "odd", 2, (3, 16)),
    ("half", 8, 4, 6, "odd", 2, (4, 12)),
    ("third-arb", 3, 1, None, None, 3, (4, 20)),
    ("half-arb", 4, 2, None, None, 3, (5, 16)),
]


@pytest.mark.parametrize("case", PIPELINE_CASES, ids=lambda c: f"{c[0]}-r{c[1]}-l{c[3]}")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_pipelines_return_verified_witnesses(case, data):
    """Every pipeline, checked, on small seeded random inputs returns a
    witness that the verification predicates accept, within a fixed node
    budget; the half pipelines' orientation passes verify_orientation and
    splits into their factor."""
    pipeline, r, t, l, parity, connectivity, (lo, hi) = case
    n = data.draw(st.integers(lo, hi).filter(lambda n: n * r % 2 == 0), label="n")
    G = random_regular_multigraph(n, r, data.draw(st.integers(0, 10**6), label="seed"),
                                  min_connectivity=connectivity)
    O = pack_cycles(G, parity=parity)
    arbitrary = pipeline.endswith("-arb")
    budget = SearchBudget(max_nodes=20_000)
    if pipeline.startswith("third"):
        e = None if arbitrary else data.draw(st.integers(0, G.m - 1), label="forced edge")
        F = third_pipeline(G, O, e, t, budget=budget, arbitrary=arbitrary).factor
        assert e is None or e in F.edge_ids
        mode = "hit-matching"
    else:
        report = half_pipeline(G, O, t, budget=budget, arbitrary=arbitrary)
        assert split_factor(G, report.orientation, O, t) == report.factor
        assert verify_orientation(G, report.orientation, O)
        F, mode = report.factor, "hit-and-cohit"
    assert verify_factor(G, F, t) and verify_intersections(F, O, mode)
    if l is not None:
        L = extend_factor(G, F, l)
        assert set(F.edge_ids) <= set(L.edge_ids)
        assert verify_factor(G, L, l) and verify_intersections(L, O, "hit")
