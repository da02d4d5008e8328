import pytest

from cyclehit import (
    FamilyInstance,
    GraphError,
    Multigraph,
    SAT,
    UNSAT,
    cycle_vertices,
    gen_doubled,
    gen_sec6_2k,
    gen_thm4,
    gen_thm5,
    petersen,
    petersen_cycles,
    t_factor_oracle,
    vertex_connectivity,
)
from conftest import bowtie


def test_thm4_case1_counts():
    inst = gen_thm4(4, 2)
    assert inst.graph.n == 17
    assert inst.graph.m == 34
    assert inst.graph.is_regular() == 4
    assert len(inst.cycles) == 2
    assert all(len(c) == 3 for c in inst.cycles)
    assert inst.meta["case"] == 1


def test_thm4_case3_counts():
    inst = gen_thm4(5, 2)
    assert inst.graph.n == 68
    assert inst.graph.is_regular() == 5
    assert inst.meta["case"] == 3


def test_thm4_case2():
    inst = gen_thm4(6, 3)
    assert inst.graph.is_regular() == 6
    assert inst.meta["case"] == 2


def test_thm4_case4_wheel():
    for r in (3, 4, 5):
        inst = gen_thm4(r, 1)
        assert inst.graph.is_regular() == r
        assert inst.graph.n == 12
        assert len(inst.cycles) == 1
        assert cycle_vertices(inst.graph, inst.cycles.cycles[0]) == (0, 1, 2)


def test_thm4_parameter_validation():
    with pytest.raises(GraphError):
        gen_thm4(4, 3)  # r even, t odd needs r >= 6
    with pytest.raises(GraphError):
        gen_thm4(3, 2)  # t > r - 2
    with pytest.raises(GraphError):
        gen_thm4(4, 0)


def test_thm5_counts_and_connectivity():
    inst = gen_thm5(4)
    assert inst.graph.n == 18
    assert inst.graph.m == 36
    assert inst.graph.is_regular() == 4
    assert len(inst.cycles) == 4
    assert vertex_connectivity(inst.graph) == 4
    assert gen_thm5(3).graph.is_regular() == 3
    assert vertex_connectivity(gen_thm5(5).graph) == 5
    with pytest.raises(GraphError):
        gen_thm5(2)


def test_thm5_has_plain_t_factors():
    # unconstrained t-factors exist at every t <= r (mode=none)
    G = gen_thm5(3).graph
    for t in (1, 2, 3):
        assert t_factor_oracle(G, t).status == SAT


def test_sec6_counts():
    inst = gen_sec6_2k(2)
    assert inst.graph.n == 6
    assert inst.graph.m == 12
    assert inst.graph.is_regular() == 4
    assert len(inst.cycles) == 2
    inst3 = gen_sec6_2k(3)
    assert inst3.graph.n == 8
    assert inst3.graph.is_regular() == 6
    assert len(inst3.cycles) == 3
    assert all(len(c) == 4 for c in inst3.cycles)
    with pytest.raises(GraphError):
        gen_sec6_2k(1)


def test_doubled_reduction():
    # base with a perfect matching: 1-factor of the doubled graph hits the
    # matched 2-cycles; hitting ALL 2-cycles with t=r_base+1 iff base has a
    # perfect matching
    base = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # C4, r=2
    inst = gen_doubled(base)
    assert inst.graph.m == 2 * base.m
    assert len(inst.cycles) == base.m
    assert t_factor_oracle(inst.graph, 3, inst.cycles, "hit").status == SAT
    # bowtie has odd order: no perfect matching, so no 3-factor hits all
    inst2 = gen_doubled(bowtie())
    assert t_factor_oracle(inst2.graph, 3, inst2.cycles, "hit").status == UNSAT


def test_serialization_deterministic():
    a = gen_thm5(4).serialize()
    b = gen_thm5(4).serialize()
    assert a == b
    assert a[0].startswith("# family:")


def test_petersen():
    G = petersen()
    assert G.n == 10 and G.m == 15
    assert G.is_regular() == 3
    assert vertex_connectivity(G) == 3
    O = petersen_cycles(G)
    assert [len(c) for c in O.cycles] == [5, 5]
    cycle_vertices(G, O.cycles[0])
    cycle_vertices(G, O.cycles[1])


def test_family_instance_checks_a_claimed_regularity():
    G = petersen()
    assert FamilyInstance(G, petersen_cycles(G), {"regular": 3}).meta == {"regular": 3}
    with pytest.raises(AssertionError, match="broke regularity"):
        FamilyInstance(G, petersen_cycles(G), {"regular": 4})
