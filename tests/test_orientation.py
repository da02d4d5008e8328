import pytest
from hypothesis import given, settings, strategies as st

from cyclehit import (
    CycleSet,
    GraphError,
    Multigraph,
    Orientation,
    balanced_orientation,
    cycle_vertices,
    gen_doubled,
    half_pipeline,
    pack_cycles,
    random_regular_multigraph,
    verify_orientation,
)
from cyclehit.orientation import _cycle_is_oriented
from conftest import c4, k4, reference_cycle_is_oriented

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def test_orientation_validation():
    G = c4()
    D = Orientation(G, (1, 2, 3, 3))
    assert D.indegrees() == [0, 1, 1, 2]
    with pytest.raises(GraphError):
        Orientation(G, (2, 2, 3, 3))  # vertex 2 is not an endpoint of edge 0
    with pytest.raises(GraphError):
        Orientation(G, (1, 2, 3))
    # Heads are integers: a float head would serialize as "o 0 1.0", which
    # parse_orientation refuses.
    with pytest.raises(GraphError, match="^head of edge 0 must be an integer$"):
        Orientation(Multigraph(2, [(0, 1), (0, 1)]), (1.0, 0.0))
    with pytest.raises(GraphError, match="^head of edge 2 must be an integer$"):
        Orientation(G, (1, 2, "3", 3))


def test_flipped():
    G = c4()
    D = Orientation(G, (1, 2, 3, 3))
    assert D.flipped([0]).head == (0, 2, 3, 3)
    assert D.flipped([]).head == D.head


def test_verify_orientation_oriented_cycle_rejected():
    G = c4()
    O = CycleSet(G, [(0, 1, 2, 3)])
    # directed 4-cycle: oriented, so false despite even indegrees
    around = Orientation(G, (1, 2, 3, 0))
    assert not verify_orientation(G, around, O)
    # alternating: indegrees 2,0,2,0 (even) and not oriented
    alternating = Orientation(G, (0, 2, 2, 0))
    assert verify_orientation(G, alternating, O)


def test_verify_orientation_odd_indegree_rejected():
    G = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    O = CycleSet(G, [])
    D = Orientation(G, (1, 1, 0))  # indegrees 1,2,0
    assert not verify_orientation(G, D, O)


def test_half_pipeline_orientation_random_instance():
    G = random_regular_multigraph(10, 4, seed=7)
    O = pack_cycles(G, parity="odd")
    D = half_pipeline(G, O, 2).orientation
    assert verify_orientation(G, D, O)
    assert all(d % 2 == 0 for d in D.indegrees())


@st.composite
def even_instances(draw):
    """An even-degree multigraph on up to 10 vertices and a cycle set on it.
    The edges are closed walks of 2 to 6 steps (a 2-step walk is a pair of
    parallel edges), so parallel edges, several components and isolated
    vertices are common.  The cycles are those of pack_cycles(parity=None)
    on these edges and, when one is drawn, a prescribed 2-cycle on two more
    parallel edges.  Edge ids are shuffled."""
    n = draw(st.integers(1, 10))
    edges = []
    for walk in draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=6),
                              max_size=5)):
        if all(walk[i - 1] != walk[i] for i in range(len(walk))):
            edges += [(walk[i - 1], walk[i]) for i in range(len(walk))]
    cycles = list(pack_cycles(Multigraph(n, edges), parity=None).cycles)
    if n >= 2 and draw(st.booleans()):
        u, v = draw(st.permutations(range(n)))[:2]
        cycles.append((len(edges), len(edges) + 1))
        edges += [(u, v), (v, u)]
    order = draw(st.permutations(range(len(edges))))
    new_id = {old: new for new, old in enumerate(order)}
    G = Multigraph(n, [edges[old] for old in order])
    return G, CycleSet(G, [tuple(new_id[e] for e in cyc) for cyc in cycles])


@PROPERTY
@given(even_instances())
def test_balanced_orientation_is_balanced_and_directs_every_cycle(instance):
    G, O = instance
    D = balanced_orientation(G, O)
    assert all(h in G.endpoints(e) for e, h in enumerate(D.head))
    assert [2 * d for d in D.indegrees()] == G.degrees()
    assert all(_cycle_is_oriented(D, c) for c in O.cycles)
    assert balanced_orientation(G, O) == D
    assert balanced_orientation(G) == balanced_orientation(G, CycleSet(G, []))


@st.composite
def oriented_cycle_sets(draw):
    """A graph, a cycle set on it and an orientation: an even_instances
    graph and cycle set, or gen_doubled of a random multigraph, whose cycles
    are all 2-cycles.  Each cycle is directed along its walk, against it, or
    edge by edge at random, so oriented and unoriented cycles are common."""
    if draw(st.booleans()):
        G, O = draw(even_instances())
    else:
        n = draw(st.integers(2, 6))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                              max_size=8))
        inst = gen_doubled(Multigraph(n, [(u, (u + step) % n) for u, step in pairs]))
        G, O = inst.graph, inst.cycles
    head = [G.endpoints(e)[draw(st.integers(0, 1))] for e in range(G.m)]
    for cyc in O.cycles:
        walk = cycle_vertices(G, cyc)
        way = draw(st.sampled_from(["along", "against", "random"]))
        if way != "random":
            for i, e in enumerate(cyc):
                head[e] = walk[(i + (way == "along")) % len(cyc)]
    return G, O, Orientation(G, tuple(head))


@PROPERTY
@given(oriented_cycle_sets())
def test_cycle_is_oriented_matches_the_head_count_rule(instance):
    G, O, D = instance
    for cyc in O.cycles:
        assert _cycle_is_oriented(D, cyc) == reference_cycle_is_oriented(D, cyc), cyc


def test_balanced_orientation_follows_cycles_and_lowest_edges():
    """A prescribed cycle keeps its edge order; the rest is one Eulerian
    circuit from vertex 0 that always leaves along its lowest free edge."""
    G = Multigraph(3, [(0, 1), (1, 2), (0, 2), (0, 1), (1, 2), (0, 2)])
    assert balanced_orientation(G).head == (1, 2, 0, 1, 2, 0)
    O = CycleSet(G, [(5, 4, 3)])  # vertex walk (0, 2, 1)
    assert balanced_orientation(G, O).head == (1, 2, 0, 0, 1, 2)


_TRIANGLE_AND_PENDANT = Multigraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


@pytest.mark.parametrize("G, O, message", [
    (Multigraph(2, [(0, 1)]), None, "odd degree at vertex 0"),
    (_TRIANGLE_AND_PENDANT, None, "odd degree at vertex 2"),
    (k4(), CycleSet(k4(), [(0, 3, 1)]), "odd degree at vertex 0"),
    (c4(), CycleSet(Multigraph(3, [(0, 1), (1, 2), (0, 2)]), [(0, 1, 2)]),
     "cycle set does not belong to this graph"),
    # The host is checked before the degrees.
    (_TRIANGLE_AND_PENDANT, CycleSet(c4(), [(0, 1, 2, 3)]),
     "cycle set does not belong to this graph"),
], ids=["edge", "pendant", "cubic", "foreign-cycles", "foreign-cycles-odd-degree"])
def test_balanced_orientation_input_errors(G, O, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        balanced_orientation(G, O)
