import random

import pytest
from hypothesis import given, settings, strategies as st

from cyclehit import (
    CycleSet,
    FormatError,
    GraphError,
    Multigraph,
    cycle_vertices,
    parse_cycles,
)
from conftest import doubled_triangle, k4, reference_cycle_vertices


def test_cycle_vertices_triangle():
    G = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    assert cycle_vertices(G, (0, 1, 2)) == (0, 1, 2)


def test_cycle_vertices_two_cycle():
    G = doubled_triangle()
    assert cycle_vertices(G, (0, 3)) == (0, 1)
    with pytest.raises(GraphError):
        cycle_vertices(G, (0, 1))  # not parallel


def multigraph_and_edge_ids(seed: int) -> tuple[Multigraph, list[int]]:
    """A multigraph on at most 5 vertices with parallel copies of some of
    its edges, and a sequence of its edge ids: one time in five any 0 to 6
    ids, else the distinct edges of a random walk of 2 to 5 steps, mostly
    closed by one more edge back to its start.  Such a walk may turn back
    along a parallel edge or repeat a vertex."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(3, 8))]
    edges += rng.choices(edges, k=rng.randint(0, 4))
    rng.shuffle(edges)
    G = Multigraph(n, edges)
    if rng.random() < 0.2:
        return G, [rng.randrange(G.m) for _ in range(rng.randint(0, 6))]
    start = v = rng.randrange(n)
    walk: list[int] = []
    for _ in range(rng.randint(2, 5)):
        unused = [e for e in G.incident(v) if e not in walk]
        if not unused:
            break
        walk.append(rng.choice(unused))
        v = G.other_end(walk[-1], v)
    back = [e for e in G.incident(v) if e not in walk and G.other_end(e, v) == start]
    if back and rng.random() < 0.9:
        walk.append(rng.choice(back))
    return G, walk


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32))
def test_cycle_vertices_matches_its_first_form(seed):
    """cycle_vertices gives the walk, or the GraphError message, that
    intersecting endpoint sets gives (conftest.reference_cycle_vertices)."""
    G, cycle = multigraph_and_edge_ids(seed)
    got = []
    for walk in (cycle_vertices, reference_cycle_vertices):
        try:
            got.append(walk(G, cycle))
        except GraphError as error:
            got.append(str(error))
    assert got[0] == got[1]


def test_cycle_vertices_rejects_non_cycles():
    G = k4()
    with pytest.raises(GraphError):
        cycle_vertices(G, (0,))
    with pytest.raises(GraphError):
        cycle_vertices(G, (0, 0, 1))
    # path, not closed
    with pytest.raises(GraphError):
        cycle_vertices(G, (0, 3, 2))


def test_cycle_set_edge_disjointness():
    G = doubled_triangle()
    # the two copies of the triangle, and the three 2-cycles
    for cycles in ([(0, 1, 2), (5, 4, 3)], [(0, 3), (4, 1), (2, 5)]):
        O = CycleSet(G, cycles)
        assert O.walks == tuple(cycle_vertices(G, c) for c in cycles)  # kept, not redone
    with pytest.raises(GraphError):
        CycleSet(G, [(0, 1, 2), (0, 3)])  # share edge 0
    # Edge ids are integers, never truncated: int() would read (0.4, 1.9,
    # 2.2) as the triangle (0, 1, 2).
    with pytest.raises(GraphError, match="^cycle 0: edge ids must be integers$"):
        CycleSet(G, [(0.4, 1.9, 2.2)])
    with pytest.raises(GraphError, match="^cycle 1: edge ids must be integers$"):
        CycleSet(G, [(0, 1, 2), ("5", 4, 3)])


def test_parse_errors_carry_line_numbers():
    G = k4()
    with pytest.raises(FormatError) as exc:
        parse_cycles("p cyc 1\nc 2 0 3 1\n", G)
    assert exc.value.line_no == 2
    with pytest.raises(FormatError):
        parse_cycles("c 3 0 3 1\n", G)
