import pytest

from cyclehit import (
    CycleSet,
    FormatError,
    GraphError,
    Multigraph,
    cycle_vertices,
    parse_cycles,
)
from conftest import doubled_triangle, k4


def test_cycle_vertices_triangle():
    G = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    assert cycle_vertices(G, (0, 1, 2)) == (0, 1, 2)


def test_cycle_vertices_two_cycle():
    G = doubled_triangle()
    assert cycle_vertices(G, (0, 3)) == (0, 1)
    with pytest.raises(GraphError):
        cycle_vertices(G, (0, 1))  # not parallel


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
    CycleSet(G, [(0, 1, 2), (3, 4, 5)])  # the two copies of the triangle
    CycleSet(G, [(0, 3), (1, 4), (2, 5)])  # the three 2-cycles
    with pytest.raises(GraphError):
        CycleSet(G, [(0, 1, 2), (0, 3)])  # share edge 0


def test_parse_errors_carry_line_numbers():
    G = k4()
    with pytest.raises(FormatError) as exc:
        parse_cycles("p cyc 1\nc 2 0 3 1\n", G)
    assert exc.value.line_no == 2
    with pytest.raises(FormatError):
        parse_cycles("c 3 0 3 1\n", G)
