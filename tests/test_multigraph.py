import pytest

from cyclehit import (
    FormatError,
    GraphError,
    Multigraph,
    is_k_connected,
    parse_multigraph,
    vertex_connectivity,
)
from cyclehit.multigraph import bridge_sides
from conftest import (
    bowtie, c4, doubled_triangle, k4, naive_vertex_connectivity, prism, reference_components,
)


def test_basic_accessors():
    G = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
    assert G.n == 3 and G.m == 3
    assert G.endpoints(0) == (0, 1)
    assert G.other_end(0, 0) == 1
    assert G.incident(1) == (0, 1, 2)
    assert G.degrees() == [2, 3, 1]
    assert G.is_regular() is None
    assert doubled_triangle().is_regular() == 4


def test_loops_and_range_rejected():
    with pytest.raises(GraphError):
        Multigraph(2, [(0, 0)])
    with pytest.raises(GraphError):
        Multigraph(2, [(0, 2)])


def test_components_and_connectivity():
    G = Multigraph(4, [(0, 1), (2, 3)])
    assert len(reference_components(G)) == 2
    assert not G.is_connected()
    assert vertex_connectivity(G) == 0
    assert vertex_connectivity(k4()) == 3
    assert vertex_connectivity(bowtie()) == 1
    assert vertex_connectivity(c4()) == 2


def test_connectivity_matches_naive_oracle():
    graphs = [k4(), c4(), bowtie(), doubled_triangle(),
              Multigraph(1, []), Multigraph(5, [(i, (i + 1) % 5) for i in range(5)])]
    for G in graphs:
        assert vertex_connectivity(G) == naive_vertex_connectivity(G)


def test_parallel_edges_do_not_change_connectivity():
    single = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    doubled = doubled_triangle()
    assert vertex_connectivity(single) == vertex_connectivity(doubled) == 2


def test_parse_comments_and_errors():
    G = parse_multigraph("# hello\np mg 2 1\n# mid\ne 0 1\n")
    assert G.m == 1
    with pytest.raises(FormatError) as exc:
        parse_multigraph("p mg 2 1\ne 0 2\n")
    assert exc.value.line_no == 2
    with pytest.raises(FormatError):
        parse_multigraph("e 0 1\n")
    with pytest.raises(FormatError):
        parse_multigraph("p mg 3 2\ne 0 1\n")


def test_structural_checks_need_no_recursion_on_a_long_prism():
    # The depth-first search on a prism is about as deep as it has vertices;
    # 10^4 vertices is far past the default recursion limit.
    k = 5000
    G = prism(k)
    assert is_k_connected(G, 2)
    assert is_k_connected(G, 3)
    # Without the rung 0-k (edge 2), vertices 0 and k keep two edges each.
    H = Multigraph(2 * k, G.edges[:2] + G.edges[3:])
    assert is_k_connected(H, 2)
    assert not is_k_connected(H, 3)


def test_bridge_sides_is_linear_in_the_number_of_components():
    # Per-vertex arrays allocated once per component would make this
    # quadratic: about a minute instead of well under a second.
    k = 10**5
    G = Multigraph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
    sides = bridge_sides(G)
    assert len(sides) == k
    assert {(min(p, v), size) for p, v, size in sides} == {(2 * i, 1) for i in range(k)}
