"""Property tests of the structural checks against exact oracles, on random
small multigraphs: disconnected ones, parallel edges and n <= 2 included."""

from hypothesis import given, settings, strategies as st

from cyclehit import GraphError, Multigraph, is_k_connected, two_edge_cut_sides, vertex_connectivity
from conftest import naive_two_edge_cut_sides

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@st.composite
def multigraphs(draw, max_n: int = 8):
    """Any loopless multigraph on up to max_n vertices.  The edges start
    empty, as a Hamiltonian cycle or as the complete graph, so that
    2-edge-connected graphs with cuts and 3- and 4-connected graphs are
    common; random edges are then added and a few removed."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return Multigraph(n, [])
    base = draw(st.sampled_from(["empty", "cycle", "complete"]))
    if base == "cycle":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif base == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        edges = []
    for u, step in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                                 max_size=2 * n)):
        edges.append((u, (u + step) % n))
    if edges:
        dropped = set(draw(st.lists(st.integers(0, len(edges) - 1), max_size=3)))
        edges = [e for i, e in enumerate(edges) if i not in dropped]
    return Multigraph(n, draw(st.permutations(edges)))


def _outcome(fn, G):
    try:
        return "ok", fn(G)
    except GraphError as exc:
        return "error", str(exc)


@PROPERTY
@given(multigraphs())
def test_is_k_connected_matches_exact_connectivity(G):
    kappa = vertex_connectivity(G)
    for k in range(5):
        assert is_k_connected(G, k) == (kappa >= k), (k, kappa)


@PROPERTY
@given(multigraphs())
def test_two_edge_cut_sides_matches_all_pairs_oracle(G):
    assert _outcome(two_edge_cut_sides, G) == _outcome(naive_two_edge_cut_sides, G)
