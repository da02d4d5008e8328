import random

import networkx
import pytest

from cyclehit import (
    FormatError,
    GraphError,
    Multigraph,
    is_k_connected,
    parse_multigraph,
    petersen,
    random_regular_multigraph,
    vertex_connectivity,
)
from cyclehit import multigraph
from cyclehit.multigraph import _SCREEN_MAX_DEGREE, _cut_labels, _dfs, bridge_sides
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
    # The first bad edge is named, whatever comes after it.
    with pytest.raises(GraphError, match="^edge 1: loops are forbidden$"):
        Multigraph(3, [(0, 1), (1, 1), (0, 5)])
    with pytest.raises(GraphError, match="^edge 0: endpoint out of range$"):
        Multigraph(3, [(0, 5), (1, 1)])
    with pytest.raises(GraphError, match="^edge 0: endpoint out of range$"):
        Multigraph(3, [(4, 4)])
    # Endpoints are integers, never truncated: int() would read these as
    # the edges (0, 1), (1, 2) and (1, 2).
    with pytest.raises(GraphError, match="^edge 0: endpoints must be integers$"):
        Multigraph(3, [(0.7, 1.2), (1, 2)])
    with pytest.raises(GraphError, match="^edge 1: endpoints must be integers$"):
        Multigraph(3, [(0, 1), ("1", 2)])
    with pytest.raises(GraphError, match="^edge 1: endpoints must be integers$"):
        Multigraph(3, [(0, 1), (True, 2.9)])


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


def test_connectivity_needs_no_networkx_below_3_or_at_degree_3(monkeypatch):
    """Connectivity never exceeds the minimum degree, so is_k_connected
    answers for cubic graphs and for graphs whose connectivity is at most
    2, whatever their degrees."""
    def exact_connectivity_called(*args, **kwargs):
        raise RuntimeError("networkx computed the connectivity")

    monkeypatch.setattr(networkx, "node_connectivity", exact_connectivity_called)
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    rng = random.Random(9)
    graphs = [
        Multigraph(0, []), Multigraph(1, []), Multigraph(4, [(0, 1), (2, 3)]),
        k4(), c4(), bowtie(), doubled_triangle(), petersen(), prism(3), prism(5),
        Multigraph(9, k5 + [(u + 4, v + 4) for u, v in k5]),  # two K5s sharing vertex 4
        Multigraph(5, [(i, (i + 1) % 5) for i in range(5)] * 2),  # 4-regular, connectivity 2
    ] + [random_regular_multigraph(10, r, rng.randrange(2**31), min_connectivity=0)
         for r in (3, 4) for _ in range(12)]
    kappas = []
    for G in graphs:
        kappa = naive_vertex_connectivity(G)
        if kappa < 3 or min(G.degrees()) <= 3:
            kappas.append(kappa)
            assert vertex_connectivity(G) == kappa, G.edges
    assert set(kappas) == {0, 1, 2, 3}


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


def _brute_force_3_connected(G: Multigraph) -> bool:
    """n >= 4, and G minus any two vertices is connected."""
    if G.n < 4:
        return False
    for a in range(G.n):
        for b in range(a + 1, G.n):
            rest = {v: i for i, v in enumerate(w for w in range(G.n) if w not in (a, b))}
            H = Multigraph(len(rest), [(rest[u], rest[v]) for u, v in G.edges
                                       if u in rest and v in rest])
            if len(reference_components(H)) > 1:
                return False
    return True


def _planted_cut(rng: random.Random, joins: int) -> Multigraph:
    """Two random sides that meet only at two cut vertices, which are
    joined by `joins` parallel edges; vertex and edge ids shuffled."""
    edges, n = [], 2
    for _ in range(2):
        size = rng.randint(1, 5)
        side = list(range(n, n + size))
        n += size
        edges += [(side[i - 1], side[i]) for i in range(1, size)]
        if size > 2:
            edges.append((side[0], side[-1]))
        if size > 1:
            edges += [tuple(rng.sample(side, 2)) for _ in range(rng.randint(0, size))]
        for cut_vertex in (0, 1):
            edges += [(cut_vertex, rng.choice(side)) for _ in range(rng.randint(1, 3))]
    edges += [(0, 1)] * joins
    rename = rng.sample(range(n), n)
    rng.shuffle(edges)
    return Multigraph(n, [(rename[u], rename[v]) for u, v in edges])


def _assert_screen_matches_brute_force(G: Multigraph):
    assert is_k_connected(G, 3) == _brute_force_3_connected(G), G.edges
    if G.is_connected():
        # A vertex's edges form a cut, so their labels XOR to exactly 0; the
        # screen files one of each complementary pair of subsets on it.
        order, parent_edge, _ = _dfs(G, (0,), [-1] * G.n)
        label = _cut_labels(G, order, parent_edge)
        for v in range(G.n):
            xor = 0
            for eid in G.incident(v):
                xor ^= label[eid]
            assert xor == 0, v


def test_3_connectivity_matches_brute_force_on_random_regular_multigraphs():
    rng = random.Random(20)
    degrees = []
    for _ in range(160):
        r = rng.randint(3, 10)
        n = rng.randint(4, 20)
        n += n * r % 2
        G = random_regular_multigraph(n, r, rng.randrange(2**31), min_connectivity=0)
        degrees.append(r)
        _assert_screen_matches_brute_force(G)
    assert min(degrees) <= _SCREEN_MAX_DEGREE < max(degrees)


@pytest.mark.parametrize("joins", [0, 1, 2], ids=["not-adjacent", "adjacent", "parallel"])
def test_3_connectivity_matches_brute_force_on_planted_2_vertex_cuts(joins):
    rng = random.Random(joins)
    reached_the_screen = 0
    for _ in range(150):
        G = _planted_cut(rng, joins)
        assert not is_k_connected(G, 3)
        _assert_screen_matches_brute_force(G)
        reached_the_screen += is_k_connected(G, 2)
    assert reached_the_screen >= 50


def _cubic_2_edge_cut(rng: random.Random) -> tuple[Multigraph, tuple[int, int]]:
    """Two random cubic sides, each with its first edge x-y taken out,
    joined x to x and y to y: a cubic graph with a 2-edge cut.  Vertex and
    edge ids shuffled; returns the graph and the ids of the cut's edges."""
    edges, ends, n = [], [], 0
    for _ in range(2):
        k = rng.choice((4, 6, 8, 10))
        side = random_regular_multigraph(k, 3, rng.randrange(2**31), min_connectivity=2)
        (x, y), *rest = side.edges
        edges += [(n + u, n + v) for u, v in rest]
        ends.append((n + x, n + y))
        n += k
    (x, y), (p, q) = ends
    edges += [(x, p), (y, q)]
    rename = rng.sample(range(n), n)
    order = rng.sample(range(len(edges)), len(edges))
    G = Multigraph(n, [(rename[u], rename[v]) for u, v in (edges[i] for i in order)])
    return G, (order.index(len(edges) - 2), order.index(len(edges) - 1))


def test_3_connectivity_matches_brute_force_on_cubic_2_edge_cuts(monkeypatch):
    """The two edges of a 2-edge cut share a label, though no degree-3
    vertex files anything: the screen must test that value, and its answer
    must come from an exact G - v search."""
    exact = []

    def spy(G, removed=-1, _fn=multigraph._biconnected_tree):
        tree = _fn(G, removed)
        if removed >= 0:
            exact.append(tree is None)
        return tree

    monkeypatch.setattr(multigraph, "_biconnected_tree", spy)
    rng = random.Random(23)
    reached_the_screen = 0
    for _ in range(100):
        G, (e, f) = _cubic_2_edge_cut(rng)
        _assert_screen_matches_brute_force(G)
        if is_k_connected(G, 2):
            reached_the_screen += 1
            label = _cut_labels(G, *_dfs(G, (0,), [-1] * G.n)[:2])
            assert label[e] == label[f]
            exact.clear()
            assert not is_k_connected(G, 3)
            assert exact and exact[-1], G.edges  # the last G - v search failed
    assert reached_the_screen >= 50


@pytest.mark.parametrize("G", [petersen(), *(prism(k) for k in range(3, 9))],
                         ids=["petersen", *(f"prism{k}" for k in range(3, 9))])
def test_3_connected_cubic_graphs_need_no_pair_test(monkeypatch, G):
    """A cubic vertex files nothing, because its one-edge splits are read
    off the edge labels, so the screen ends after one _biconnected_tree
    search and makes no _may_face_component call."""
    calls = {"_may_face_component": 0, "_biconnected_tree": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(multigraph, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(multigraph, name, counted)
    assert is_k_connected(G, 3)
    assert calls == {"_may_face_component": 0, "_biconnected_tree": 1}
