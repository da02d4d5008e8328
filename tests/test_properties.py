"""Property tests of the structural checks and the exact search against
brute-force oracles, on random small multigraphs: disconnected ones,
parallel edges, bridges, prescribed 2-cycles and n <= 2 included.  The
oracle's LP stage, with the cycle rows of every mode, is checked against
the brute-force verdicts too."""

from unittest import mock

from hypothesis import assume, example, given, settings, strategies as st

from cyclehit import (
    BUDGET_EXCEEDED,
    MODES,
    SAT,
    UNSAT,
    CycleSet,
    GraphError,
    Multigraph,
    SearchBudget,
    is_k_connected,
    pack_cycles,
    t_factor_oracle,
)
from cyclehit import relaxation, solver
from cyclehit.factors import _bipartite_perfect_matching
from cyclehit.multigraph import bridge_sides
from cyclehit.solver import _IN, _OUT, _UNDEC, _Clock, _DegreeSearch
from conftest import (
    factor_instances, naive_factors, naive_vertex_connectivity,
    recursive_bipartite_perfect_matching, reference_components, shuffled,
)

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
    kappa = naive_vertex_connectivity(G)
    for k in range(5):
        assert is_k_connected(G, k) == (kappa >= k), (k, kappa)


@PROPERTY
@given(multigraphs())
@example(Multigraph(0, []))
@example(Multigraph(1, []))
@example(Multigraph(3, [(0, 1), (0, 1)]))
def test_is_connected_matches_reference_components(G):
    """One depth-first search from vertex 0 reaches every vertex iff the
    graph has at most one component; n = 0 and 1 count as connected."""
    assert G.is_connected() == (len(reference_components(G)) <= 1)


@PROPERTY
@given(multigraphs())
def test_bridge_sides_match_edge_class_removal(G):
    """The search's parity sets rest on these: a pair of vertices is
    reported iff removing all of its parallel edges splits a component, with
    the size of the side cut off."""
    base = len(reference_components(G))
    classes: dict[tuple[int, int], list[int]] = {}
    for e, (u, v) in enumerate(G.edges):
        classes.setdefault((min(u, v), max(u, v)), []).append(e)
    want = {}
    for pair, ids in classes.items():
        comps = reference_components(G, excluded_edges=ids)
        if len(comps) > base:
            want[pair] = {len(c) for c in comps if pair[0] in c or pair[1] in c}
    got = {(min(p, v), max(p, v)): size for p, v, size in bridge_sides(G)}
    assert got.keys() == want.keys()
    for pair, size in got.items():
        assert size in want[pair]


@st.composite
def cubic_instances(draw):
    """A loopless cubic multigraph on up to 8 vertices from the pairing
    model, with a drawn subset of its greedy cycle packing and of the
    2-cycles on its remaining parallel pairs prescribed."""
    n = draw(st.sampled_from([2, 4, 6, 8]))
    points = list(draw(st.permutations([v for v in range(n) for _ in range(3)])))
    edges = []
    while points:
        u = points.pop()
        j = next((i for i, w in enumerate(points) if w != u), None)
        assume(j is not None)
        edges.append((u, points.pop(j)))
    G = Multigraph(n, edges)
    candidates = list(pack_cycles(G, parity=None, max_len=n).cycles)
    used = {e for cyc in candidates for e in cyc}
    pairs: dict[tuple[int, int], list[int]] = {}
    for e, (u, v) in enumerate(edges):
        if e not in used:
            pairs.setdefault((min(u, v), max(u, v)), []).append(e)
    candidates += [tuple(ids[:2]) for ids in pairs.values() if len(ids) >= 2]
    cycles = [cyc for cyc in candidates if draw(st.booleans())]
    return shuffled(draw, n, edges, cycles)


def _verdict(v):
    return v.status, (v.witness.edge_ids if v.witness is not None else None)


def _lex_first(factors):
    return (SAT, factors[0]) if factors else (UNSAT, None)


@PROPERTY
@given(factor_instances())
def test_search_matches_lex_first_oracle(instance):
    """Status and witness of the oracle, with no forced edge and through
    each edge in turn, are the first of the brute-force solutions in search
    order, in every mode and t <= 3."""
    G, O = instance
    for t in range(4):
        for mode in MODES:
            want = naive_factors(G, t, O, mode)
            assert _verdict(t_factor_oracle(G, t, O, mode)) == _lex_first(want), (t, mode)
            for e in range(G.m):
                got = t_factor_oracle(G, t, O, mode, forced_edge=e)
                assert _verdict(got) == _lex_first([f for f in want if e in f]), (t, mode, e)


@PROPERTY
@given(factor_instances(), st.data(), st.sampled_from([0, 1, 2, 3, 5, None]))
def test_lp_stage_is_sound(instance, data, pivots):
    """With the LP stage at the first node and its simplex stopped after a
    drawn number of pivots (None: as many as it takes), the oracle's verdict
    in every mode, for t <= 3, with and without a forced edge, is the
    brute-force verdict, and every witness is a brute-force solution.
    Only the exact check proves UNSAT, whatever duals the simplex stopped
    at, and an LP point is a witness only once it checks out."""
    G, O = instance
    edges = (None,) + ((data.draw(st.integers(0, G.m - 1)),) if G.m else ())
    cap = relaxation._LP_MAX_PIVOTS if pivots is None else pivots
    with mock.patch.object(solver, "_LP_NODE", 1), \
            mock.patch.object(relaxation, "_LP_MAX_PIVOTS", cap):
        for t in range(4):
            for mode in MODES:
                factors = naive_factors(G, t, O, mode)
                for edge in edges:
                    want = [f for f in factors if edge is None or edge in f]
                    v = t_factor_oracle(G, t, O, mode, forced_edge=edge)
                    assert v.status == (SAT if want else UNSAT), (t, mode, edge)
                    assert v.witness is None or v.witness.edge_ids in want, (t, mode, edge)


def _rescan(search: _DegreeSearch, start: list[int]) -> list[tuple[str, int]]:
    """Every rule that a naive rescan of search's state finds forcing an
    undecided edge, or already broken, as (rule, index of its vertex, cycle,
    edge or parity set).  The hit, cohit and matching rules are read from
    search's cycles and mode, not from its sets, so that the sets it built
    are checked too.  start holds each set's counter with no edge decided.
    Vertices with no decided edge are skipped: the search reaches a vertex
    through its first decision there."""
    G, t, state, mode = search.G, search.t, search.state, search.mode
    found = []
    for w in range(G.n):
        ids = G.incident(w)
        d_in = sum(state[f] == _IN for f in ids)
        d_und = sum(state[f] == _UNDEC for f in ids)
        if d_und == len(ids):
            continue
        if d_in > t or d_in + d_und < t or (d_und and t in (d_in, d_in + d_und)):
            found.append(("vertex", w))
    for ci, cyc in enumerate(search.cycles):
        und = sum(state[e] == _UNDEC for e in cyc)
        if und <= 1 and _IN not in (state[e] for e in cyc):
            found.append(("hit", ci))
        if mode == "hit-and-cohit" and und <= 1 and _OUT not in (state[e] for e in cyc):
            found.append(("cohit", ci))
        if mode == "hit-matching":
            k = len(cyc)
            found += [("matching", cyc[i]) for i in range(k) if state[cyc[i]] == _IN
                      and {state[cyc[i - 1]], state[cyc[(i + 1) % k]]} != {_OUT}]
    for e in range(G.m):
        sib = search.next_sib[e] if state[e] == _OUT else search.prev_sib[e]
        if state[e] != _UNDEC and sib >= 0 and state[sib] != state[e]:
            found.append(("sibling", e))
    for p, cut in enumerate(search.set_cut):
        if not search.set_parity[p]:
            continue
        und = sum(state[f] == _UNDEC for f in cut)
        odd = (start[p] + sum(state[f] == _IN for f in cut)) % 2
        if und == 1 or (und == 0 and odd):
            found.append(("parity", p))
    return found


def _recount(search: _DegreeSearch, start: list[int]) -> tuple:
    """search's counters, recounted from its edge states."""
    def count(ids, val):
        return sum(search.state[f] == val for f in ids)

    incident = [search.G.incident(w) for w in range(search.G.n)]
    return (
        [count(ids, _IN) for ids in incident],
        [count(ids, _UNDEC) for ids in incident],
        [count(cut, _UNDEC) for cut in search.set_cut],
        [got + count(cut, val) for got, cut, val in zip(start, search.set_cut, search.set_val)],
    )


@PROPERTY
@given(factor_instances(), st.integers(0, 3), st.sampled_from(MODES), st.data())
def test_propagation_reaches_its_fixpoint(instance, t, mode, data):
    """After every assign that succeeds, in a drawn sequence of decisions
    with conflicts undone, a naive rescan of every vertex, cycle, sibling
    and parity rule forces no undecided edge and finds none broken, and the
    counters equal a recount.  t = 0 and vertices of degree t are common
    here, and only the first decision at such a vertex can scan it."""
    G, O = instance
    search = _DegreeSearch(G, t, tuple(O.cycles), mode, _Clock(None))
    search._build_pruning(())
    start = list(search.set_got)
    for e, val in search.roots:
        if not search.assign(e, val):
            return
    for _ in range(G.m):
        undecided = [e for e in range(G.m) if search.state[e] == _UNDEC]
        if not undecided:
            break
        e = data.draw(st.sampled_from(undecided))
        mark = len(search.trail)
        if not search.assign(e, data.draw(st.sampled_from((_IN, _OUT)))):
            search.undo_to(mark)
            continue
        assert _rescan(search, start) == [], (t, mode)
        assert _recount(search, start) == (
            list(search.deg_in), search.deg_und, search.set_und, search.set_got,
        ), (t, mode)


@PROPERTY
@given(factor_instances())
def test_pruning_never_costs_nodes(instance):
    """The oracle's pruned search branches at most as often as the same
    search with no pruning rule and no LP stage (a node number is
    never 0), so a node budget the unpruned search fits in never turns
    into BUDGET_EXCEEDED."""
    G, O = instance
    for t in range(4):
        for mode in MODES:
            clock = _Clock(None)
            with mock.patch.object(_DegreeSearch, "_build_pruning", lambda self, forced: None), \
                    mock.patch.object(solver, "_LP_NODE", 0):
                _DegreeSearch(G, t, tuple(O.cycles), mode, clock).search()
            budget = SearchBudget(max_nodes=max(clock.nodes, 1))
            v = t_factor_oracle(G, t, O, mode, budget=budget)
            assert v.status != BUDGET_EXCEEDED, (t, mode)
            assert v.nodes_explored <= clock.nodes, (t, mode)


@PROPERTY
@given(cubic_instances(), st.data())
def test_constrained_matching_matches_lex_first_oracle(instance, data):
    G, O = instance
    forced = data.draw(st.integers(0, G.m - 1))
    for edge in (None, forced):
        want = naive_factors(G, 1, O, "hit", forced_edge=edge)
        got = t_factor_oracle(G, 1, O, "hit", forced_edge=edge)
        assert _verdict(got) == _lex_first(want), edge


def test_forced_parallel_edge_keeps_its_witness():
    """Edges 6 and 7 are parallel (1-2).  Forcing the later copy must take it
    out of its class: read as "the earlier copy comes first", the forced
    edge would pull edge 6 in too and the search would answer UNSAT."""
    G = Multigraph(6, [(5, 0), (3, 5), (0, 4), (5, 4), (3, 1), (2, 4), (2, 1), (1, 2), (3, 0)])
    assert G.is_regular() == 3
    v = t_factor_oracle(G, 1, None, "none", forced_edge=7)
    assert _verdict(v) == (SAT, (1, 2, 7))
    assert _lex_first(naive_factors(G, 1, None, "none", forced_edge=7)) == (SAT, (1, 2, 7))


@PROPERTY
@given(st.integers(1, 7), st.data())
def test_bipartite_matching_matches_recursive_oracle(n, data):
    """The explicit-stack Kuhn search gives the recursive form's matching,
    or its None, on random tail->head edge multisets."""
    out_edges = [[] for _ in range(n)]
    arcs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
    for eid, (tail, head) in enumerate(arcs):
        out_edges[tail].append((eid, head))
    assert _bipartite_perfect_matching(n, out_edges) == \
        recursive_bipartite_perfect_matching(n, out_edges)


def test_cohit_search_tells_apart_residuals_that_differ_in_an_out_edge():
    """Two residual problems that differ only in whether cycle (4, 9, 5)
    already has an OUT edge: the first one, which still needs one, fails,
    and the search must still find the solution in the second one, as a
    search that forgot the cohit flags between the two would not."""
    G = Multigraph(4, [(3, 1), (2, 3), (1, 2), (3, 2), (1, 2), (3, 1), (0, 1), (3, 0), (0, 2),
                       (3, 2), (1, 0)])
    O = CycleSet(G, [(6, 0, 1, 8), (4, 9, 5)])
    want = (SAT, (0, 2, 3, 6, 7, 8, 9, 10))
    assert _lex_first(naive_factors(G, 4, O, "hit-and-cohit")) == want
    assert _verdict(t_factor_oracle(G, 4, O, "hit-and-cohit")) == want
