"""Shared fixtures, hypothesis strategies for small instances, and
independent brute-force oracles.

The oracles here deliberately avoid the library's search engine so that
agreement between the two is meaningful: subset enumeration runs on numpy
bit matrices, matchings are enumerated by a plain recursive matcher, Kuhn's
bipartite matching keeps its recursive form, and connectivity is checked by
removing every vertex subset.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from cyclehit import CycleSet, GraphError, Multigraph


# ---------------------------------------------------------------- fixtures

def k4() -> Multigraph:
    return Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def c4() -> Multigraph:
    return Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def bowtie() -> Multigraph:
    return Multigraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def k33() -> Multigraph:
    return Multigraph(6, [(i, 3 + j) for i in range(3) for j in range(3)])


def doubled_triangle() -> Multigraph:
    tri = [(0, 1), (1, 2), (0, 2)]
    return Multigraph(3, tri + tri)


def circulant(n: int, steps: tuple[int, ...]) -> Multigraph:
    edges = []
    seen = set()
    for s in steps:
        for i in range(n):
            j = (i + s) % n
            pair = (min(i, j), max(i, j))
            if pair not in seen:
                seen.add(pair)
                edges.append(pair)
    return Multigraph(n, edges)


# ------------------------------------------------- naive subset oracle

def naive_factors(
    G: Multigraph,
    t: int,
    O: CycleSet | None,
    mode: str,
    forced_edge: int | None = None,
) -> list[tuple[int, ...]]:
    """Every t-factor meeting the cycle set in the given mode (and holding
    forced_edge), as sorted edge-id tuples in the search engine's order:
    lexicographic over edge ids with IN before OUT, so the first is the
    witness the engine must return.  Scans all 2^m edge subsets with numpy;
    only for m <= 16."""
    m = G.m
    assert m <= 16, "naive oracle is limited to m <= 16"
    subsets = np.arange(1 << m, dtype=np.uint32)
    # Edge e is bit m-1-e, so a larger subset number is earlier in that order.
    shifts = np.array([m - 1 - e for e in range(m)], dtype=np.uint32)
    bits = (subsets[:, None] >> shifts) & 1  # (2^m, m)
    inc = np.zeros((G.n, m), dtype=np.uint8)
    for e, (u, v) in enumerate(G.edges):
        inc[u, e] = 1
        inc[v, e] = 1
    degrees = bits @ inc.T
    ok = np.all(degrees == t, axis=1)
    if O is not None and mode != "none":
        for cyc in O.cycles:
            shared = bits[:, list(cyc)].sum(axis=1)
            ok &= shared >= 1
            if mode == "hit-and-cohit":
                ok &= shared < len(cyc)
            if mode == "hit-matching":
                for e, f in itertools.combinations(cyc, 2):
                    eu, ev = G.endpoints(e)
                    fu, fv = G.endpoints(f)
                    if eu in (fu, fv) or ev in (fu, fv):
                        ok &= ~((bits[:, e] == 1) & (bits[:, f] == 1))
    if forced_edge is not None:
        ok &= bits[:, forced_edge] == 1
    return [
        tuple(int(e) for e in np.flatnonzero(bits[s]))
        for s in np.flatnonzero(ok)[::-1]
    ]


def naive_subset_verdict(
    G: Multigraph, t: int, O: CycleSet | None, mode: str
) -> bool:
    """SAT/UNSAT for t-factors meeting a cycle set, by naive_factors."""
    return bool(naive_factors(G, t, O, mode))


# ------------------------------------------------- matching enumeration

def enumerate_perfect_matchings(G: Multigraph):
    """All perfect matchings as sorted edge-id tuples, by recursion on the
    lowest uncovered vertex."""
    results: list[tuple[int, ...]] = []
    covered = [False] * G.n

    def rec(chosen: list[int]):
        v = next((w for w in range(G.n) if not covered[w]), None)
        if v is None:
            results.append(tuple(sorted(chosen)))
            return
        covered[v] = True
        for e in G.incident(v):
            w = G.other_end(e, v)
            if covered[w]:
                continue
            covered[w] = True
            chosen.append(e)
            rec(chosen)
            chosen.pop()
            covered[w] = False
        covered[v] = False

    rec([])
    return results


def enumerate_internal_covering_matchings(tree: Multigraph):
    """All matchings of a tree that cover every internal (degree >= 2)
    vertex, as sorted edge-id tuples."""
    internal = [v for v in range(tree.n) if tree.degree(v) >= 2]
    results: list[tuple[int, ...]] = []
    covered = [False] * tree.n

    def rec(i: int, chosen: list[int]):
        while i < len(internal) and covered[internal[i]]:
            i += 1
        if i == len(internal):
            results.append(tuple(sorted(chosen)))
            return
        v = internal[i]
        for e in tree.incident(v):
            w = tree.other_end(e, v)
            if covered[w]:
                continue
            covered[v] = covered[w] = True
            chosen.append(e)
            rec(i + 1, chosen)
            chosen.pop()
            covered[v] = covered[w] = False

    rec(0, [])
    return results


# ------------------------------------------------- bipartite matching oracle

def recursive_bipartite_perfect_matching(n: int, out_edges):
    """factors._bipartite_perfect_matching in its recursive form (Kuhn's
    try_augment), with the same input and output; its depth grows with the
    longest augmenting path."""
    match_head = [-1] * n
    match_tail = [-1] * n
    eid_tail = {eid: v for v, lst in enumerate(out_edges) for eid, _ in lst}

    def try_augment(v: int, visited: set[int]) -> bool:
        for eid, head in out_edges[v]:
            if head in visited:
                continue
            visited.add(head)
            if match_head[head] == -1 or try_augment(eid_tail[match_head[head]], visited):
                match_head[head] = eid
                match_tail[v] = eid
                return True
        return False

    for v in range(n):
        if out_edges[v] and match_tail[v] == -1:
            if not try_augment(v, set()):
                return None
    return match_head


# ------------------------------------------------- connectivity oracle

def naive_vertex_connectivity(G: Multigraph) -> int:
    """Exact connectivity by removing every vertex subset; n <= 10 only."""
    if G.n <= 1 or not G.is_connected():
        return 0
    for size in range(G.n - 1):
        for cut in itertools.combinations(range(G.n), size):
            remaining = [v for v in range(G.n) if v not in cut]
            if len(remaining) <= 1:
                continue
            vmap = {v: i for i, v in enumerate(remaining)}
            edges = [
                (vmap[u], vmap[v])
                for u, v in G.edges
                if u in vmap and v in vmap
            ]
            H = Multigraph(len(remaining), edges)
            if not H.is_connected():
                return size
    return G.n - 1


def reference_components(G: Multigraph, excluded_edges=()) -> list[set[int]]:
    """Multigraph.components in its last form: the connected components
    (vertex sets) of G without the excluded edges, by a stack traversal
    from each unseen vertex in turn."""
    excluded = set(excluded_edges)
    seen = [False] * G.n
    comps = []
    for s in range(G.n):
        if seen[s]:
            continue
        comp = {s}
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for eid in G.incident(v):
                if eid in excluded:
                    continue
                w = G.other_end(eid, v)
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def prism(k: int) -> Multigraph:
    """C_k x K2: two k-cycles joined by a perfect matching (3-connected and
    cubic for k >= 3)."""
    edges = []
    for i in range(k):
        edges += [(i, (i + 1) % k), (k + i, k + (i + 1) % k), (i, k + i)]
    return Multigraph(2 * k, edges)


# ------------------------------------------------- cycle packing oracle

def reference_pack_cycles(
    G: Multigraph, parity: str | None = "odd", max_len: int = 9
) -> list[tuple[int, ...]]:
    """instances.pack_cycles in its first form: a recursive DFS that restarts
    from vertex 0 for every cycle, with no pruning; returns the cycles as
    edge-id tuples."""
    parity_bit = {None: None, "odd": 1, "even": 0}[parity]
    used = bytearray(G.m)

    def dfs(start, v, path_edges, on_path):
        if len(path_edges) >= max_len:
            return None
        for e in G.incident(v):
            if used[e] or e in path_edges:
                continue
            w = G.other_end(e, v)
            if w == start and len(path_edges) >= 2:
                length = len(path_edges) + 1
                if parity_bit is None or length % 2 == parity_bit:
                    return tuple(path_edges + [e])
                continue
            if w in on_path or w == start:
                continue
            on_path.add(w)
            found = dfs(start, w, path_edges + [e], on_path)
            on_path.remove(w)
            if found is not None:
                return found
        return None

    def find_cycle():
        for start in range(G.n):
            found = dfs(start, start, [], set())
            if found is not None:
                return found
        return None

    cycles = []
    while (cyc := find_cycle()) is not None:
        for e in cyc:
            used[e] = 1
        cycles.append(cyc)
    return cycles


# ------------------------------------------------- orientation reference

def reference_cycle_is_oriented(D, cycle: tuple[int, ...]) -> bool:
    """orientation._cycle_is_oriented in its first form: a cycle is oriented
    iff every one of its vertices is the head of exactly one of its edges,
    counted per vertex."""
    heads_at: dict[int, int] = {}
    for e in cycle:
        u, v = D.host.endpoints(e)
        heads_at.setdefault(u, 0)
        heads_at.setdefault(v, 0)
        heads_at[D.head[e]] += 1
    return all(c == 1 for c in heads_at.values())


# ------------------------------------------------- instance strategies

def shuffled(draw, n: int, edges: list, cycles: list) -> tuple[Multigraph, CycleSet]:
    """G on n vertices with its edge ids drawn in a random order, and the
    cycles renamed to match."""
    order = draw(st.permutations(range(len(edges))))
    new_id = {old: new for new, old in enumerate(order)}
    G = Multigraph(n, [edges[old] for old in order])
    return G, CycleSet(G, [tuple(new_id[e] for e in cyc) for cyc in cycles])


@st.composite
def factor_instances(draw, max_m: int = 12):
    """A multigraph with prescribed cycles: up to two cycles of length 2 to
    4 laid on distinct vertices, a pendant pair hung on one vertex by one or
    two parallel edges (a bridge of the simple graph underneath), then
    random edges with up to three parallel copies, truncated to max_m
    edges, and edge ids shuffled."""
    n = draw(st.integers(2, 6))
    edges, cycles = [], []
    for k in draw(st.lists(st.integers(2, min(n, 4)), max_size=2)):
        vs = draw(st.permutations(range(n)))[:k]
        cycles.append(tuple(range(len(edges), len(edges) + k)))
        edges += [(vs[i], vs[(i + 1) % k]) for i in range(k)]
    if draw(st.booleans()):
        host = draw(st.integers(0, n - 1))
        edges += [(host, n)] * draw(st.integers(1, 2)) + [(n, n + 1)] * draw(st.integers(1, 3))
        n += 2
    for u, step, copies in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.integers(1, 3)), max_size=6,
    )):
        edges += [(u, (u + step) % n)] * copies
    return shuffled(draw, n, edges[:max_m], cycles)


# ------------------------------------------------- LP references

def reference_phase1(
    cols: list[tuple[int, int, int]], upper: list[float], b: list[int], n: int,
    max_pivots: int,
) -> tuple[list[float], list[float]]:
    """relaxation._phase1 in its first form, which prices every column and
    runs the ratio test over every row at every pivot; relaxation._phase1
    must follow its pivot path to the same floats.  upper caps cols, then
    the surplus of each cycle row (rows n and up); inf leaves a surplus
    uncapped."""
    inf, eps = float("inf"), 1e-9
    R, J = len(b), len(cols)
    S = R - n
    rows = [(u, v, r if r >= 0 else R) for u, v, r in cols]
    rows += [(n + k, R, R) for k in range(S)] + [(i, R, R) for i in range(R)]
    coef = [1.0] * J + [-1.0] * S + [1.0] * R
    cost = [0.0] * (J + S) + [1.0] * R
    cap = [float(c) for c in upper] + [inf] * R
    inv = [[1.0 if k == i else 0.0 for k in range(R + 1)] for i in range(R)]
    beta = [float(v) for v in b]
    basis = [J + S + i for i in range(R)]
    at_upper = [False] * len(cost)
    y = [1.0] * R + [0.0]
    for _ in range(max_pivots):
        d = [c - s * (y[u] + y[v] + y[w]) for c, s, (u, v, w) in zip(cost, coef, rows)]
        gain = [dk if up else -dk for dk, up in zip(d, at_upper)]
        best = max(gain)
        if best <= eps:
            break
        j = gain.index(best)
        (u, v, w), s = rows[j], coef[j]
        alpha = [s * (row[u] + row[v] + row[w]) for row in inv]
        sign = -1.0 if at_upper[j] else 1.0
        theta, r, leave_upper = cap[j], -1, False
        for i in range(R):
            a = sign * alpha[i]
            if a > eps:
                limit, to_upper = beta[i] / a, False
            elif a < -eps and cap[basis[i]] < inf:
                limit, to_upper = (cap[basis[i]] - beta[i]) / -a, True
            else:
                continue
            if limit < theta:
                theta, r, leave_upper = max(limit, 0.0), i, to_upper
        if theta == inf:
            break
        step = sign * theta
        for i, a in enumerate(alpha):
            if a:
                beta[i] -= step * a
        if r < 0:
            at_upper[j] = not at_upper[j]
            continue
        at_upper[basis[r]] = leave_upper
        beta[r] = (cap[j] if at_upper[j] else 0.0) + step
        at_upper[j] = False
        basis[r] = j
        p = alpha[r]
        prow = inv[r] = [a / p for a in inv[r]]
        nz = [(k, c) for k, c in enumerate(prow) if c]
        for i, f in enumerate(alpha):
            if f and i != r:
                row = inv[i]
                for k, c in nz:
                    row[k] -= f * c
        for k, c in nz:
            y[k] += d[j] * c
    x = [cap[j] if at_upper[j] else 0.0 for j in range(J)]
    for i, j in enumerate(basis):
        if j < J:
            x[j] = beta[i]
    return y[:R], x


def reference_certifies(
    cols: list[tuple[int, int, int]], upper: list[float], b: list[int], y: list[float], n: int
) -> bool:
    """relaxation._certifies in its first form, summing Fractions.  The dual
    of a cycle row with an uncapped surplus (inf in upper, after the caps
    of cols) is clamped at 0; a surplus capped at c adds c max(-y_C, 0)."""
    from fractions import Fraction

    ys = [Fraction(v).limit_denominator(64) for v in y]
    surplus = upper[len(cols):]
    ys[n:] = [max(v, Fraction(0)) if c == float("inf") else v for v, c in zip(ys[n:], surplus)]
    most = sum((c * -v for v, c in zip(ys[n:], surplus) if v < 0), Fraction(0))
    for (u, v, r), cap in zip(cols, upper):
        a = ys[u] + ys[v] + (ys[r] if r >= 0 else 0)
        if a > 0:
            most += cap * a
    return most < sum(bi * yi for bi, yi in zip(b, ys))


# ------------------------------------------------- vertex splitting reference

def reference_split_factor(G: Multigraph, D, O: CycleSet, t: int):
    """expansion.split_factor in its first form: build the split graph as a
    Multigraph (expansion.split_expansion), match it by alternating along
    each of its cycles (solver.bipartite_alternating_matching), and project
    the matching back to G."""
    from cyclehit import Factor, cycle_vertices
    from cyclehit.orientation import _cycle_is_oriented

    def split_expansion(G, D, O) -> Multigraph:
        if D.host != G or O.host != G:
            raise GraphError("orientation or cycle set does not match the graph")
        indeg = D.indegrees()
        for v in range(G.n):
            if G.degree(v) % 2 == 1:
                raise GraphError(f"odd degree at vertex {v}")
            if indeg[v] % 2 == 1:
                raise GraphError(f"odd indegree at vertex {v}")
        at_vertex: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in range(G.n)]
        for ci, cyc in enumerate(O.cycles):
            walk = cycle_vertices(G, cyc)
            k = len(cyc)
            for i, v in enumerate(walk):
                at_vertex[v].append((ci, (cyc[i - 1], cyc[i % k])))

        endpoint_vertex: dict[tuple[int, int], int] = {}
        next_id = 0
        for v in range(G.n):
            ins = [e for e in G.incident(v) if D.head[e] == v]
            outs = [e for e in G.incident(v) if D.head[e] != v]
            forced_in: list[tuple[int, int]] = []
            forced_out: list[tuple[int, int]] = []
            for _, (e, f) in sorted(at_vertex[v]):
                e_in = D.head[e] == v
                f_in = D.head[f] == v
                if e_in and f_in:
                    forced_in.append((e, f))
                elif not e_in and not f_in:
                    forced_out.append((e, f))
                # mixed direction: no adjacency requirement at this vertex
            taken = {e for pair in forced_in + forced_out for e in pair}
            loose_in = [e for e in ins if e not in taken]
            loose_out = [e for e in outs if e not in taken]
            pairs = forced_in + list(zip(loose_in[::2], loose_in[1::2]))
            pairs += forced_out + list(zip(loose_out[::2], loose_out[1::2]))
            for e, f in pairs:
                endpoint_vertex[(e, v)] = next_id
                endpoint_vertex[(f, v)] = next_id
                next_id += 1

        for cyc in O.cycles:
            if _cycle_is_oriented(D, cyc):
                raise GraphError("a prescribed cycle is an oriented cycle")

        new_edges = [
            (endpoint_vertex[(e, u)], endpoint_vertex[(e, v)])
            for e, (u, v) in enumerate(G.edges)
        ]
        expanded = Multigraph(next_id, new_edges)
        if expanded.is_regular() != 2:
            raise AssertionError("split expansion produced a non-2-regular graph")
        return expanded

    def bipartite_alternating_matching(G2: Multigraph) -> tuple[int, ...]:
        if G2.is_regular() != 2:
            raise GraphError("graph is not 2-regular")
        visited = bytearray(G2.m)
        matching: list[int] = []
        for start in range(G2.m):
            if visited[start]:
                continue
            walk = [start]
            visited[start] = 1
            cur = G2.edges[start][1]
            last = start
            while True:
                nxt = next(f for f in G2.incident(cur) if f != last)
                if nxt == start:
                    break
                walk.append(nxt)
                visited[nxt] = 1
                cur = G2.other_end(nxt, cur)
                last = nxt
            if len(walk) % 2 == 1:
                raise GraphError(f"odd cycle through edge {start}: graph is not bipartite")
            matching.extend(walk[0::2])
        return tuple(sorted(matching))

    M = set(bipartite_alternating_matching(split_expansion(G, D, O)))
    return Factor(G, t, tuple(e for e in range(G.m) if e in M))


# ------------------------------------------------- expansion references

def reference_cycle_vertices(host: Multigraph, cycle) -> tuple[int, ...]:
    """cycles.cycle_vertices in its first form, which intersects the
    endpoint sets of consecutive edges; cycle_vertices must return the same
    walk and raise the same GraphError messages."""
    k = len(cycle)
    if k < 2:
        raise GraphError("a cycle needs at least 2 edges")
    if len(set(cycle)) != k:
        raise GraphError(f"repeated edge id in cycle {list(cycle)}")
    ends = [set(host.endpoints(e)) for e in cycle]
    if k == 2:
        if ends[0] != ends[1]:
            raise GraphError(f"edges {list(cycle)} are not parallel")
        u, v = host.endpoints(cycle[0])
        return (min(u, v), max(u, v))
    walk = []
    for i in range(k):
        common = ends[i - 1] & ends[i]
        if len(common) != 1:
            raise GraphError(
                f"edges {cycle[i - 1]} and {cycle[i]} do not chain into a cycle"
            )
        walk.append(common.pop())
    if len(set(walk)) != k:
        raise GraphError(f"cycle {list(cycle)} repeats a vertex")
    return tuple(walk)


def reference_cubic_expansion(G: Multigraph, O: CycleSet, tree):
    """expansion.cubic_expansion in its first form: collect each vertex's
    (cycle index, edge pair) entries, sort them, and fill a dict keyed by
    (edge, vertex) that is probed once per edge end."""
    from cyclehit import ExpansionMap

    required = len(tree.leaves)
    if G.is_regular() != required:
        raise GraphError(f"a {required}-leaf gadget tree needs a {required}-regular graph")
    if O.host != G:
        raise GraphError("cycle set does not belong to this graph")

    internal = tree.internal_vertices()
    local_rank = {v: i for i, v in enumerate(internal)}
    group_vertex = [
        local_rank[tree.tree.other_end(tree.tree.incident(g[0])[0], g[0])]
        for g in tree.sibling_groups
    ]
    group_capacity = [len(g) for g in tree.sibling_groups]
    interior_edges = [
        (local_rank[u], local_rank[v])
        for u, v in tree.tree.edges
        if u in local_rank and v in local_rank
    ]
    block = len(internal)

    pair_groups = [g for g, c in enumerate(group_capacity) for _ in range(c // 2)]
    free = list(group_capacity)
    single_slots = [[g for g, c in enumerate(free) for _ in range(c)]]
    for g in pair_groups:
        free[g] -= 2
        single_slots.append([g for g, c in enumerate(free) for _ in range(c)])
    at_vertex: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in range(G.n)]
    for ci, cyc in enumerate(O.cycles):
        walk = reference_cycle_vertices(G, cyc)
        k = len(cyc)
        for i, v in enumerate(walk):
            at_vertex[v].append((ci, (cyc[i - 1], cyc[i % k])))
    endpoint_vertex: dict[tuple[int, int], int] = {}
    for v in range(G.n):
        offset = v * block
        pairs = [pair for _, pair in sorted(at_vertex[v])]
        if len(pairs) > len(pair_groups):
            raise AssertionError(
                f"vertex {v} carries {len(pairs)} cycle pairs but the gadget "
                f"tree offers only groups of sizes {group_capacity}"
            )
        for (e, f), g in zip(pairs, pair_groups):
            endpoint_vertex[(e, v)] = endpoint_vertex[(f, v)] = offset + group_vertex[g]
        singles = [e for e in G.incident(v) if (e, v) not in endpoint_vertex]
        for e, g in zip(singles, single_slots[len(pairs)], strict=True):
            endpoint_vertex[(e, v)] = offset + group_vertex[g]

    new_edges = [
        (endpoint_vertex[(e, u)], endpoint_vertex[(e, v)])
        for e, (u, v) in enumerate(G.edges)
    ]
    for v in range(G.n):
        offset = v * block
        new_edges.extend((offset + a, offset + b) for a, b in interior_edges)
    expanded = Multigraph(G.n * block, new_edges)
    if expanded.is_regular() != 3:
        raise AssertionError("cubic expansion produced a non-cubic graph")
    return ExpansionMap(expanded), CycleSet(expanded, O.cycles)
