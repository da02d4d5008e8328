"""Shared fixtures and independent brute-force oracles.

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
