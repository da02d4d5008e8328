"""Seeded random instances: pairing-model regular multigraphs and greedy
packings of edge-disjoint cycles on them.  `cyclehit gen --family random`,
the benchmark's set-up and the property tests build their random inputs
here."""

from __future__ import annotations

import random
from typing import Optional

from .cycles import CycleSet
from .multigraph import GraphError, Multigraph, is_k_connected

__all__ = ["random_regular_multigraph", "pack_cycles"]

# Pairing-model draws random_regular_multigraph makes before it gives up.
_MAX_TRIES = 10_000


def random_regular_multigraph(
    n: int,
    r: int,
    seed: int,
    min_connectivity: int = 2,
) -> Multigraph:
    """Pairing-model r-regular multigraph on n vertices, rejection-sampled
    until it is loop-free and meets the connectivity requirement."""
    for name, value in (("n", n), ("r", r)):
        if value < 0:
            raise GraphError(f"{name} must be non-negative, got {value}")
    if n * r % 2 == 1:
        raise GraphError("n*r must be even")
    if min_connectivity > 0 and min(r, n - 1) < min_connectivity:
        raise GraphError(
            f"no {r}-regular multigraph on {n} vertices is {min_connectivity}-connected:"
            f" vertex connectivity is at most min(r, n - 1) = {min(r, n - 1)}"
        )
    rng = random.Random(seed)
    for _ in range(_MAX_TRIES):
        stubs = [v for v in range(n) for _ in range(r)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in pairs):
            continue
        G = Multigraph(n, pairs)
        if is_k_connected(G, min_connectivity):
            return G
    raise GraphError(f"no valid instance found in {_MAX_TRIES} tries")


def _walk_lengths(
    adj: list[list[tuple[int, int]]],
    used: bytearray,
    start: int,
    horizon: int,
    even: list[int],
    odd: list[int],
) -> list[int]:
    """BFS from start over (vertex, walk parity) states, through unused
    edges and vertices >= start, for at most horizon levels: even[v] and
    odd[v] become the lengths of the shortest even and odd walks between
    start and v, where these are at most horizon.  Every other entry must
    be horizon + 1 and stays so.  Returns the vertices reached."""
    even[start] = 0
    reached = [start]
    frontier = reached
    level = 0
    while frontier and level < horizon:
        level += 1
        d = odd if level & 1 else even
        nxt = []
        for u in frontier:
            for e, w in adj[u]:
                if not used[e] and w >= start and d[w] > level:
                    d[w] = level
                    nxt.append(w)
        reached += nxt
        frontier = nxt
    return reached


def _find_cycle(
    adj: list[list[tuple[int, int]]],
    used: bytearray,
    start: int,
    max_len: int,
    parity: Optional[int],
    bound: list[list[int]],
    on_path: bytearray,
) -> Optional[tuple[int, ...]]:
    """First simple cycle of length 3..max_len (of the given length parity,
    if any) through start over unused edges, or None: the first that a DFS
    from start meets when it tries each vertex's (edge, neighbour) pairs of
    adj in order.  Vertices below start are blocked.  A step that makes the
    path j edges long, ending at w, is taken only if j + bound[j][w] <=
    max_len, where bound[j][w] is a lower bound on the length of a walk
    from w back to start that gives the cycle its parity.  on_path is all
    zero on entry and on return."""
    path: list[int] = []
    verts = [start]
    its = [iter(adj[start])]
    while its:
        j = len(path) + 1
        d, slack = bound[j], max_len - j
        closes = j >= 3 and (parity is None or j & 1 == parity)
        for e, w in its[-1]:
            if used[e]:
                continue
            if w == start:
                if closes:
                    for v in verts:
                        on_path[v] = 0
                    return (*path, e)
            elif w > start and not on_path[w] and d[w] <= slack:
                on_path[w] = 1
                path.append(e)
                verts.append(w)
                its.append(iter(adj[w]))
                break
        else:
            its.pop()
            on_path[verts.pop()] = 0
            if path:
                path.pop()
    return None


def pack_cycles(
    G: Multigraph, parity: Optional[str] = "odd", max_len: int = 9
) -> CycleSet:
    """Greedy packing of pairwise edge-disjoint simple cycles of length >= 3.

    parity: 'odd', 'even', or None for any length.  Starting from each
    vertex in turn, cycles through it are extracted in deterministic DFS
    order until none remain.

    The result is that of a plain DFS restarted from vertex 0 for every
    cycle; only sub-trees without an admissible cycle are skipped.  The
    used edges only grow, so a start vertex that has no admissible cycle
    left never gets one later: the search resumes from the last start and
    blocks every earlier one.  Each start's DFS is pruned by a distance
    bound from a BFS over (vertex, walk parity) states; the BFS stops at a
    horizon of (max_len + 1) // 2 levels, and a state it does not reach
    counts as horizon + 1.  Every horizon gives the same cycles.  Nothing
    recurses, so max_len may exceed the recursion limit.
    """
    parity_bit = {None: None, "odd": 1, "even": 0}[parity]
    n = G.n
    max_len = min(max_len, n)
    horizon = (max_len + 1) // 2
    far = horizon + 1
    even, odd, either = [far] * n, [far] * n, [far] * n
    if parity_bit is None:
        bound = [either] * (max_len + 1)
    else:
        # A path of j edges needs a walk back of parity (parity - j).
        bound = [odd if (parity_bit - j) & 1 else even for j in range(max_len + 1)]
    adj = [[(e, G.other_end(e, v)) for e in G.incident(v)] for v in range(n)]
    on_path = bytearray(n)
    used = bytearray(G.m)
    cycles = []
    start = 0
    while max_len >= 3 and start < n:
        cyc = None
        # A cycle through start leaves it by two unused edges to later vertices.
        if sum(not used[e] and w > start for e, w in adj[start]) >= 2:
            reached = _walk_lengths(adj, used, start, horizon, even, odd)
            if parity_bit is None:
                for v in reached:
                    either[v] = min(even[v], odd[v])
            cyc = _find_cycle(adj, used, start, max_len, parity_bit, bound, on_path)
            for v in reached:
                even[v] = odd[v] = either[v] = far
        if cyc is None:
            start += 1
        else:
            for e in cyc:
                used[e] = 1
            cycles.append(cyc)
    return CycleSet(G, cycles)
