"""Seeded random instances and greedy cycle packings for property tests."""

from __future__ import annotations

import random
from typing import Optional

from .cycles import CycleSet
from .multigraph import GraphError, Multigraph, is_k_connected

__all__ = ["random_regular_multigraph", "pack_cycles"]


def random_regular_multigraph(
    n: int,
    r: int,
    seed: int,
    min_connectivity: int = 2,
    max_tries: int = 10_000,
) -> Multigraph:
    """Pairing-model r-regular multigraph on n vertices, rejection-sampled
    until it is loop-free and meets the connectivity requirement."""
    if n * r % 2 == 1:
        raise GraphError("n*r must be even")
    rng = random.Random(seed)
    for _ in range(max_tries):
        stubs = [v for v in range(n) for _ in range(r)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in pairs):
            continue
        G = Multigraph(n, pairs)
        if is_k_connected(G, min_connectivity):
            return G
    raise GraphError(f"no valid instance found in {max_tries} tries")


def _find_cycle(
    G: Multigraph, used: bytearray, parity: Optional[int], max_len: int
) -> Optional[tuple[int, ...]]:
    """Lowest-start DFS for a simple cycle of length >= 3 over unused edges,
    optionally restricted to a length parity.  Deterministic."""

    def dfs(start: int, v: int, path_edges: list[int], on_path: set[int]) -> Optional[tuple[int, ...]]:
        if len(path_edges) >= max_len:
            return None
        for e in G.incident(v):
            if used[e] or e in path_edges:
                continue
            w = G.other_end(e, v)
            if w == start and len(path_edges) >= 2:
                length = len(path_edges) + 1
                if parity is None or length % 2 == parity:
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

    for start in range(G.n):
        found = dfs(start, start, [], set())
        if found is not None:
            return found
    return None


def pack_cycles(
    G: Multigraph, parity: Optional[str] = "odd", max_len: int = 9
) -> CycleSet:
    """Greedy packing of pairwise edge-disjoint simple cycles of length >= 3.

    parity: 'odd', 'even', or None for any length.  Cycles are extracted in
    deterministic DFS order until none remain.
    """
    parity_bit = {None: None, "odd": 1, "even": 0}[parity]
    used = bytearray(G.m)
    cycles = []
    while True:
        cyc = _find_cycle(G, used, parity_bit, max_len)
        if cyc is None:
            break
        for e in cyc:
            used[e] = 1
        cycles.append(cyc)
    return CycleSet(G, cycles)
