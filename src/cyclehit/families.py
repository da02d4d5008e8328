"""Deterministic generators for the explicit counterexample families, each
paired with its prescribed cycle set and the claims it witnesses.

All builders use a fixed vertex numbering (copies in index order, then the
conventional vertex-label order inside each block), so identical parameters
give byte-identical serializations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .cycles import CycleSet, serialize_cycles
from .multigraph import GraphError, Multigraph, serialize_multigraph

__all__ = [
    "FamilyInstance",
    "gen_thm4",
    "gen_thm5",
    "gen_sec6_2k",
    "gen_doubled",
    "petersen",
    "petersen_cycles",
]


@dataclass(frozen=True)
class FamilyInstance:
    """A graph, its prescribed cycles and the builder's claims about them;
    a claimed "regular" degree is checked on construction."""

    graph: Multigraph
    cycles: CycleSet
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        regular = self.meta.get("regular")
        if regular is not None and self.graph.is_regular() != regular:
            raise AssertionError("family construction broke regularity")

    def serialize(self) -> tuple[str, str]:
        """(.mg text, .cyc text) with a family comment header that lists
        meta's keys in the order the builder wrote them."""
        header = "family: " + " ".join(f"{k}={v}" for k, v in self.meta.items())
        return (
            serialize_multigraph(self.graph, comments=[header]),
            serialize_cycles(self.cycles, comments=[header]),
        )


def _multi(edges: list[tuple[int, int]], u: int, v: int, count: int):
    edges.extend([(u, v)] * count)


def _build_block_graph(r: int) -> tuple[int, list[tuple[int, int]], list[tuple[int, ...]]]:
    """The 1-connected r-regular graph for even r: r/2 copies of the
    weighted kite block J' glued at a shared vertex x.

    Returns (n, edges, triangles); triangles are the prescribed 3-cycles
    z-v1, v1-u1, u1-z of each copy, as closed edge-id walks.
    """
    edges: list[tuple[int, int]] = []
    triangles: list[tuple[int, ...]] = []
    x = 0
    n = 1
    for _ in range(r // 2):
        y, z = n, n + 1
        v1, v2, v3 = n + 2, n + 3, n + 4
        u1, u2, u3 = n + 5, n + 6, n + 7
        n += 8
        _multi(edges, x, y, 2)
        _multi(edges, y, z, r - 2)
        zv1 = len(edges)
        edges.append((z, v1))
        edges.append((z, u1))
        edges.append((v1, u1))
        triangles.append((zv1, zv1 + 2, zv1 + 1))  # walk z-v1, v1-u1, u1-z
        _multi(edges, v1, v2, (r - 2) // 2)
        _multi(edges, v1, v3, (r - 2) // 2)
        _multi(edges, u1, u2, (r - 2) // 2)
        _multi(edges, u1, u3, (r - 2) // 2)
        _multi(edges, v2, v3, (r + 2) // 2)
        _multi(edges, u2, u3, (r + 2) // 2)
    return n, edges, triangles


def _attach_paws(
    n: int,
    edges: list[tuple[int, int]],
    host_vertices: range,
    wa: int,
    ab: int,
    bc: int,
) -> int:
    """Glue one paw (triangle with a pendant path to the host vertex) onto
    every host vertex; multiplicities wa/ab/bc set the edge weights."""
    for w in host_vertices:
        a, b, c = n, n + 1, n + 2
        n += 3
        _multi(edges, w, a, wa)
        _multi(edges, a, b, ab)
        _multi(edges, a, c, ab)
        _multi(edges, b, c, bc)
    return n


def gen_thm4(r: int, t: int) -> FamilyInstance:
    """1-connected r-regular graph with edge-disjoint triangles that no
    t-factor can hit completely, for 1 <= t <= r-2.

    Four parameter cases: (r,t both even), (r even, t odd), (r odd), and
    t=1 (the wheel-of-kites graph with a unique perfect matching support).
    """
    if not (1 <= t <= r - 2):
        raise GraphError(f"need 1 <= t <= r-2, got r={r}, t={t}")
    if t == 1:
        case = 4
        n = 12
        edges: list[tuple[int, int]] = [(0, 1), (0, 2), (1, 2)]
        for i in range(3):
            q = i
            p1, p2, p3 = 3 + 3 * i, 4 + 3 * i, 5 + 3 * i
            _multi(edges, q, p1, r - 2)
            edges.append((p1, p2))
            edges.append((p1, p3))
            _multi(edges, p2, p3, r - 1)
        cycles = [(0, 2, 1)]  # walk q1-q2, q2-q3, q3-q1
    elif r % 2 == 0 and t % 2 == 0:
        if r < 4:
            raise GraphError("case r,t even needs r >= 4")
        case = 1
        n, edges, cycles = _build_block_graph(r)
    elif r % 2 == 0:
        if r < 6 or t > r - 3:
            raise GraphError("case r even, t odd needs r >= 6 and t <= r-3")
        case = 2
        n, edges, cycles = _build_block_graph(r - 2)
        n = _attach_paws(n, edges, range(n), wa=2, ab=(r - 2) // 2, bc=(r + 2) // 2)
    else:
        if r < 5:
            raise GraphError("case r odd needs r >= 5")
        case = 3
        n, edges, cycles = _build_block_graph(r - 1)
        n = _attach_paws(n, edges, range(n), wa=1, ab=(r - 1) // 2, bc=(r + 1) // 2)
    G = Multigraph(n, edges)
    return FamilyInstance(
        graph=G,
        cycles=CycleSet(G, cycles),
        meta={
            "case": case,
            "has_t_factor": True,
            "mode": "hit",
            "name": "thm4",
            "r": r,
            "regular": r,
            "t": t,
            "unsat_t": t,
        },
    )


def gen_thm5(r: int) -> FamilyInstance:
    """r-connected r-regular graph of even order built from three complete
    bipartite blocks joined by r triangles; hitting all triangles forces
    t >= ceil(r/3)."""
    if r < 3:
        raise GraphError("need r >= 3")
    block = 2 * r - 2

    def a(i: int, j: int) -> int:
        return i * block + j

    def b(i: int, j: int) -> int:
        return i * block + r + j

    edges: list[tuple[int, int]] = []
    for i in range(3):
        for j in range(r):
            for k in range(r - 2):
                edges.append((a(i, j), b(i, k)))
    cycles = []
    for j in range(r):
        base = len(edges)
        edges.append((a(0, j), a(1, j)))
        edges.append((a(1, j), a(2, j)))
        edges.append((a(2, j), a(0, j)))
        cycles.append((base, base + 1, base + 2))
    G = Multigraph(3 * block, edges)
    return FamilyInstance(
        graph=G,
        cycles=CycleSet(G, cycles),
        meta={
            "connectivity": r,
            "even_order": True,
            "min_sat_t": -(-r // 3),
            "mode": "hit",
            "name": "thm5",
            "r": r,
            "regular": r,
        },
    )


def gen_sec6_2k(k: int) -> FamilyInstance:
    """2-connected 2k-regular graph (subdivided parallel bundle plus rungs)
    with k prescribed 4-cycles; hitting all of them forces t >= k."""
    if k < 2:
        raise GraphError("need k >= 2")
    u1, u2 = 0, 1

    def v(i: int) -> int:
        return 2 + i

    edges: list[tuple[int, int]] = []
    cycles = []
    for i in range(2 * k):
        edges.append((u1, v(i)))
        edges.append((v(i), u2))
    for j in range(k):
        i = 2 * j
        # walk u1-v_i, v_i-u2, u2-v_{i+1}, v_{i+1}-u1
        cycles.append((2 * i, 2 * i + 1, 2 * i + 3, 2 * i + 2))
    for j in range(k):
        _multi(edges, v(2 * j), v(2 * j + 1), 2 * k - 2)
    G = Multigraph(2 + 2 * k, edges)
    return FamilyInstance(
        graph=G,
        cycles=CycleSet(G, cycles),
        meta={
            "k": k,
            "min_sat_t": k,
            "mode": "hit",
            "name": "sec6-2k",
            "regular": 2 * k,
        },
    )


def gen_doubled(G_base: Multigraph) -> FamilyInstance:
    """Double every edge and prescribe the 2-cycle made of each original
    edge and its copy.

    A t-factor of the doubled graph hitting every 2-cycle restricts the
    problem to perfect-matching existence in the base graph, so bases
    without a 1-factor give unhittable instances at t = r+1.
    """
    m = G_base.m
    edges = list(G_base.edges) + list(G_base.edges)
    G = Multigraph(G_base.n, edges)
    cycles = [(e, m + e) for e in range(m)]
    base_r = G_base.is_regular()
    return FamilyInstance(
        graph=G,
        cycles=CycleSet(G, cycles),
        meta={
            "base_m": m,
            "base_n": G_base.n,
            "mode": "hit",
            "name": "doubled",
            "regular": 2 * base_r if base_r is not None else None,
        },
    )


def petersen() -> Multigraph:
    """The Petersen graph: outer 5-cycle (edges 0-4), spokes (5-9), inner
    pentagram (10-14)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph(10, edges)


def petersen_cycles(G: Multigraph) -> CycleSet:
    """Outer and inner 5-cycles of the Petersen graph built by petersen()."""
    outer = (0, 1, 2, 3, 4)
    inner = (10, 12, 14, 11, 13)
    return CycleSet(G, [outer, inner])
