"""Edge orientations of a multigraph: the balanced orientation that directs
prescribed cycles, and the even-indegree check."""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Optional

from .cycles import CycleSet
from .multigraph import (
    FormatError, GraphError, Multigraph, _first_non_integer, _read_rows, _write_rows,
)

__all__ = [
    "Orientation",
    "balanced_orientation",
    "verify_orientation",
    "parse_orientation",
    "serialize_orientation",
]


@dataclass(frozen=True)
class Orientation:
    """A per-edge head choice: edge e points towards head[e]."""

    host: Multigraph
    head: tuple[int, ...]

    def __post_init__(self):
        if len(self.head) != self.host.m:
            raise GraphError("orientation must assign a head to every edge")
        try:
            head = tuple(map(index, self.head))
        except TypeError:
            e = _first_non_integer(self.head)
            raise GraphError(f"head of edge {e} must be an integer") from None
        object.__setattr__(self, "head", head)
        for e, h in enumerate(head):
            if h not in self.host.endpoints(e):
                raise GraphError(f"head of edge {e} is not one of its endpoints")

    def indegrees(self) -> list[int]:
        deg = [0] * self.host.n
        for h in self.head:
            deg[h] += 1
        return deg

    def flipped(self, eids: Iterable[int]) -> "Orientation":
        head = list(self.head)
        for e in eids:
            head[e] = self.host.other_end(e, head[e])
        return Orientation(self.host, tuple(head))


def balanced_orientation(G: Multigraph, O: Optional[CycleSet] = None) -> Orientation:
    """An orientation with indegree = outdegree at every vertex in which
    every cycle of O is directed.

    Every vertex must have even degree.  Each cycle of O is directed along
    its edge order.  The other edges follow Eulerian circuits of what is
    left, deterministically: each starts at the lowest vertex with an
    unoriented edge and always leaves along the lowest unoriented edge.
    """
    if O is not None and O.host != G:
        raise GraphError("cycle set does not belong to this graph")
    for v in range(G.n):
        if G.degree(v) % 2 == 1:
            raise GraphError(f"odd degree at vertex {v}")
    head = [-1] * G.m
    for cyc, walk in zip(O.cycles, O.walks) if O is not None else ():
        for i, e in enumerate(cyc):
            head[e] = walk[(i + 1) % len(cyc)]
    ptr = [0] * G.n
    for s in range(G.n):
        stack = [s]
        while stack:
            v = stack[-1]
            inc = G.incident(v)
            while ptr[v] < len(inc) and head[inc[ptr[v]]] >= 0:
                ptr[v] += 1
            if ptr[v] == len(inc):
                stack.pop()
                continue
            e = inc[ptr[v]]
            head[e] = G.other_end(e, v)
            stack.append(head[e])
    return Orientation(G, tuple(head))


def _cycle_is_oriented(D: Orientation, cycle: tuple[int, ...]) -> bool:
    # A cycle has as many vertices as edges, so it is oriented (every vertex
    # the head of exactly one of its edges) iff its heads are distinct.
    return len({D.head[e] for e in cycle}) == len(cycle)


def verify_orientation(G: Multigraph, D: Orientation, O: CycleSet) -> bool:
    """True iff every indegree is even and no cycle of O is oriented."""
    if D.host != G or O.host != G:
        raise GraphError("orientation or cycle set does not match the graph")
    if any(d % 2 == 1 for d in D.indegrees()):
        return False
    return not any(_cycle_is_oriented(D, c) for c in O.cycles)


def parse_orientation(text: str | bytes, host: Multigraph) -> Orientation:
    """Read an orientation in the `.ori` format against a host graph: a
    header ``p ori <m>`` with m the host's edge count, then one row
    ``o <eid> <head>`` for each edge."""
    (line_no, (m,)), line_nos, rows = _read_rows(text, "p ori <m>", "o <eid> <head>", 2)
    if m != host.m:
        raise FormatError(line_no, f"orientation is for {m} edges, host has {host.m}")
    head = [-1] * m
    for line_no, (eid, h) in zip(line_nos, rows):
        if not (0 <= eid < m):
            raise FormatError(line_no, f"edge id {eid} out of range")
        if head[eid] >= 0:
            raise FormatError(line_no, f"edge {eid} oriented twice")
        if h not in host.endpoints(eid):
            raise FormatError(line_no, f"vertex {h} is not an endpoint of edge {eid}")
        head[eid] = h
    return Orientation(host, tuple(head))


def serialize_orientation(D: Orientation, comments: Iterable[str] = ()) -> str:
    rows = (f"o {e} {h}" for e, h in enumerate(D.head))
    return _write_rows(f"p ori {D.host.m}", rows, comments)
