"""Edge orientations of a multigraph and the even-indegree check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cycles import CycleSet
from .multigraph import FormatError, GraphError, Multigraph, _read_rows, _write_rows

__all__ = [
    "Orientation",
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
        for e, h in enumerate(self.head):
            if h not in self.host.endpoints(e):
                raise GraphError(f"head of edge {e} is not one of its endpoints")

    def tail(self, eid: int) -> int:
        return self.host.other_end(eid, self.head[eid])

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


def _cycle_is_oriented(D: Orientation, cycle: tuple[int, ...]) -> bool:
    # Oriented <=> every cycle vertex has exactly one inbound cycle edge.
    heads_at: dict[int, int] = {}
    for e in cycle:
        u, v = D.host.endpoints(e)
        heads_at.setdefault(u, 0)
        heads_at.setdefault(v, 0)
        heads_at[D.head[e]] += 1
    return all(c == 1 for c in heads_at.values())


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
