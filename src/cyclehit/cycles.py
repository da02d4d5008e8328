"""Cycle sets over a host multigraph and the `.cyc` format.

Cycles are stored as ordered lists of edge ids forming a closed walk with no
repeated vertex.  Edge ids rather than vertex sequences are used because
parallel edges (and 2-cycles in particular) make vertex sequences ambiguous.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .multigraph import FormatError, GraphError, Multigraph, _read_rows, _write_rows

__all__ = [
    "CycleSet",
    "cycle_vertices",
    "parse_cycles",
    "serialize_cycles",
]


def cycle_vertices(host: Multigraph, cycle: Sequence[int]) -> tuple[int, ...]:
    """Vertex walk of a cycle given as edge ids.

    Returns vertices (v_0, ..., v_{k-1}) such that edge cycle[i] joins v_i
    and v_{i+1 mod k}.  Raises GraphError if the edges do not form a closed
    walk without repeated vertices.  A 2-cycle (two parallel edges) is a
    valid cycle here; callers that forbid it must check the length.
    """
    k = len(cycle)
    if k < 2:
        raise GraphError("a cycle needs at least 2 edges")
    if len(set(cycle)) != k:
        raise GraphError(f"repeated edge id in cycle {list(cycle)}")
    ends = [host.edges[e] for e in cycle]
    if k == 2:
        (a, b), (c, d) = ends
        if (a, b) != (c, d) and (a, b) != (d, c):
            raise GraphError(f"edges {list(cycle)} are not parallel")
        return (min(a, b), max(a, b))
    # Edges have two distinct ends, so consecutive edges (a, b) and (c, d)
    # chain through a or b when exactly one of them is c or d.
    walk = []
    a, b = ends[-1]
    for i, (c, d) in enumerate(ends):
        at_a = a == c or a == d
        if at_a == (b == c or b == d):
            raise GraphError(
                f"edges {cycle[i - 1]} and {cycle[i]} do not chain into a cycle"
            )
        walk.append(a if at_a else b)
        a, b = c, d
    if len(set(walk)) != k:
        raise GraphError(f"cycle {list(cycle)} repeats a vertex")
    return tuple(walk)


class CycleSet:
    """An ordered collection of pairwise edge-disjoint cycles of one host.
    walks[i] is cycle_vertices(host, cycles[i]), kept from the check."""

    __slots__ = ("host", "cycles", "walks")

    def __init__(self, host: Multigraph, cycles: Iterable[Sequence[int]]):
        # Each cycle is checked before the next is taken, so a GraphError
        # concerns the cycle the iterable produced last (parse_cycles relies
        # on this to name its line).
        checked, walks = [], []
        seen: set[int] = set()
        m = host.m
        for c in cycles:
            c = tuple(map(int, c))
            for e in c:
                if not (0 <= e < m):
                    raise GraphError(f"edge id {e} out of range")
                if e in seen:
                    raise GraphError(f"cycles are not edge-disjoint at edge {e}")
                seen.add(e)
            walks.append(cycle_vertices(host, c))
            checked.append(c)
        self.host = host
        self.cycles = tuple(checked)
        self.walks = tuple(walks)

    @classmethod
    def _built(cls, host: Multigraph, cycles: tuple, walks: tuple) -> CycleSet:
        """A cycle set whose cycles and walks the caller has just built in
        host, so nothing is checked again; parsed and caller input goes
        through the checking constructor."""
        self = cls.__new__(cls)
        self.host, self.cycles, self.walks = host, cycles, walks
        return self

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)

    def min_length(self) -> int:
        return min((len(c) for c in self.cycles), default=0)

    def all_odd(self) -> bool:
        return all(len(c) % 2 == 1 for c in self.cycles)

    def __repr__(self) -> str:
        return f"CycleSet({[len(c) for c in self.cycles]})"


def parse_cycles(text: str | bytes, host: Multigraph) -> CycleSet:
    """Read a cycle set in the `.cyc` format against a host graph: a header
    ``p cyc <k>``, then k rows ``c <len> <eids>``."""
    (line_no, _), line_nos, rows = _read_rows(text, "p cyc <k>", "c <len> <eids>", None)

    def cycles():
        nonlocal line_no
        for line_no, (length, *eids) in zip(line_nos, rows):
            if len(eids) != length:
                raise FormatError(line_no, f"declared length {length} but {len(eids)} edge ids")
            yield eids

    try:
        return CycleSet(host, cycles())
    except GraphError as exc:
        raise FormatError(line_no, str(exc)) from exc


def serialize_cycles(O: CycleSet, comments: Iterable[str] = ()) -> str:
    rows = (f"c {len(c)} " + " ".join(map(str, c)) for c in O.cycles)
    return _write_rows(f"p cyc {len(O.cycles)}", rows, comments)
