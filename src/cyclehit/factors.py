"""Factors (degree-t spanning subgraphs) and their verification predicates.

Also houses 2-factorization of even-regular multigraphs: the balanced
orientation of `orientation.balanced_orientation`, then repeated
perfect-matching peeling of the resulting regular bipartite graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator, Optional, Union

from .cycles import CycleSet
from .multigraph import (
    FormatError, GraphError, Multigraph, _first_non_integer, _read_rows, _write_rows,
)
from .orientation import balanced_orientation

__all__ = [
    "Factor",
    "MODES",
    "verify_factor",
    "verify_intersections",
    "check_factor",
    "two_factorization",
    "parse_factor",
    "serialize_factor",
]

MODES = ("hit", "hit-matching", "hit-and-cohit", "none")


@dataclass(frozen=True)
class Factor:
    """An edge-id subset of a host graph with a target degree t."""

    host: Multigraph
    t: int
    edge_ids: tuple[int, ...]

    def __post_init__(self):
        if self.t < 0:
            raise GraphError("target degree must be non-negative")
        try:
            ids = tuple(sorted(set(map(index, self.edge_ids))))
        except TypeError:
            i = _first_non_integer(self.edge_ids)
            raise GraphError(f"factor edge id at position {i} must be an integer") from None
        if len(ids) != len(self.edge_ids):
            raise GraphError("factor edge ids must be distinct")
        m = self.host.m
        for e in ids:
            if not (0 <= e < m):
                raise GraphError(f"edge id {e} out of range")
        object.__setattr__(self, "edge_ids", ids)

    def edge_set(self) -> set[int]:
        return set(self.edge_ids)

    def __len__(self) -> int:
        return len(self.edge_ids)


def verify_factor(G: Multigraph, F: Union[Factor, Iterable[int]], t: int) -> bool:
    """True iff every vertex of G is incident with exactly t edges of F."""
    deg, edges = [0] * G.n, G.edges
    for e in F.edge_ids if isinstance(F, Factor) else F:
        u, v = edges[e]
        deg[u] += 1
        deg[v] += 1
    return deg.count(t) == G.n


def verify_intersections(
    F: Factor, O: CycleSet, mode: str
) -> bool:
    """True iff the factor meets every cycle of the set as meets_cycle
    asks; always True in mode none."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if F.host != O.host:
        raise GraphError("factor and cycle set have different hosts")
    fset = F.edge_set()
    return mode == "none" or all(meets_cycle(F.host, fset, cyc, mode) for cyc in O.cycles)


def check_factor(
    F: Factor, O: Optional[CycleSet] = None, mode: str = "none", forced: Iterable[int] = ()
) -> Factor:
    """F, once checked as a witness: a t-factor of its host, through every
    forced edge, that meets every cycle of O as the mode asks.  A witness
    that fails is a bug in what built it, so where the verify_* functions
    answer False this raises AssertionError naming the first failure."""
    if not verify_factor(F.host, F, F.t):
        raise AssertionError(f"witness is not a {F.t}-factor")
    missing = set(forced) - F.edge_set()
    if missing:
        raise AssertionError(f"witness misses forced edge {min(missing)}")
    if O is not None and not verify_intersections(F, O, mode):
        raise AssertionError(f"witness violates mode {mode}")
    return F


def meets_cycle(G: Multigraph, ids: set[int], cycle: tuple[int, ...], mode: str) -> bool:
    """True iff the edge ids meet one cycle of G as the hitting mode asks.

    hit: at least one shared edge; hit-matching: additionally the shared
    edges are pairwise non-adjacent, so their ends are all distinct;
    hit-and-cohit: at least one shared and at least one unshared edge.
    """
    shared = [e for e in cycle if e in ids]
    if not shared or (mode == "hit-and-cohit" and len(shared) == len(cycle)):
        return False
    return mode != "hit-matching" or len({w for e in shared for w in G.edges[e]}) == 2 * len(shared)


def _bipartite_perfect_matching(
    n: int, out_edges: list[list[tuple[int, int]]]
) -> Optional[list[int]]:
    """Kuhn's algorithm on a tail->head oriented edge multiset.

    out_edges[v] lists (eid, head) pairs still available from tail v.
    Returns for each head vertex the matched eid, or None if no perfect
    matching exists.  The augmenting-path search keeps an explicit stack, so
    a long path does not touch the interpreter stack.
    """
    match_head: list[int] = [-1] * n  # head vertex -> eid
    match_tail: list[int] = [-1] * n  # tail vertex -> eid
    eid_tail: dict[int, int] = {}
    for v, lst in enumerate(out_edges):
        for eid, _ in lst:
            eid_tail[eid] = v

    def augment(root: int) -> bool:
        """Depth-first search for an augmenting path from a free tail,
        trying each tail's out-edges in list order.  A frame is a tail, its
        out-edges not yet tried, and the (eid, head) that led to it."""
        visited: set[int] = set()
        stack = [(root, iter(out_edges[root]), -1, -1)]
        while stack:
            for eid, head in stack[-1][1]:
                if head in visited:
                    continue
                visited.add(head)
                if match_head[head] == -1:
                    for tail, _, via, via_head in reversed(stack):
                        match_head[head] = eid
                        match_tail[tail] = eid
                        eid, head = via, via_head
                    return True
                tail = eid_tail[match_head[head]]
                stack.append((tail, iter(out_edges[tail]), eid, head))
                break
            else:
                stack.pop()
        return False

    for v in range(n):
        if out_edges[v] and match_tail[v] == -1:
            if not augment(v):
                return None
    return match_head


def two_factorization(G: Multigraph) -> list[Factor]:
    """Split a 2k-regular multigraph into k edge-disjoint 2-factors.

    Method: balanced orientation (Eulerian circuits per component), then
    peel perfect matchings of the tail/head bipartite graph; each matching
    gives every vertex one out-edge and one in-edge, i.e. a 2-factor.
    """
    return list(_two_factors(G))


def _two_factors(G: Multigraph) -> Iterator[Factor]:
    """The 2-factors of two_factorization, each peeled when it is asked
    for, from what the earlier ones left."""
    r = G.is_regular()
    if r is None:
        raise GraphError("graph is not regular")
    if r % 2 == 1:
        raise GraphError("graph has odd regularity")
    k = r // 2
    if k == 0:
        return
    heads = balanced_orientation(G).head
    remaining: list[list[tuple[int, int]]] = [[] for _ in range(G.n)]
    for e in range(G.m):
        head = heads[e]
        tail = G.other_end(e, head)
        remaining[tail].append((e, head))
    for _ in range(k):
        match_head = _bipartite_perfect_matching(G.n, remaining)
        if match_head is None or any(m == -1 for m in match_head):
            raise AssertionError("regular bipartite peeling failed")  # unreachable
        chosen = sorted(set(match_head))
        chosen_set = set(chosen)
        for v in range(G.n):
            remaining[v] = [(e, h) for e, h in remaining[v] if e not in chosen_set]
        yield check_factor(Factor(G, 2, tuple(chosen)))


def parse_factor(text: str | bytes, host: Multigraph) -> Factor:
    """Read a factor in the `.fac` format against a host graph: a header
    ``p fac <t> <count>``, then count rows ``f <eid>`` with strictly
    increasing edge ids."""
    (_, (t, _)), line_nos, rows = _read_rows(text, "p fac <t> <count>", "f <eid>", 1)
    ids: list[int] = []
    for line_no, (eid,) in zip(line_nos, rows):
        if ids and eid <= ids[-1]:
            raise FormatError(line_no, "edge ids must be strictly increasing")
        if not (0 <= eid < host.m):
            raise FormatError(line_no, f"edge id {eid} out of range")
        ids.append(eid)
    return Factor(host, t, tuple(ids))


def serialize_factor(F: Factor, comments: Iterable[str] = ()) -> str:
    rows = (f"f {e}" for e in F.edge_ids)
    return _write_rows(f"p fac {F.t} {len(F.edge_ids)}", rows, comments)
