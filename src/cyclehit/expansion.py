"""Graph surgeries: vertex replacement by tree interiors, and
orientation-class vertex splitting, walked in the original graph without
building the split graph.

Original edges keep their ids in the expanded graph; gadget edges are
appended after them, so the original edges of a matching of the expanded
graph are its edge ids below the original edge count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .cycles import CycleSet
from .factors import Factor
from .gadgets import GadgetTree
from .multigraph import GraphError, Multigraph
from .orientation import Orientation, _cycle_is_oriented

__all__ = [
    "ExpansionMap",
    "cubic_expansion",
    "split_factor",
]


@dataclass(frozen=True)
class ExpansionMap:
    """An expansion: edge e of the original graph is edge e of the expanded
    one."""

    expanded: Multigraph


def cubic_expansion(
    G: Multigraph, O: CycleSet, tree: GadgetTree
) -> tuple[ExpansionMap, CycleSet]:
    """Replace every vertex by the interior of a gadget tree, yielding a
    cubic graph in which consecutive edges of each cycle stay adjacent.

    G must be L-regular for the L leaves of tree: third_pipeline passes the
    3t-leaf claw-grown tree, the half orientation the 2t-leaf even tree.
    Built in one pass over the edge ends as slots: each two consecutive
    edges of a cycle take one sibling group at their shared vertex, in
    cycle order, and every other end takes a slot left at its vertex.
    Returns the expansion map and the induced cycle set (same edge ids),
    whose walks are the pair vertices the pass placed, not checked again.
    For the claw (t = 1) both are the input itself: G and O are returned,
    with no graph or cycle set built.
    """
    required = len(tree.leaves)
    if G.is_regular() != required:
        raise GraphError(f"a {required}-leaf gadget tree needs a {required}-regular graph")
    if O.host != G:
        raise GraphError("cycle set does not belong to this graph")

    internal = tree.internal_vertices()
    local_rank = {v: i for i, v in enumerate(internal)}
    # Each sibling group of the tree is a bundle of attachment slots on one
    # internal vertex; groups come in id order of that vertex.
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

    # Each cycle pair at a vertex takes two slots of one group, lowest group
    # first; the other edges fill the slots left, in group order.
    # single_slots[p]: the internal vertex of each slot left once p pairs are in.
    pair_groups = [g for g, c in enumerate(group_capacity) for _ in range(c // 2)]
    free = list(group_capacity)
    single_slots = [[group_vertex[g] for g, c in enumerate(free) for _ in range(c)]]
    for g in pair_groups:
        free[g] -= 2
        single_slots.append([group_vertex[g] for g, c in enumerate(free) for _ in range(c)])
    # G is regular, so a vertex with p pairs has a loose end per slot left.
    for p, left in enumerate(single_slots):
        if len(left) != required - 2 * p:
            raise AssertionError(f"{len(left)} slots left for {required - 2 * p} edge ends")
    if block == 1 and required == 3:
        # The claw: every edge end stays at its own vertex, and no cubic
        # vertex carries two edge-disjoint cycles, so the expansion is G.
        return ExpansionMap(G), O
    # end[2e + i]: the expanded vertex replacing endpoint i of edge e, where
    # i = 0 stands for G.edges[e][0]; -1 while unset.  A cycle visits a
    # vertex at most once, so each vertex takes its pairs in cycle index
    # order.  The vertex a pair takes is where its two edges meet in the
    # expansion, so it is the cycle's expanded walk at that position.
    edges = G.edges
    end = [-1] * (2 * G.m)
    npairs = [0] * G.n
    walks = []
    for cyc, walk in zip(O.cycles, O.walks):
        expanded_walk = []
        for v, e, f in zip(walk, cyc[-1:] + cyc[:-1], cyc):
            p = npairs[v]
            npairs[v] = p + 1
            if p < len(pair_groups):
                x = v * block + group_vertex[pair_groups[p]]
                end[2 * e + (edges[e][0] != v)] = end[2 * f + (edges[f][0] != v)] = x
                expanded_walk.append(x)
        walks.append(tuple(expanded_walk))
    for v, p in enumerate(npairs):
        if p > len(pair_groups):
            raise AssertionError(
                f"vertex {v} carries {p} cycle pairs but the gadget "
                f"tree offers only groups of sizes {group_capacity}"
            )
    # Every other end takes the next slot left at its vertex, in edge-id
    # order, which is each vertex's incidence order.
    slots = [iter(single_slots[p]) for p in npairs]
    end = [
        x if x >= 0 else v * block + next(slots[v])
        for v, x in zip(chain.from_iterable(edges), end)
    ]

    new_edges = list(zip(end[0::2], end[1::2]))
    new_edges += [
        (v * block + a, v * block + b) for v in range(G.n) for a, b in interior_edges
    ]
    expanded = Multigraph(G.n * block, new_edges)
    if expanded.is_regular() != 3:
        raise AssertionError("cubic expansion produced a non-cubic graph")
    return ExpansionMap(expanded), CycleSet._built(expanded, O.cycles, tuple(walks))


def split_factor(G: Multigraph, D: Orientation, O: CycleSet, t: int) -> Factor:
    """The t-factor of a 2t-regular graph G got by splitting every vertex
    into degree-2 vertices, each taking two in-edges of D or two out-edges,
    and keeping every other edge of each cycle of the resulting 2-regular
    bipartite graph.

    D must have even indegrees and leave no cycle of O oriented.  Cycle
    edges meeting a vertex in the same direction share a split vertex; the
    rest are paired greedily by lowest edge id.  The split graph is never
    built: each of its cycles is walked in G from its lowest edge, which is
    kept, out through that edge's second endpoint.
    """
    if D.host != G or O.host != G:
        raise GraphError("orientation or cycle set does not match the graph")
    indeg = D.indegrees()
    for v in range(G.n):
        if G.degree(v) % 2 == 1:
            raise GraphError(f"odd degree at vertex {v}")
        if indeg[v] % 2 == 1:
            raise GraphError(f"odd indegree at vertex {v}")

    # partner[(e, v)]: the edge that shares e's split vertex at endpoint v.
    partner: dict[tuple[int, int], int] = {}
    for cyc, walk in zip(O.cycles, O.walks):
        if _cycle_is_oriented(D, cyc):
            raise GraphError("a prescribed cycle is an oriented cycle")
        for v, e, f in zip(walk, cyc[-1:] + cyc[:-1], cyc):
            if (D.head[e] == v) == (D.head[f] == v):
                partner[(e, v)] = f
                partner[(f, v)] = e
    for v in range(G.n):
        for inbound in (True, False):
            loose = [
                e for e in G.incident(v)
                if (D.head[e] == v) == inbound and (e, v) not in partner
            ]
            for e, f in zip(loose[::2], loose[1::2]):
                partner[(e, v)] = f
                partner[(f, v)] = e

    # Each walk alternates between in- and out-split vertices, so it has
    # even length, and either way round it keeps the same edges.
    kept: list[int] = []
    visited = bytearray(G.m)
    for start in range(G.m):
        e, v, keep = start, G.edges[start][1], True
        while not visited[e]:
            visited[e] = 1
            if keep:
                kept.append(e)
            keep = not keep
            e = partner[(e, v)]
            v = G.other_end(e, v)
    return Factor(G, t, tuple(sorted(kept)))
