"""Cubic-interior trees used by the vertex-replacement reductions.

Two deterministic families are built here: the claw-grown trees with 3t
leaves (one canonical member per t) and the even-leaf trees with every
internal vertex of degree 3 and no lonely pendant edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Union

from .multigraph import GraphError, Multigraph, serialize_multigraph

__all__ = [
    "GadgetTree",
    "build_gadget_tree",
    "build_even_leaf_tree",
    "lonely_pendant_edges",
    "matched_leaf_count",
    "serialize_gadget_tree",
]


@dataclass(frozen=True)
class GadgetTree:
    """A tree with its leaves in slot order and grouped by internal neighbor.

    leaves are in increasing id order; sibling_groups partitions them by
    their unique internal neighbor, groups in increasing id order of that
    neighbor.  For the trees built here, both are also the order in which
    a breadth-first search from vertex 0 meets them.
    """

    tree: Multigraph
    leaves: tuple[int, ...]
    sibling_groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        T = self.tree
        if T.m != T.n - 1 or not T.is_connected():
            raise GraphError("gadget tree must be a tree")
        grouped = sorted(v for g in self.sibling_groups for v in g)
        if grouped != sorted(self.leaves):
            raise GraphError("sibling groups must partition the leaves")

    def internal_vertices(self) -> tuple[int, ...]:
        leaf = set(self.leaves)
        return tuple(v for v in range(self.tree.n) if v not in leaf)


def _as_gadget_tree(n: int, edges: list[tuple[int, int]]) -> GadgetTree:
    T = Multigraph(n, edges)
    leaves = tuple(v for v in range(n) if T.degree(v) == 1)
    groups: dict[int, list[int]] = {}
    for v in leaves:
        groups.setdefault(T.other_end(T.incident(v)[0], v), []).append(v)
    sibling_groups = tuple(tuple(groups[p]) for p in sorted(groups))
    return GadgetTree(T, leaves, sibling_groups)


def lonely_pendant_edges(T: Union[GadgetTree, Multigraph]) -> list[int]:
    """Edge ids of pendant edges not adjacent to another pendant edge."""
    tree = T.tree if isinstance(T, GadgetTree) else T
    if tree.m != tree.n - 1 or not tree.is_connected():
        raise GraphError("input must be a tree")
    pendant = [
        e for e, (u, v) in enumerate(tree.edges)
        if tree.degree(u) == 1 or tree.degree(v) == 1
    ]
    pendant_set = set(pendant)
    lonely = []
    for e in pendant:
        u, v = tree.endpoints(e)
        adjacent = (
            f
            for w in (u, v)
            for f in tree.incident(w)
            if f != e and f in pendant_set
        )
        if not any(True for _ in adjacent):
            lonely.append(e)
    return lonely


def build_gadget_tree(t: int) -> GadgetTree:
    """Canonical tree with 3t leaves, all internal degrees 3, and at most
    one lonely pendant edge.

    Grown from the claw: each step attaches two claws to one leaf.  The
    leaf of the lonely pendant edge is expanded when one exists, otherwise
    the lowest leaf, which keeps the lonely count at 0 or 1.  Leaves are
    made in increasing id order, two siblings at a time, so the lonely
    leaf is always the lowest, and leaves are expanded first in, first out.
    """
    if t < 1:
        raise GraphError("t must be a positive integer")
    n = 4
    edges: list[tuple[int, int]] = [(0, 1), (0, 2), (0, 3)]
    leaves = deque([1, 2, 3])
    for _ in range(t - 1):
        leaf = leaves.popleft()
        c1, c2 = n, n + 3
        edges += [(leaf, c1), (c1, n + 1), (c1, n + 2)]
        edges += [(leaf, c2), (c2, n + 4), (c2, n + 5)]
        leaves.extend((n + 1, n + 2, n + 4, n + 5))
        n += 6
    return _as_gadget_tree(n, edges)


def build_even_leaf_tree(L: int) -> GadgetTree:
    """Tree with L leaves (L even, >= 4), all internal degrees 3, and no
    lonely pendant edge.

    Grown from the H-tree by attaching two new leaves to each member of the
    lowest-id sibling pair, (2, 3), then (4, 5), and so on, so leaves
    always come in sibling pairs and no pendant edge is ever lonely.
    """
    if L < 4 or L % 2 == 1:
        raise GraphError("leaf count must be an even integer >= 4")
    n = 6
    edges: list[tuple[int, int]] = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]
    for u in range(2, L - 2, 2):
        edges += [(u, n), (u, n + 1), (u + 1, n + 2), (u + 1, n + 3)]
        n += 4
    return _as_gadget_tree(n, edges)


def matched_leaf_count(T: Union[GadgetTree, Multigraph], M: Iterable[int]) -> int:
    """Number of leaves incident to a matching covering every internal vertex.

    Raises GraphError if M is not a matching of the tree or leaves some
    internal vertex unmatched.
    """
    tree = T.tree if isinstance(T, GadgetTree) else T
    M = set(M)
    covered = [0] * tree.n
    for e in M:
        if not (0 <= e < tree.m):
            raise GraphError(f"edge id {e} out of range")
        u, v = tree.endpoints(e)
        covered[u] += 1
        covered[v] += 1
    if any(c > 1 for c in covered):
        raise GraphError("edge set is not a matching")
    for v in range(tree.n):
        if tree.degree(v) > 1 and covered[v] == 0:
            raise GraphError(f"internal vertex {v} is unmatched")
    return sum(
        1 for v in range(tree.n) if tree.degree(v) == 1 and covered[v] == 1
    )


def serialize_gadget_tree(T: GadgetTree, label: str) -> str:
    """Serialize in the `.mg` format with a comment recording the family
    parameter and the leaf slot order."""
    leaves = " ".join(str(v) for v in T.leaves)
    return serialize_multigraph(T.tree, comments=[f"{label} leaves: {leaves}"])
