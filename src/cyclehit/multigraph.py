"""Loopless multigraphs with dense, stable edge ids.

Vertices are the integers 0..n-1.  Edges are unordered vertex pairs kept in
input order, so the edge id of an edge is simply its index in the edge list.
Parallel edges are allowed, loops are not.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain, combinations, islice
from typing import Iterable, Optional

__all__ = [
    "FormatError",
    "GraphError",
    "Multigraph",
    "parse_multigraph",
    "serialize_multigraph",
    "vertex_connectivity",
    "is_k_connected",
]

# Seed of the random cycle-space edge labels.  The labels only choose what
# to test exactly, so no result depends on it.
_LABEL_SEED = 0x2C0C1E
# The 3-connectivity test screens a vertex by the XORs of one side of every
# split of its edges; above this degree it checks G - v directly instead.
_SCREEN_MAX_DEGREE = 8


class GraphError(ValueError):
    """A structural precondition of a graph operation was violated."""


class FormatError(ValueError):
    """Malformed file input; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _read_rows(
    text: str | bytes, header: str, row: str, width: Optional[int]
) -> tuple[tuple[int, tuple[int, ...]], list[int], list[tuple[int, ...]]]:
    """The grammar shared by the `.mg`, `.cyc`, `.fac` and `.ori` formats.

    Blank lines and lines starting with '#' are skipped.  The first other
    line is the header, shaped like the spec `header` ('p <tag>' and one
    non-negative integer per placeholder, the last one the row count); each
    further line is a row shaped like the spec `row` (its tag and `width`
    integers, or at least one if width is None).  Returns (line_no, ints)
    for the header, then the line numbers and the ints of the rows as two
    parallel lists.  A FormatError names the offending line; the shape of
    every line is checked before any entry is converted, so a file with
    several faults may be reported at a later line than its first.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    spec = header.split()
    row_tag = row.split()[0]
    lines = enumerate(text.splitlines(), start=1)
    line_no = 0
    for line_no, raw in lines:
        tokens = raw.split()
        if tokens and tokens[0][0] != "#":
            break
    else:
        raise FormatError(line_no or 1, f"missing {' '.join(spec[:2])!r} header")
    if tokens[:2] != spec[:2] or len(tokens) != len(spec):
        raise FormatError(line_no, f"expected header {header!r}, got {raw.strip()!r}")
    try:
        counts = tuple(map(int, tokens[2:]))
    except ValueError:
        raise FormatError(line_no, "header counts must be integers") from None
    if min(counts) < 0:
        raise FormatError(line_no, "header counts must be non-negative")
    head, count = (line_no, counts), counts[-1]
    line_nos: list[int] = []
    cells: list[list[str]] = []
    for line_no, raw in lines:
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] != row_tag or (
            len(tokens) < 2 if width is None else len(tokens) != width + 1
        ):
            raise FormatError(line_no, f"expected line {row!r}, got {raw.strip()!r}")
        if len(cells) == count:
            raise FormatError(line_no, f"more than the declared {count} rows")
        del tokens[0]
        line_nos.append(line_no)
        cells.append(tokens)
    # One map() over all entries, drained inside the try: a map() per row
    # costs about as much again as the int() calls of a two-entry row.
    try:
        ints = iter([*map(int, chain.from_iterable(cells))])
    except ValueError:
        for bad_line, tokens in zip(line_nos, cells):
            try:
                [*map(int, tokens)]
            except ValueError:
                raise FormatError(bad_line, "entries must be integers") from None
    if len(cells) != count:
        raise FormatError(line_no, f"declared {count} rows but found {len(cells)}")
    if width is None:  # .cyc: few rows, each as long as its cycle
        return head, line_nos, [tuple(islice(ints, len(t))) for t in cells]
    return head, line_nos, list(zip(*[ints] * width))


def _write_rows(header: str, rows: Iterable[str], comments: Iterable[str]) -> str:
    """The text of a file in the shared grammar of _read_rows.  Raises
    ValueError for a comment that _read_rows would split into more than
    one line."""
    lines = [f"# {c}" for c in comments]
    for line in lines:
        if line.splitlines() != [line]:
            raise ValueError(f"comment {line[2:]!r} contains a line break")
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


class Multigraph:
    """Immutable loopless multigraph.  Treat instances as read-only."""

    __slots__ = ("n", "edges", "_incident")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        edges = tuple([(int(u), int(v)) for u, v in edges])
        incident = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {eid}: endpoint out of range")
            if u == v:
                raise GraphError(f"edge {eid}: loops are forbidden")
            incident[u].append(eid)
            incident[v].append(eid)
        self.n = n
        self.edges = edges
        self._incident = tuple(map(tuple, incident))

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.edges[eid]

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"vertex {v} is not an endpoint of edge {eid}")

    def incident(self, v: int) -> tuple[int, ...]:
        return self._incident[v]

    def degree(self, v: int) -> int:
        return len(self._incident[v])

    def degrees(self) -> list[int]:
        return list(map(len, self._incident))

    def is_regular(self) -> Optional[int]:
        """Common degree of all vertices, or None if degrees differ."""
        if self.n == 0:
            return None
        degs = self.degrees()
        r = degs[0]
        return r if degs.count(r) == self.n else None

    def is_connected(self) -> bool:
        return self.n <= 1 or len(_dfs(self, (0,), [-1] * self.n)[0]) == self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multigraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={self.m})"


def parse_multigraph(text: str | bytes) -> Multigraph:
    """Read a graph in the `.mg` format: a header ``p mg <n> <m>``, then m
    rows ``e <u> <v>`` with 0 <= u,v < n and u != v.  Edge ids are assigned
    in row order starting at 0."""
    (_, (n, _)), line_nos, rows = _read_rows(text, "p mg <n> <m>", "e <u> <v>", 2)
    try:
        return Multigraph(n, rows)
    except GraphError:  # name the line of the first bad edge
        for line_no, (u, v) in zip(line_nos, rows):
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(line_no, f"vertex id out of range 0..{n - 1}") from None
            if u == v:
                raise FormatError(line_no, f"loop edge at vertex {u} is forbidden") from None
        raise


def serialize_multigraph(G: Multigraph, comments: Iterable[str] = ()) -> str:
    rows = (f"e {u} {v}" for u, v in G.edges)
    return _write_rows(f"p mg {G.n} {G.m}", rows, comments)


def vertex_connectivity(G: Multigraph) -> int:
    """Exact vertex connectivity of the underlying simple graph: 0 when it
    is disconnected, n-1 when it has no vertex cut.  It never exceeds the
    minimum degree (Whitney, Amer. J. Math. 54 (1932)), which parallel edges
    only raise, so the largest k <= 3 with is_k_connected(G, k) is the
    answer unless G is 3-connected with minimum degree >= 4, the one case
    that goes on to networkx.
    """
    k = next((k - 1 for k in (1, 2, 3) if not is_k_connected(G, k)), 3)
    if k < 3 or min(G.degrees()) <= 3:
        return k
    adj = {(min(u, v), max(u, v)) for u, v in G.edges}
    if len(adj) == G.n * (G.n - 1) // 2:
        return G.n - 1
    import networkx as nx  # only 3-connected graphs of minimum degree >= 4 need it

    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(adj)
    return nx.node_connectivity(H)


def _dfs(
    G: Multigraph, roots: Iterable[int], pre: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """Iterative depth-first search from each root in turn over the vertices
    whose entry in pre is negative (Hopcroft and Tarjan, CACM 1973).  Writes
    preorder numbers into pre, continuing across roots, and returns the
    reached vertices in preorder, every vertex's tree edge to its parent (-1
    for roots and unreached vertices) and its low-point: the lowest preorder
    number an edge from its subtree reaches, ignoring every edge from the
    vertex to its parent, so parallel copies of a tree edge count once."""
    edges, incident = G.edges, G._incident
    low = [0] * G.n
    parent_edge = [-1] * G.n
    order: list[int] = []
    for root in roots:
        if pre[root] >= 0:
            continue
        pre[root] = low[root] = len(order)
        order.append(root)
        stack = [(root, -1, iter(incident[root]))]
        while stack:
            v, p, todo = stack[-1]
            for eid in todo:
                a, b = edges[eid]
                w = b if a == v else a
                if pre[w] < 0:
                    pre[w] = low[w] = len(order)
                    order.append(w)
                    parent_edge[w] = eid
                    stack.append((w, v, iter(incident[w])))
                    break
                if w != p and pre[w] < low[v]:
                    low[v] = pre[w]
            else:
                stack.pop()
                if p >= 0 and low[v] < low[p]:
                    low[p] = low[v]
    return order, parent_edge, low


def _cut_labels(G: Multigraph, order: list[int], parent_edge: list[int]) -> list[int]:
    """Cycle-space edge labels of a connected graph, given the preorder and
    tree edges of a spanning tree as returned by _dfs (Pritchard and
    Thurimella, TALG 2011).

    Every non-tree edge gets a random 64-bit label, and every tree edge the
    XOR of the labels of the non-tree edges leaving its subtree.  A cycle
    crosses an edge cut an even number of times, so the labels of any edge
    cut XOR to exactly 0; a set of edges that is not a cut XORs to 0 only
    with probability 2^-64.
    """
    rng = random.Random(_LABEL_SEED)
    label = [0] * G.m
    leaving = [0] * G.n  # XOR of the non-tree labels leaving each subtree
    for eid, (u, v) in enumerate(G.edges):
        if parent_edge[u] != eid and parent_edge[v] != eid:
            label[eid] = rng.getrandbits(64)
            leaving[u] ^= label[eid]
            leaving[v] ^= label[eid]
    for v in reversed(order[1:]):
        eid = parent_edge[v]
        label[eid] = leaving[v]
        leaving[G.other_end(eid, v)] ^= leaving[v]
    return label


def _biconnected_tree(
    G: Multigraph, removed: int = -1
) -> Optional[tuple[list[int], list[int]]]:
    """The preorder and tree edges of a depth-first search of G minus the
    vertex `removed` (none if -1), or None unless that graph is connected and
    has no articulation point; it must have at least 3 vertices.

    A non-root vertex p is an articulation point iff some child v has
    low[v] >= pre[p]: v's subtree has no edge to a proper ancestor of p.  The
    root is one iff it has more than one child.  Parallel edges cannot hide a
    vertex cut.
    """
    pre = [-1] * G.n
    if removed >= 0:
        pre[removed] = G.n  # never entered, and never lowers a low-point
    root = 1 if removed == 0 else 0
    order, parent_edge, low = _dfs(G, (root,), pre)
    if len(order) < G.n - (removed >= 0):
        return None
    root_children = 0
    for v in order[1:]:
        p = G.other_end(parent_edge[v], v)
        if p == root:
            root_children += 1
        elif low[v] >= pre[p]:
            return None
    return (order, parent_edge) if root_children == 1 else None


def bridge_sides(G: Multigraph) -> list[tuple[int, int, int]]:
    """Bridges of the simple graph underlying G, as (p, v, size): removing
    every p-v edge separates the depth-first subtree of v, which has size
    vertices, from the rest of its component.

    One _dfs over all components, then subtree sizes in reverse preorder:
    a tree edge p-v is a bridge iff low[v] > pre[p].
    """
    pre = [-1] * G.n
    order, parent_edge, low = _dfs(G, range(G.n), pre)
    size = [1] * G.n
    sides = []
    for v in reversed(order):
        eid = parent_edge[v]
        if eid >= 0:
            a, b = G.edges[eid]
            p = b if a == v else a
            if low[v] > pre[p]:
                sides.append((p, v, size[v]))
            size[p] += size[v]
    return sides


def _may_face_component(G: Multigraph, v: int, mask: int, u: int) -> bool:
    """Whether one side of the split of v's edges by mask (bit i for v's
    i-th incident edge) can be v's edges into one component of G - {u, v}:
    that side holds no u-v edge, and the other side holds every u-v edge
    and at least one edge not to u."""
    incident = G._incident[v]
    to_u = sum(1 << i for i, eid in enumerate(incident) if u in G.edges[eid])
    side = mask if mask & to_u else (1 << len(incident)) - 1 ^ mask  # gets the u-v edges
    return side & to_u == to_u != side


def _is_3_connected(G: Multigraph) -> bool:
    """Whether G (n >= 4) is 2-connected and G - v is 2-connected for every
    vertex v, checking G - v only where the edge labels cannot rule out a
    2-vertex cut containing v.

    If G - {a, b} has a component C, the edges from C to a and from C to b
    together form the cut around C, so their label XORs are equal.  The
    edges at a vertex form the cut around it and XOR to exactly 0, so a set
    of them and its complement XOR alike, and a split of a vertex's edges
    into one edge e and the rest XORs to e's own label.  a and b can be a
    2-vertex cut only if their splits toward C XOR alike and pass
    _may_face_component.  Each vertex of degree 4 to _SCREEN_MAX_DEGREE
    files the XOR of each split with at least two edges on either side;
    vertices of degree at most 3 have no such split and file nothing.  The
    one-edge splits are read off the labels: label[e] stands for e's split
    at both its ends, and that pair never passes, because at either end only
    the side without e can face a component, which leaves e, an edge to the
    other end, alone on the other.  So a value is tested only if two edges
    share it as a label, or a vertex files it; its group then also holds the
    one-edge splits at both ends of each edge labelled with it.  Every other
    candidate a, and every vertex of higher degree, has G - a checked
    exactly, so the answer never depends on the labels.  On bounded degree
    this is O(n + m) unless labels collide or a 2-vertex cut is found.
    """
    tree = _biconnected_tree(G)
    if tree is None:
        return False
    label = _cut_labels(G, *tree)
    cleared: set[int] = set()  # vertices v with G - v known 2-connected

    def clear(v: int) -> bool:
        if _biconnected_tree(G, v) is None:
            return False
        cleared.add(v)
        return True

    # XOR -> [(v, mask)] for the splits with two or more edges on each side
    filed: dict[int, list[tuple[int, int]]] = {}
    for v in range(G.n):
        incident = G._incident[v]
        if len(incident) > _SCREEN_MAX_DEGREE:
            if not clear(v):
                return False
            continue
        if len(incident) <= 3:
            continue
        full = (1 << len(incident)) - 1
        xor = [0] * full
        # The subsets without v's first edge, short of all the others.
        for mask in range(2, full - 1, 2):
            lowest = mask & -mask
            x = xor[mask] = xor[mask ^ lowest] ^ label[incident[lowest.bit_length() - 1]]
            if mask != lowest:
                filed.setdefault(x, []).append((v, mask))
    if filed or len(set(label)) < G.m:
        shared = {x for x, count in Counter(label).items() if count > 1}
        for eid, x in enumerate(label):
            if x in filed or x in shared:
                filed.setdefault(x, []).extend(
                    (w, 1 << G._incident[w].index(eid)) for w in G.edges[eid]
                )
    for entries in filed.values():
        for (a, a_mask), (b, b_mask) in combinations(entries, 2):
            if (
                a != b
                and a not in cleared
                and b not in cleared
                and _may_face_component(G, a, a_mask, b)
                and _may_face_component(G, b, b_mask, a)
                and not clear(a)
            ):
                return False
    return True


def is_k_connected(G: Multigraph, k: int) -> bool:
    """Whether vertex_connectivity(G) >= k, without computing it for k <= 3.

    k <= 1 is a connectivity test and k = 2 one low-point search.  k = 3
    requires n >= 4, G 2-connected and G - v 2-connected for every vertex v;
    edge labels (see _is_3_connected) skip the vertices that cannot be in a
    2-vertex cut: O(n (n + m)) at worst, and on a cubic graph whose labels
    are all distinct, one search and the labels, with no split filed and no
    pair tested.  Larger k uses vertex_connectivity.
    """
    if k <= 0:
        return True
    if G.n <= k:  # vertex connectivity never exceeds n - 1
        return False
    if k == 1:
        return G.is_connected()
    if k == 2:
        return _biconnected_tree(G) is not None
    if k == 3:
        return _is_3_connected(G)
    return vertex_connectivity(G) >= k
