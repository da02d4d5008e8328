"""The exact search engine: degree-constrained subgraphs with cycle-hitting
constraints, optionally through a forced edge.

All searches branch on the lowest undecided edge id, include-branch first,
and propagate forced decisions (degree bounds and one rule on edge sets:
some edge of the set takes a given value), so verdicts and witnesses are
deterministic.  Each mode is the sets its cycles give (see _DegreeSearch).
The search also uses two more sound rules: parallel edges off the
prescribed cycles are interchangeable, and every edge cut around a vertex
pair joined by parallel edges, or across a bridge of the simple graph
underneath, meets a factor with the parity Tutte's f-factor theorem fixes;
these cuts are parity sets of the same engine.  Neither rule changes a
verdict or a witness; they only shrink the search.

A search still undecided at node _LP_NODE (32) pauses there for the LP
relaxation, whose rows every solution meets (the relaxation module sets
them out), and which runs only on an LP within its size cap.  An exact
Farkas certificate ends the search UNSAT, an integral LP point that checks
out is its witness, and otherwise the search resumes where it paused.  So
the witness is the first solution in search order only when the search
ends within _LP_NODE nodes.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional

from . import relaxation
from .cycles import CycleSet
from .factors import MODES, Factor, check_factor
from .multigraph import GraphError, Multigraph, bridge_sides

__all__ = [
    "SAT",
    "UNSAT",
    "BUDGET_EXCEEDED",
    "SearchBudget",
    "OracleVerdict",
    "BudgetExceededError",
    "t_factor_oracle",
]

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"


class BudgetExceededError(RuntimeError):
    """A search ran out of its node or wall-clock budget."""


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.max_seconds is not None and not self.max_seconds > 0:
            raise ValueError("max_seconds must be positive")


@dataclass
class OracleVerdict:
    status: str
    witness: Optional[Factor] = None
    nodes_explored: int = 0

    def summary(self) -> str:
        short = {SAT: "SAT", UNSAT: "UNSAT", BUDGET_EXCEEDED: "BUDGET"}[self.status]
        return f"{short} nodes={self.nodes_explored}"


class _Clock:
    """Node counter and deadline of one t_factor_oracle call's one engine."""

    def __init__(self, budget: Optional[SearchBudget]):
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.deadline = (
            time.monotonic() + budget.max_seconds
            if budget and budget.max_seconds
            else None
        )

    def tick(self):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceededError("node budget exhausted")
        if (
            self.deadline is not None
            and self.nodes % 256 == 0
            and time.monotonic() > self.deadline
        ):
            raise BudgetExceededError("time budget exhausted")


_UNDEC, _IN, _OUT = 0, 1, 2
# Node at which a search pauses for the LP relaxation (whose rows the
# relaxation module sets out), in every mode; a search that ends by then is
# untouched.  The LP reads only the graph, t, the mode, the cycles, the
# forced edges and the cuts of the parity sets that owe even parity before
# any edge is decided, so the node sets when it runs, not what it decides.
# The threshold families' LPs (thm5's in every mode, sec6-2k's through
# those cuts) decide at once, so an early pause saves the nodes before it.
# The pipelines seldom get this far: of the 2,800 searches of solve-checked,
# solve-unchecked and solve-arb at seeds 1-20, 51 reach node 32 (13 reach
# 64); the size cap refuses 41 of those LPs, and 1 of the other 10 decides.
_LP_NODE = 32


class _DegreeSearch:
    """DFS over edge states with unit propagation.

    Constraints: every vertex ends with exactly `t` included edges, and
    every edge set keeps its rule.  A set is an edge list and a value v; its
    rule is that some edge of it takes v, or, for a parity set (v is IN),
    that its IN edges have the set's parity.  A mode is the sets its cycles
    give: each cycle C gives (C, IN); hit-and-cohit adds (C, OUT), and
    hit-matching adds ({e, f}, OUT) for each two consecutive edges e, f of
    C, one pair for a 2-cycle.

    search() also prunes with two rules, built before it starts:

    - parallel-class symmetry: the parallel edges joining two vertices that
      lie on no prescribed cycle and are not forced are interchangeable, so
      the IN edges of each class come first in edge-id order;
    - cut parity (Tutte, Canad. J. Math. 1952): |F & cut(S)| = t|S| (mod 2)
      for every vertex set S.  The parity sets are the cuts of each vertex
      pair joined by two or more parallel edges, and of one side of each
      bridge of the simple graph underneath, unless bridge_parity is off
      (the pipelines turn it off: their expansions of 2-connected graphs
      have no bridge).

    The first solution in search order (lexicographic over edge ids, IN
    before OUT), which search() returns unless its LP stage decides first,
    has its IN edges first in every class, and every solution meets the
    parity rule, so neither rule changes a witness or a verdict.
    """

    def __init__(
        self,
        G: Multigraph,
        t: int,
        cycles: tuple[tuple[int, ...], ...],
        mode: str,
        clock: _Clock,
        bridge_parity: bool = True,
    ):
        if mode == "none":
            cycles = ()  # no cycle constrains anything
        self.G = G
        self.m = G.m
        self.t = t
        self.mode = mode
        self.clock = clock
        self.bridge_parity = bridge_parity
        self.state = bytearray(self.m)
        self.deg_in = [0] * G.n
        self.deg_und = G.degrees()
        self.trail: list[int] = []
        self.cycles = cycles
        self.edge_sets: list[list[int]] = [[] for _ in range(self.m)]
        self.set_cut: list[tuple[int, ...]] = []
        self.set_val: list[int] = []
        self.set_parity: list[bool] = []
        self.set_got: list[int] = []  # edges that took the set's value, plus a parity set's parity
        self.set_und: list[int] = []
        for cyc in cycles:
            self._add_set(cyc, _IN)
            if mode == "hit-and-cohit":
                self._add_set(cyc, _OUT)
            elif mode == "hit-matching":
                k = len(cyc)
                for i in range(k if k > 2 else 1):
                    self._add_set((cyc[i], cyc[(i + 1) % k]), _OUT)
        # Pruning rules, inert until _build_pruning.
        self.next_sib = [-1] * self.m
        self.prev_sib = [-1] * self.m
        self.even_cuts: list[tuple[int, ...]] = []  # cuts of the sets with t|S| even
        self.roots: list[tuple[int, int]] = []  # decisions of one-edge cuts

    def _add_set(self, cut: tuple[int, ...], val: int, odd: Optional[int] = None):
        """Add the rule that some edge of cut takes val, or, with odd
        given, that cut's IN edges number odd mod 2 (val is then IN)."""
        p = len(self.set_cut)
        for f in cut:
            self.edge_sets[f].append(p)
        self.set_cut.append(cut)
        self.set_val.append(val)
        self.set_parity.append(odd is not None)
        self.set_got.append(odd or 0)
        self.set_und.append(len(cut))

    def _build_pruning(self, forced: tuple[int, ...]):
        """Fill in both rules on an all-undecided state.  Forced edges stay
        out of the classes: a forced copy cannot trade places with its
        siblings, so "IN edges first" would wrongly pull the earlier ones in."""
        G, m = self.G, self.m
        sets: list[tuple[tuple[int, ...], int]] = []
        ends = [(u, v) if u < v else (v, u) for u, v in G.edges]
        if len(set(ends)) < m:  # some endpoint pair repeats
            free = [True] * m
            for e in chain(forced, *self.cycles):
                free[e] = False
            # Repeated pairs in order of first appearance, their edges in id
            # order, which is the order of u's incidence list.
            for (u, v), count in Counter(ends).items():
                if count < 2:
                    continue
                ids = [e for e in G._incident[u] if v in G.edges[e]]
                siblings = [e for e in ids if free[e]]
                for a, b in zip(siblings, siblings[1:]):
                    self.next_sib[a] = b
                    self.prev_sib[b] = a
                inner = set(ids)
                cut = tuple(f for f in G._incident[u] + G._incident[v] if f not in inner)
                if cut:
                    sets.append((cut, 0))
        for p, v, size in bridge_sides(G) if self.bridge_parity else ():
            cut = tuple(f for f in G._incident[v] if p in G.edges[f])
            sets.append((cut, self.t * size % 2))
        for cut, odd in sets:
            self._add_set(cut, _IN, odd)
            if len(cut) == 1:
                self.roots.append((cut[0], _IN if odd else _OUT))
        self.even_cuts = [cut for cut, odd in sets if not odd]

    def assign(self, e0: int, val0: int) -> bool:
        """Set an edge and propagate all consequences; False on conflict.

        A vertex's edges are scanned only when its state changes: when it
        reaches t through an IN edge, when it becomes tight (its IN and
        undecided edges number t) through an OUT edge, and at its first
        decided edge, which covers t = 0 and vertices of degree t.  Once a
        scan has queued every undecided edge of a vertex, a later edge there
        adds nothing, so a rescan would only queue the same edges again.
        A set is checked when its undecided edges number one or none.
        The rules are monotone, so any order of propagation reaches the same
        fixpoint, or a conflict."""
        state, trail, t = self.state, self.trail, self.t
        edges, incident = self.G.edges, self.G._incident
        deg_in, deg_und = self.deg_in, self.deg_und
        next_sib, prev_sib = self.next_sib, self.prev_sib
        edge_sets, set_cut, set_val, set_parity, set_got, set_und = (
            self.edge_sets, self.set_cut, self.set_val, self.set_parity, self.set_got, self.set_und
        )
        pending = [(e0, val0)]
        while pending:
            e, val = pending.pop()
            s = state[e]
            if s != _UNDEC:
                if s != val:
                    return False
                continue
            state[e] = val
            trail.append(e)
            # All counters must be updated before any conflict return, or
            # undo_to would rewind increments that never happened.
            u, v = edges[e]
            deg_und[u] -= 1
            deg_und[v] -= 1
            if val == _IN:
                deg_in[u] += 1
                deg_in[v] += 1
            for p in edge_sets[e]:
                set_und[p] -= 1
                if val == set_val[p]:
                    set_got[p] += 1
            for w in (u, v):
                d_in, d_und = deg_in[w], deg_und[w]
                if d_in > t or d_in + d_und < t:
                    return False
                if not d_und:
                    continue
                if d_in == t and (val == _IN or d_und + 1 == len(incident[w])):
                    implied = _OUT
                elif d_in + d_und == t and (val == _OUT or d_und + 1 == len(incident[w])):
                    implied = _IN
                else:
                    continue
                for f in incident[w]:
                    if state[f] == _UNDEC:
                        pending.append((f, implied))
            sib = next_sib[e] if val == _OUT else prev_sib[e]
            if sib >= 0:
                pending.append((sib, val))
            for p in edge_sets[e]:
                left = set_und[p]
                if left > 1:
                    continue
                # A set owes its value while none of its edges took it, or,
                # for a parity set, while its IN edges have the wrong parity.
                parity = set_parity[p]
                owed = set_got[p] & 1 if parity else not set_got[p]
                if not left:
                    if owed:
                        return False
                elif owed or parity:
                    for f in set_cut[p]:
                        if state[f] == _UNDEC:
                            pending.append((f, set_val[p] if owed else _OUT))
                            break
        return True

    def undo_to(self, mark: int):
        state, trail = self.state, self.trail
        edges, deg_in, deg_und = self.G.edges, self.deg_in, self.deg_und
        edge_sets, set_val, set_got, set_und = self.edge_sets, self.set_val, self.set_got, self.set_und
        for e in trail[mark:]:
            val = state[e]
            state[e] = _UNDEC
            u, v = edges[e]
            deg_und[u] += 1
            deg_und[v] += 1
            if val == _IN:
                deg_in[u] -= 1
                deg_in[v] -= 1
            for p in edge_sets[e]:
                set_und[p] += 1
                if val == set_val[p]:
                    set_got[p] -= 1
        del trail[mark:]

    def search(self, forced_in: Iterable[int] = ()) -> Optional[tuple[int, ...]]:
        """The first solution in search order with every forced edge IN, or
        None once the space is exhausted: branch on the lowest undecided
        edge, IN first.  Iterative, so the depth of the search does not
        touch the interpreter stack.  A search still undecided at node
        _LP_NODE pauses there for the LP relaxation, which refuses an LP
        over its size cap: a Farkas certificate ends the search with None,
        an integral LP point that is a solution is returned instead of the
        first one, and anything else resumes the search where it paused."""
        forced = tuple(forced_in)
        self._build_pruning(forced)
        pause, t = _LP_NODE, self.t
        if any(d < t for d in self.deg_und) or (self.G.n * t) % 2 == 1:
            return None
        for e, val in self.roots + [(e, _IN) for e in forced]:
            if not self.assign(e, val):
                return None
        state, trail, m, clock = self.state, self.trail, self.m, self.clock
        assign, undo_to, tick = self.assign, self.undo_to, clock.tick
        open_nodes: list[tuple[int, int]] = []  # (edge, trail mark) left to try OUT
        e = 0
        while True:
            e = state.find(_UNDEC, e)
            if e < 0:
                return tuple(i for i in range(m) if state[i] == _IN)
            tick()
            if clock.nodes == pause:
                decided, ids = relaxation.decide(
                    self.G, t, self.cycles, forced, self.even_cuts, self.mode)
                if decided:
                    return ids
            open_nodes.append((e, len(trail)))
            if assign(e, _IN):
                e += 1
                continue
            while open_nodes:
                e, mark = open_nodes.pop()
                undo_to(mark)
                if assign(e, _OUT):
                    e += 1
                    break
            else:
                return None


def t_factor_oracle(
    G: Multigraph,
    t: int,
    O: Optional[CycleSet] = None,
    mode: str = "none",
    budget: Optional[SearchBudget] = None,
    forced_edge: Optional[int] = None,
    *,
    bridge_parity: bool = True,
) -> OracleVerdict:
    """Exact backtracking oracle for t-factors meeting a cycle set, through
    forced_edge if it is given.

    SAT returns a witness that check_factor has passed; UNSAT is a proof of
    nonexistence (the space was exhausted, or an exact Farkas certificate
    holds for the LP relaxation, whose rows every solution meets, as the
    relaxation module sets out); budget exhaustion is reported as its own
    status, never as UNSAT.  The witness is the first one in search
    order when the search ends within _LP_NODE nodes (32); past that node,
    it may be an integral point of the LP relaxation instead, when that LP
    is within its size cap.

    bridge_parity=False leaves G's bridges out of the cut-parity rule (see
    _DegreeSearch): the same verdict, perhaps in more nodes, and on a
    bridgeless G the same search without the bridge search.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if O is None and mode != "none":
        raise GraphError(f"mode {mode} needs --cycles")
    if t < 0:
        raise GraphError("t must be non-negative")
    if O is not None and O.host != G:
        raise GraphError("cycle set does not belong to this graph")
    forced = () if forced_edge is None else (forced_edge,)
    if forced and not 0 <= forced_edge < G.m:
        raise GraphError(f"edge id {forced_edge} out of range")
    clock = _Clock(budget)
    engine = _DegreeSearch(G, t, tuple(O or ()), mode, clock, bridge_parity)
    try:
        ids = engine.search(forced_in=forced)
    except BudgetExceededError:
        return OracleVerdict(BUDGET_EXCEEDED, None, clock.nodes)
    if ids is None:
        return OracleVerdict(UNSAT, None, clock.nodes)
    return OracleVerdict(SAT, check_factor(Factor(G, t, ids), O, mode, forced), clock.nodes)
