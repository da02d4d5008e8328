"""Top-level constructive pipelines.

third_pipeline: t-factor of a 3t-regular graph meeting every prescribed
cycle in a non-empty matching: through a prescribed edge for odd cycles on
2-connected input, or, with arbitrary=True, for cycles of any length >= 3
on 3-connected input.
half_pipeline: t-factor (t even) of a 2t-regular graph meeting and
co-meeting every prescribed cycle, and the even-indegree orientation it
splits; odd cycles on 2-connected input, or arbitrary=True as above.
Both solve one cycle-hitting perfect matching of a cubic expansion with the
exact search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .cycles import CycleSet
from .expansion import cubic_expansion, split_factor
from .factors import Factor, _two_factors, check_factor, verify_factor
from .gadgets import GadgetTree, build_even_leaf_tree, build_gadget_tree
from .multigraph import GraphError, Multigraph, is_k_connected
from .orientation import Orientation, balanced_orientation, verify_orientation
from .solver import (
    SAT,
    UNSAT,
    BudgetExceededError,
    SearchBudget,
    t_factor_oracle,
)

__all__ = [
    "PipelineReport",
    "third_pipeline",
    "half_pipeline",
    "extend_factor",
]


@dataclass
class PipelineReport:
    factor: Factor
    nodes: int = 0  # search nodes of the matching on the cubic expansion
    orientation: Optional[Orientation] = None


def _require(condition: bool, message: str):
    if not condition:
        raise GraphError(message)


def _check_common(
    G: Multigraph,
    O: CycleSet,
    regularity: int,
    checked: bool,
    arbitrary: bool,
):
    """O must be a cycle set of G, and G regularity-regular; then odd
    cycles on 2-connected input, or with arbitrary=True cycles of any length
    >= 3 on 3-connected input.  checked=False skips only the connectivity
    and parity checks, so no gadget tree is built for a graph that cannot
    take it."""
    if arbitrary:
        _require(O.min_length() >= 3 or len(O) == 0, "2-cycles are not allowed here")
    _require(O.host == G, "cycle set does not belong to this graph")
    _require(G.is_regular() == regularity, f"graph must be {regularity}-regular")
    if not checked:
        return
    connectivity = 3 if arbitrary else 2
    _require(is_k_connected(G, connectivity), f"graph must be {connectivity}-connected")
    if not arbitrary:
        _require(O.all_odd(), "all prescribed cycles must be odd")


def _match_expansion(G: Multigraph, O: CycleSet, tree: GadgetTree, budget: Optional[SearchBudget],
                     e: Optional[int], what: str) -> tuple[tuple[int, ...], int]:
    """G's edges in a cycle-hitting perfect matching, through edge e if it
    is given, of the cubic expansion of G by tree, and the search's node
    count.  The expansion keeps G's edge ids, so G's are those below G.m.
    The expansion of a 2-connected graph has no bridge, so the search
    leaves out bridge parity, which changes no verdict."""
    xmap, induced = cubic_expansion(G, O, tree)
    verdict = t_factor_oracle(xmap.expanded, 1, induced, "hit", budget, e, bridge_parity=False)
    if verdict.status == SAT:
        return tuple(f for f in verdict.witness.edge_ids if f < G.m), verdict.nodes_explored
    if verdict.status == UNSAT:
        # Guaranteed SAT when the preconditions hold, so this is a breach.
        raise GraphError(f"{what} is unsolvable; the input violates a precondition")
    raise BudgetExceededError(f"{what} exceeded the search budget")


def third_pipeline(
    G: Multigraph,
    O: CycleSet,
    e: Optional[int],
    t: int,
    budget: Optional[SearchBudget] = None,
    checked: bool = True,
    arbitrary: bool = False,
) -> PipelineReport:
    """t-factor through edge e whose intersection with every prescribed odd
    cycle is a non-empty matching (G 2-connected and 3t-regular).

    With arbitrary=True, e must be None, cycles of any length >= 3 are
    accepted, and G must be 3-connected.  checked=False skips only the
    connectivity and parity checks.
    """
    _require(t >= 1, "t must be a positive integer")
    if arbitrary:
        _require(e is None, "the arbitrary third pipeline takes no forced edge")
    else:
        _require(e is not None, "the third pipeline needs a forced edge")
        _require(0 <= e < G.m, f"edge id {e} out of range")
    _check_common(G, O, 3 * t, checked, arbitrary)
    ids, nodes = _match_expansion(G, O, build_gadget_tree(t), budget, e, "expanded matching instance")
    F = check_factor(Factor(G, t, ids), O, "hit-matching", () if e is None else (e,))
    return PipelineReport(factor=F, nodes=nodes)


def half_pipeline(
    G: Multigraph,
    O: CycleSet,
    t: int,
    budget: Optional[SearchBudget] = None,
    checked: bool = True,
    arbitrary: bool = False,
) -> PipelineReport:
    """t-factor (t even) sharing an edge with every prescribed cycle and
    leaving an edge of each out (G 2-connected and 2t-regular), split from
    the orientation the report also holds: the balanced orientation, in
    which every prescribed cycle is directed, with the original edges of a
    cycle-hitting perfect matching of the cubic expansion by even-leaf
    gadget trees flipped, so every indegree is even and no prescribed cycle
    is oriented.  With arbitrary=True, cycles of any length >= 3 are
    accepted and G must be 3-connected.  checked=False skips only the
    connectivity and parity checks."""
    _require(t >= 2 and t % 2 == 0, "t must be an even integer >= 2")
    _check_common(G, O, 2 * t, checked, arbitrary)
    D = balanced_orientation(G, O)
    tree = build_even_leaf_tree(2 * t)
    ids, nodes = _match_expansion(G, O, tree, budget, None, "orientation matching instance")
    flipped = D.flipped(ids)
    if not verify_orientation(G, flipped, O):
        raise AssertionError("orientation postcondition failed")
    F = check_factor(split_factor(G, flipped, O, t), O, "hit-and-cohit")
    return PipelineReport(factor=F, nodes=nodes, orientation=flipped)


def extend_factor(G: Multigraph, F: Factor, l: int) -> Factor:
    """Grow a t-factor of an r-regular graph to an l-factor containing it,
    for any l of the same parity with t <= l <= r, by adding 2-factors of
    the (r - t)-regular complement, which Petersen's 2-factor theorem splits
    only when r - t is even.  At l = r the result is every edge, the union
    of all those 2-factors, so none is peeled."""
    r = G.is_regular()
    _require(r is not None, "graph must be regular")
    _require(F.host == G, "factor does not belong to this graph")
    _require(verify_factor(G, F, F.t), "input is not a valid t-factor")
    _require((r - F.t) % 2 == 0, f"r - t must be even to extend, got r={r} and t={F.t}")
    _require(
        F.t <= l <= r and (l - F.t) % 2 == 0,
        f"l must lie in {{t, t+2, ..., {r}}}, got l={l}",
    )
    if l == F.t:
        return F
    if l == r:
        return Factor(G, l, tuple(range(G.m)))
    fset = F.edge_set()
    rest_ids = [e for e in range(G.m) if e not in fset]
    rest = Multigraph(G.n, [G.edges[e] for e in rest_ids])
    needed = (l - F.t) // 2
    extra: list[int] = []
    for two_factor in islice(_two_factors(rest), needed):
        extra.extend(rest_ids[e] for e in two_factor.edge_ids)
    return check_factor(Factor(G, l, tuple(sorted(fset | set(extra)))))
