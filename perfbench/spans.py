"""Spans and counts at the library's module boundaries, recorded from outside.

`Tracer.install` replaces every public library function in every module
namespace that looks it up (the importing module's binding and the defining
module's own global) with a wrapper that records one span: name, parent,
operation, start, end, and a few counts read from the return value.  Nothing
under `src/` changes; `Tracer.uninstall` restores the original bindings.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from typing import Any, Callable, Optional

MODULES = (
    "cli", "cycles", "expansion", "factors", "families", "gadgets",
    "instances", "multigraph", "orientation", "pipelines", "solver",
)

# Counts read from a wrapped call's return value, keyed by span name.
_COUNTS: dict[str, Callable[[Any], dict[str, Any]]] = {
    "solver.constrained_perfect_matching": lambda v: {"nodes": v.nodes_explored, "status": v.status},
    "solver.two_cut_recursion": lambda v: {"nodes": v.nodes_explored, "status": v.status},
    "solver.t_factor_oracle": lambda v: {"nodes": v.nodes_explored, "status": v.status},
    "multigraph.two_edge_cut_sides": lambda cuts: {"cuts": len(cuts)},
    "expansion.cubic_expansion": lambda res: {"edges": res[0].expanded.m},
    "instances.pack_cycles": lambda cycles: {"cycles": len(cycles)},
}


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process.

    A span is the list [name, parent index or -1, operation or None, start,
    end, counts]; operation None marks workload set-up, and counts stays
    None when the call raised.
    """

    def __init__(self):
        self.spans: list[list[Any]] = []
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, Any]] = []

    def install(self):
        modules = [importlib.import_module(f"cyclehit.{name}") for name in MODULES]
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                home = sys.modules.get(fn.__module__)
                if home is None or not fn.__module__.startswith("cyclehit."):
                    continue
                if attr not in getattr(home, "__all__", ()):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                self._patches.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        counts = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[5] = counts(result) if counts is not None else {}
                return result
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return traced


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Children of one span run one after another, so they never overlap."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_metrics(spans: list[list[Any]], traced_passes: int) -> dict[str, float]:
    """Per-layer metrics: times and counts per pass of the operation list
    (for the one traced set-up, for `instances.*` and `families.*`), and
    ratios with the numerator and denominator reported beside each."""
    own = self_times(spans)
    setup = [i for i, s in enumerate(spans) if s[2] is None]
    ops = [i for i, s in enumerate(spans) if s[2] is not None]

    def pick(idx, *names):
        return [i for i in idx if spans[i][0] in names]

    def total(idx):
        return sum(spans[i][4] - spans[i][3] for i in idx)

    def count(idx, key):
        return sum((spans[i][5] or {}).get(key, 0) for i in idx)

    per_pass = 1.0 / traced_passes
    rrm = pick(setup, "instances.random_regular_multigraph")
    rrm_set = set(rrm)
    checks = [i for i in pick(setup, "multigraph.vertex_connectivity") if spans[i][1] in rrm_set]
    accepted = [i for i in rrm if spans[i][5] is not None]
    cut_calls = pick(ops, "multigraph.two_edge_cut_sides")
    oracle = pick(ops, "solver.t_factor_oracle")
    decided = [i for i in oracle if spans[i][5] and spans[i][5]["status"] != "BUDGET_EXCEEDED"]
    oracle_s = total(oracle)
    oracle_nodes = count(oracle, "nodes")
    cuts_listed = count(cut_calls, "cuts")
    cuts_used = sum(1 for i in cut_calls if (spans[i][5] or {}).get("cuts", 0) > 0)
    decided_nodes = count(decided, "nodes")

    return {
        "instances.random_regular_multigraph_s": total(rrm),
        "instances.connectivity_checks": len(checks),
        "instances.graphs_accepted": len(accepted),
        "instances.connectivity_checks_per_graph": len(checks) / len(accepted) if accepted else 0.0,
        "instances.pack_cycles_s": total(pick(setup, "instances.pack_cycles")),
        "instances.cycles_packed": count(pick(setup, "instances.pack_cycles"), "cycles"),
        "families.build_s": total(pick(setup, "families.gen_thm4", "families.gen_thm5", "families.gen_sec6_2k")),
        "multigraph.parse_s": total(pick(ops, "multigraph.parse_multigraph")) * per_pass,
        "multigraph.vertex_connectivity_s": total(pick(ops, "multigraph.vertex_connectivity")) * per_pass,
        "multigraph.vertex_connectivity_calls": len(pick(ops, "multigraph.vertex_connectivity")) * per_pass,
        "multigraph.two_edge_cut_sides_s": total(cut_calls) * per_pass,
        "multigraph.two_edge_cut_sides_calls": len(cut_calls) * per_pass,
        "multigraph.cuts_listed": cuts_listed * per_pass,
        "cycles.parse_s": total(pick(ops, "cycles.parse_cycles")) * per_pass,
        "cycles.cycle_decomposition_s": total(pick(ops, "cycles.cycle_decomposition")) * per_pass,
        "gadgets.build_s": total(pick(ops, "gadgets.build_gadget_tree", "gadgets.build_even_leaf_tree")) * per_pass,
        "expansion.cubic_expansion_s": total(pick(ops, "expansion.cubic_expansion")) * per_pass,
        "expansion.expanded_edges": count(pick(ops, "expansion.cubic_expansion"), "edges") * per_pass,
        "expansion.split_expansion_s": total(pick(ops, "expansion.split_expansion")) * per_pass,
        "expansion.project_factor_s": total(pick(ops, "expansion.project_factor")) * per_pass,
        "solver.matching_s": total(pick(ops, "solver.constrained_perfect_matching")) * per_pass,
        "solver.matching_nodes": count(pick(ops, "solver.constrained_perfect_matching"), "nodes") * per_pass,
        "solver.two_cut_recursion_self_s": sum(own[i] for i in pick(ops, "solver.two_cut_recursion")) * per_pass,
        "solver.two_cut_recursion_nodes": count(pick(ops, "solver.two_cut_recursion"), "nodes") * per_pass,
        "solver.cuts_used": cuts_used * per_pass,
        "solver.cut_use_ratio": cuts_used / cuts_listed if cuts_listed else 0.0,
        "solver.oracle_s": oracle_s * per_pass,
        "solver.oracle_nodes": oracle_nodes * per_pass,
        "solver.nodes_per_s": oracle_nodes / oracle_s if oracle_s else 0.0,
        "solver.decided_nodes": decided_nodes * per_pass,
        "solver.decided_node_share": decided_nodes / oracle_nodes if oracle_nodes else 0.0,
        "solver.bipartite_matching_s": total(pick(ops, "solver.bipartite_alternating_matching")) * per_pass,
        "factors.verify_s": total(pick(ops, "factors.verify_factor", "factors.verify_intersections")) * per_pass,
        "factors.two_factorization_s": total(pick(ops, "factors.two_factorization")) * per_pass,
        "factors.serialize_s": total(pick(ops, "factors.serialize_factor")) * per_pass,
        "orientation.verify_s": total(pick(ops, "orientation.verify_orientation")) * per_pass,
        "pipelines.self_s": sum(own[i] for i in pick(
            ops, "pipelines.third_pipeline", "pipelines.third_arbitrary_pipeline",
            "pipelines.half_pipeline", "pipelines.half_arbitrary_pipeline")) * per_pass,
        "pipelines.orient_self_s": sum(own[i] for i in pick(ops, "pipelines.orient_even_indegree")) * per_pass,
        "pipelines.extend_factor_self_s": sum(own[i] for i in pick(ops, "pipelines.extend_factor")) * per_pass,
        "cli.self_s": sum(own[i] for i in pick(ops, "cli.main")) * per_pass,
        "trace.self_sum_s": sum(own[i] for i in ops) * per_pass,
    }
