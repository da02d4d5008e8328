"""Command-line entry point.

Subcommands: gen, solve, oracle, verify, orient, check.
Exit codes: 0 success/SAT/true, 1 UNSAT/false, 2 usage or input error,
3 search budget exceeded, 4 internal error (a bug, never a verdict).  All
output is deterministic; randomized generation is driven entirely by --seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from typing import Optional

from .cycles import CycleSet, parse_cycles
from .factors import MODES, check_factor, parse_factor, serialize_factor, verify_factor, verify_intersections
from .families import FamilyInstance, gen_doubled, gen_sec6_2k, gen_thm4, gen_thm5, petersen, petersen_cycles
from .instances import pack_cycles, random_regular_multigraph
from .multigraph import GraphError, Multigraph, parse_multigraph, vertex_connectivity
from .orientation import parse_orientation, serialize_orientation, verify_orientation
from .pipelines import extend_factor, half_pipeline, third_pipeline
from .solver import SAT, UNSAT, BudgetExceededError, SearchBudget, t_factor_oracle

__all__ = ["main"]

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

PIPELINES = ("third", "half", "third-arb", "half-arb")
# Each family, with the options it needs in the order its error names them.
FAMILIES = {"thm4": ("r", "t"), "thm5": ("r",), "sec6-2k": ("k",),
            "doubled": ("base",), "petersen": (), "random": ("n", "r")}


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise GraphError(f"cannot write {path}: {exc}") from exc


def _load_graph(path: str) -> Multigraph:
    return parse_multigraph(_read(path))


def _load_cycles(path: Optional[str], G: Multigraph) -> Optional[CycleSet]:
    if path is None:
        return None
    return parse_cycles(_read(path), G)


def _budget(args) -> Optional[SearchBudget]:
    if args.max_nodes is None and args.max_seconds is None:
        return None
    return SearchBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, built once per
    process: a build takes over ten times as long as a parse, and parsing
    leaves a parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="cyclehit",
        description="t-factors of regular multigraphs meeting prescribed cycle sets",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    subparsers = {}

    p = subparsers["gen"] = sub.add_parser("gen", help="generate a named family instance")
    p.set_defaults(run=_cmd_gen)
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--r", type=int, help="regularity parameter (thm4, thm5, random)")
    p.add_argument("--t", type=int, help="target factor degree (thm4)")
    p.add_argument("--k", type=int, help="bundle width parameter (sec6-2k)")
    p.add_argument("--n", type=int, help="vertex count (random)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (random)")
    p.add_argument("--parity", choices=("odd", "even", "any"), default="odd",
                   help="cycle-packing parity (random)")
    p.add_argument("--base", help="base .mg file (doubled)")
    p.add_argument("--out", required=True, help="output .mg path")
    p.add_argument("--cycles", required=True, help="output .cyc path")

    p = subparsers["solve"] = sub.add_parser("solve", help="run a constructive pipeline")
    p.set_defaults(run=_cmd_solve)
    p.add_argument("--pipeline", required=True, choices=PIPELINES)
    p.add_argument("--graph", required=True)
    p.add_argument("--cycles", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--l", type=int, help="extend the witness to an l-factor")
    p.add_argument("--force-edge", type=int, help="edge id to force (pipeline third)")
    p.add_argument("--out", help="output .fac path")
    p.add_argument("--out-orientation", help="output .ori path (half pipelines)")
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--max-seconds", type=float)
    p.add_argument("--unchecked", action="store_true",
                   help="skip the connectivity and parity checks")

    p = subparsers["oracle"] = sub.add_parser("oracle", help="exact brute-force t-factor oracle")
    p.set_defaults(run=_cmd_oracle)
    p.add_argument("--graph", required=True)
    p.add_argument("--cycles")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default="none")
    p.add_argument("--out", help="write the SAT witness as .fac")
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--max-seconds", type=float)

    p = subparsers["verify"] = sub.add_parser("verify", help="check a factor file against a graph")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--graph", required=True)
    p.add_argument("--factor", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--cycles")
    p.add_argument("--mode", choices=MODES, default="none")

    p = subparsers["orient"] = sub.add_parser("orient", help="even-indegree orientation avoiding oriented cycles")
    p.set_defaults(run=_cmd_orient)
    p.add_argument("--graph", required=True)
    p.add_argument("--cycles", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--arbitrary", action="store_true",
                   help="allow cycles of any length >= 3 (3-connected input)")
    p.add_argument("--out", help="output .ori path")
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--max-seconds", type=float)
    p.add_argument("--unchecked", action="store_true",
                   help="skip the connectivity and parity checks")

    p = subparsers["check"] = sub.add_parser("check", help="parse inputs and report basic invariants")
    p.set_defaults(run=_cmd_check)
    p.add_argument("--graph", required=True)
    p.add_argument("--cycles")
    p.add_argument("--orientation")
    return parser, subparsers


def _cmd_gen(args) -> int:
    needs = FAMILIES[args.family]
    if any(getattr(args, name) is None for name in needs):
        raise GraphError(f"family {args.family} needs " + " and ".join(f"--{name}" for name in needs))
    if args.family == "thm4":
        inst = gen_thm4(args.r, args.t)
    elif args.family == "thm5":
        inst = gen_thm5(args.r)
    elif args.family == "sec6-2k":
        inst = gen_sec6_2k(args.k)
    elif args.family == "doubled":
        inst = gen_doubled(_load_graph(args.base))
    elif args.family == "petersen":
        G = petersen()
        inst = FamilyInstance(G, petersen_cycles(G), {"name": "petersen"})
    else:  # random
        G = random_regular_multigraph(args.n, args.r, args.seed)
        O = pack_cycles(G, parity=None if args.parity == "any" else args.parity)
        inst = FamilyInstance(G, O, {"name": "random", "n": args.n, "r": args.r, "seed": args.seed})
    mg_text, cyc_text = inst.serialize()
    _write(args.out, mg_text)
    _write(args.cycles, cyc_text)
    print(f"gen {args.family} n={inst.graph.n} m={inst.graph.m} cycles={len(inst.cycles)}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    G = _load_graph(args.graph)
    O = _load_cycles(args.cycles, G)
    budget = _budget(args)
    checked = not args.unchecked
    arbitrary = args.pipeline.endswith("-arb")
    if args.pipeline.startswith("third"):
        if args.out_orientation is not None:
            raise GraphError("--out-orientation is only supported by the half pipelines")
        report = third_pipeline(G, O, args.force_edge, args.t, budget=budget,
                                checked=checked, arbitrary=arbitrary)
        mode = "hit-matching"
    else:
        if args.force_edge is not None:
            raise GraphError("--force-edge is only supported by pipeline third")
        report = half_pipeline(G, O, args.t, budget=budget, checked=checked,
                               arbitrary=arbitrary)
        mode = "hit-and-cohit"
    F = report.factor
    if args.l is not None:
        F = extend_factor(G, F, args.l)
        mode = "hit"
    check_factor(F, O, mode)  # the final factor, re-checked apart from the pipeline
    if args.out:
        _write(args.out, serialize_factor(F))
    if args.out_orientation:
        _write(args.out_orientation, serialize_orientation(report.orientation))
    print(f"ok t={F.t} hits={mode} nodes={report.nodes}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    G = _load_graph(args.graph)
    O = _load_cycles(args.cycles, G)
    verdict = t_factor_oracle(G, args.t, O, args.mode, budget=_budget(args))
    if verdict.status == SAT and args.out:
        _write(args.out, serialize_factor(verdict.witness))
    print(verdict.summary())
    if verdict.status == SAT:
        return EXIT_OK
    if verdict.status == UNSAT:
        return EXIT_FALSE
    return EXIT_BUDGET


def _cmd_verify(args) -> int:
    if args.mode != "none" and args.cycles is None:
        raise GraphError(f"mode {args.mode} needs --cycles")
    G = _load_graph(args.graph)
    O = _load_cycles(args.cycles, G)
    F = parse_factor(_read(args.factor), G)
    if F.t != args.t:
        raise GraphError(f"factor file declares t={F.t}, expected t={args.t}")
    ok = verify_factor(G, F, args.t)
    if ok and args.mode != "none":
        ok = verify_intersections(F, O, args.mode)
    print("true" if ok else "false")
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_orient(args) -> int:
    G = _load_graph(args.graph)
    O = _load_cycles(args.cycles, G)
    D = half_pipeline(G, O, args.t, budget=_budget(args),
                      checked=not args.unchecked, arbitrary=args.arbitrary).orientation
    if args.out:
        _write(args.out, serialize_orientation(D))
    print(f"ok t={args.t} oriented m={G.m}")
    return EXIT_OK


def _cmd_check(args) -> int:
    G = _load_graph(args.graph)
    parts = [f"graph n={G.n} m={G.m}"]
    r = G.is_regular()
    parts.append(f"regular={r if r is not None else 'no'}")
    parts.append(f"connectivity={vertex_connectivity(G)}")
    O = _load_cycles(args.cycles, G)
    if O is not None:
        parts.append(f"cycles={len(O)} min_len={O.min_length()}")
    if args.orientation is not None:
        D = parse_orientation(_read(args.orientation), G)
        parts.append(f"orientation=ok even_indegrees={all(d % 2 == 0 for d in D.indegrees())}")
        if O is not None:
            parts.append(f"verified={verify_orientation(G, D, O)}")
    print(" ".join(parts))
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, subparsers = _build_parser()
    try:
        # The subcommand's parser reads what the top-level parser would hand
        # it, so argv is parsed once.  The top-level parser runs only to
        # report what that leaves: no or an unknown subcommand (or --help),
        # and arguments left over.
        name = argv[0] if argv else None
        if name in subparsers:
            args, extra = subparsers[name].parse_known_args(argv[1:])
        if name not in subparsers or extra:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help.
        return int(exc.code or 0)
    try:
        return args.run(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # A failed postcondition, a RecursionError or any other bug must not
        # exit 1, which reads as UNSAT.
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
