"""The benchmark's workloads: seeded inputs, the operation list, and the
expected outcome of every operation.

Every operation is one `cyclehit` command line, run in-process through
`cyclehit.cli.main`.  Inputs are written by the library itself (`cli gen`
for random instances, the `families` builders for threshold families);
the program under test only ever sees the generated files.  Library modules
are imported inside the set-up functions: run.py first puts the checkout's
`src/` on the path, and the tracer's wrappers must be in place when a name
is looked up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from checks import EXIT_BUDGET, EXIT_SAT, EXIT_UNSAT, read_cycles, read_graph, witness_problem

# Node cap for every witness search.  Search time is heavy-tailed, so a
# cap turns a runaway search on an input the paper guarantees SAT into a
# counted exit-3 failure instead of a hang.
SOLVE_MAX_NODES = 1_000_000
# Node cap for the threshold oracle; instances that reach it count as
# undecided in decided_frac, never as failures.  The cap also sets the pass
# time, which is mostly searches that reach it; at 6000 nodes a pass takes
# about 1.5 s, so every operation repeats often enough in a run for its
# median latency to be steady.
ORACLE_MAX_NODES = 6_000


@dataclass(frozen=True)
class Spec:
    """`count` random instances of one pipeline on r-regular graphs."""

    pipeline: str
    r: int
    t: int
    n: int
    count: int
    extra: tuple[str, ...] = ()


# Sizes.  Witness search is heavy-tailed: larger graphs (cubic n=200,
# 6-regular n=50, 4-regular n=100) had seeds that ran out of a 300k-node
# budget.  Cubic n=100 stays well inside the 1M-node cap, but about one seed
# in forty draws an instance of 25k nodes or more, which multiplies that
# seed's unchecked wall time by five or more.  The checked workload's sizes
# give every operation about the same time, so op_p50_ref is the middle of
# one cluster; the connectivity check still dominates each operation.
CHECKED_SPECS = (
    Spec("third", 3, 1, 40, 24, ("--force-edge", "0")),
    Spec("third", 6, 2, 30, 16, ("--force-edge", "0")),
    Spec("half", 4, 2, 30, 16, ("--l", "4")),
)
UNCHECKED_SPECS = (
    Spec("third", 3, 1, 100, 24, ("--force-edge", "0")),
    Spec("third", 6, 2, 30, 16, ("--force-edge", "0")),
    Spec("half", 4, 2, 30, 16, ("--l", "4")),
)
# The cubic instances are the steadiest and the majority, so op_p50_ref
# falls well inside their cluster.
ARB_SPECS = (
    Spec("third-arb", 3, 1, 60, 20),
    Spec("third-arb", 6, 2, 8, 4),
    Spec("half-arb", 4, 2, 12, 4),
)
TINY_SOLVE_SPECS = tuple(Spec(s.pipeline, s.r, s.t, 12, 1, s.extra) for s in CHECKED_SPECS)
TINY_ARB_SPECS = tuple(Spec(s.pipeline, s.r, s.t, 8 if s.r == 3 else 7, 1, s.extra) for s in ARB_SPECS)

# (family, parameter).  thm5 and sec6-2k run at every t up to the family's
# min_sat_t, where SAT below it and UNSAT at it are wrong answers; thm4 is
# built for each t and run at that t, where SAT is a wrong answer.
ORACLE_FAMILIES = (
    [("thm5", r) for r in range(3, 8)]
    + [("sec6-2k", k) for k in range(2, 6)]
    + [("thm4", r) for r in range(3, 7)]
)
TINY_ORACLE_FAMILIES = [("thm5", 3), ("thm5", 4), ("sec6-2k", 2), ("thm4", 3)]


@dataclass
class Op:
    """One command line and what a correct run of it must produce."""

    argv: list[str]
    stem: Path
    out: Path
    t: int
    mode: str
    must_sat: bool = True
    sat_allowed: bool = True
    unsat_allowed: bool = False
    label: str = ""
    graph: tuple[int, list[tuple[int, int]]] = (0, [])
    cycles: list[tuple[int, ...]] = field(default_factory=list)

    def load(self):
        """Read the inputs back with the benchmark's own parsers; done
        after set-up is timed."""
        self.graph = read_graph(self.stem.with_suffix(".mg").read_text())
        self.cycles = read_cycles(self.stem.with_suffix(".cyc").read_text())


def _seeds(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _mode(pipeline: str, extra: tuple[str, ...]) -> str:
    if "--l" in extra:
        return "hit"
    return "hit-and-cohit" if pipeline.startswith("half") else "hit-matching"


def _solve_ops(specs, flags: tuple[str, ...], stems: list[Path]) -> list[Op]:
    ops = []
    for spec, base in zip([s for s in specs for _ in range(s.count)], stems):
        t = int(spec.extra[spec.extra.index("--l") + 1]) if "--l" in spec.extra else spec.t
        out = base.with_suffix(".fac")
        argv = ["solve", "--pipeline", spec.pipeline, "--graph", str(base.with_suffix(".mg")),
                "--cycles", str(base.with_suffix(".cyc")), "--t", str(spec.t), *spec.extra,
                "--out", str(out), "--max-nodes", str(SOLVE_MAX_NODES), *flags]
        ops.append(Op(argv, base, out, t, _mode(spec.pipeline, spec.extra),
                      label=f"{spec.pipeline} r={spec.r} n={spec.n} {base.name}"))
    return ops


def _gen_random(main: Callable, specs, work: Path, rng: random.Random) -> list[Path]:
    """Random instances through `cyclehit gen`; returns the file stems."""
    stems = []
    for si, spec in enumerate(specs):
        for j in range(spec.count):
            stem = work / f"s{si}_{j}"
            seed = rng.randrange(2**31)
            rc = main(["gen", "--family", "random", "--n", str(spec.n), "--r", str(spec.r),
                       "--seed", str(seed), "--out", str(stem.with_suffix(".mg")),
                       "--cycles", str(stem.with_suffix(".cyc"))])
            if rc != 0:
                raise RuntimeError(f"gen exited {rc} for {spec} seed {seed}")
            stems.append(stem)
    return stems


def _gen_3connected(specs, work: Path, rng: random.Random) -> list[Path]:
    """Random 3-connected instances with cycles of any parity.  `cyclehit
    gen` only guarantees 2-connectivity, so these come from the library's
    generator with its connectivity requirement raised to 3."""
    from cyclehit.cycles import serialize_cycles
    from cyclehit.instances import pack_cycles, random_regular_multigraph
    from cyclehit.multigraph import serialize_multigraph

    stems = []
    for si, spec in enumerate(specs):
        for j in range(spec.count):
            stem = work / f"a{si}_{j}"
            G = random_regular_multigraph(spec.n, spec.r, rng.randrange(2**31), min_connectivity=3)
            stem.with_suffix(".mg").write_text(serialize_multigraph(G))
            stem.with_suffix(".cyc").write_text(serialize_cycles(pack_cycles(G, parity=None)))
            stems.append(stem)
    return stems


def setup_solve(specs, flags):
    def setup(main, work: Path, seed: int, tiny: bool) -> list[Op]:
        use = TINY_SOLVE_SPECS if tiny else specs
        stems = _gen_random(main, use, work, _seeds("solve", seed))
        return _solve_ops(use, flags, stems)
    return setup


def setup_arb(main, work: Path, seed: int, tiny: bool) -> list[Op]:
    use = TINY_ARB_SPECS if tiny else ARB_SPECS
    stems = _gen_3connected(use, work, _seeds("arb", seed))
    return _solve_ops(use, (), stems)


def _family(name: str, p: int):
    from cyclehit import families

    if name == "thm5":
        return [(families.gen_thm5(p), None)]
    if name == "sec6-2k":
        return [(families.gen_sec6_2k(p), None)]
    return [(families.gen_thm4(p, t), t) for t in range(1, p - 1)]


def setup_oracle(main, work: Path, seed: int, tiny: bool) -> list[Op]:
    """Threshold families with vertex labels permuted by the seed, and the
    operation order shuffled by it.  Edge ids, and so the search itself,
    are the same for every seed, which keeps decided_frac comparable."""
    from cyclehit.cycles import CycleSet, serialize_cycles
    from cyclehit.multigraph import Multigraph, serialize_multigraph

    rng = _seeds("oracle", seed)
    ops = []
    for name, p in (TINY_ORACLE_FAMILIES if tiny else ORACLE_FAMILIES):
        for inst, thm4_t in _family(name, p):
            G = inst.graph
            perm = list(range(G.n))
            rng.shuffle(perm)
            H = Multigraph(G.n, [(perm[u], perm[v]) for u, v in G.edges])
            stem = work / f"{name}_{p}_{thm4_t or 0}"
            stem.with_suffix(".mg").write_text(serialize_multigraph(H))
            stem.with_suffix(".cyc").write_text(serialize_cycles(CycleSet(H, inst.cycles.cycles)))
            if thm4_t is not None:
                cases = [(thm4_t, False, True)]  # (t, sat_allowed, unsat_allowed)
            else:
                sat_t = inst.meta["min_sat_t"]
                cases = [(t, t >= sat_t, t < sat_t) for t in range(1, sat_t + 1)]
            for t, sat_ok, unsat_ok in cases:
                out = stem.parent / f"{stem.name}_t{t}.fac"
                argv = ["oracle", "--graph", str(stem.with_suffix(".mg")), "--cycles",
                        str(stem.with_suffix(".cyc")), "--t", str(t), "--mode", "hit",
                        "--out", str(out), "--max-nodes", str(ORACLE_MAX_NODES)]
                ops.append(Op(argv, stem, out, t, "hit", must_sat=False,
                              sat_allowed=sat_ok, unsat_allowed=unsat_ok,
                              label=f"{name} p={p} t={t}"))
    rng.shuffle(ops)
    return ops


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Callable[[Callable, Path, int, bool], list[Op]]] = {
    "solve-checked": setup_solve(CHECKED_SPECS, ()),
    "solve-unchecked": setup_solve(UNCHECKED_SPECS, ("--unchecked",)),
    "solve-arb": setup_arb,
    "oracle-threshold": setup_oracle,
}


def outcome_problem(op: Op, rc: Optional[int], stdout: str) -> tuple[Optional[str], bool]:
    """Check one finished operation.  Returns (why it is wrong or None,
    whether it ended decided, i.e. SAT or UNSAT)."""
    if rc is None:
        return "uncaught exception", False
    first = stdout.split()[0] if stdout.split() else ""
    if rc == EXIT_BUDGET:
        if op.must_sat:
            return "budget stop on an input guaranteed SAT", False
        return (None if first == "BUDGET" else f"exit 3 without BUDGET verdict: {stdout.strip()!r}"), False
    if rc == EXIT_UNSAT:
        if not op.unsat_allowed or first != "UNSAT":
            return f"UNSAT (exit 1, stdout {first!r}) where a witness exists", True
        return None, True
    if rc != EXIT_SAT:
        return f"exit code {rc}", False
    if not op.sat_allowed:
        return "SAT below the proven threshold", True
    if op.must_sat and not stdout.startswith(f"ok t={op.t} "):
        return f"unexpected solve output {stdout.strip()!r}", True
    if not op.must_sat and first != "SAT":
        return f"exit 0 without SAT verdict: {stdout.strip()!r}", True
    try:
        text = op.out.read_text()
    except OSError as exc:
        return f"no witness file: {exc}", True
    return witness_problem(op.graph, op.cycles, text, op.t, op.mode), True
