"""Seeded end-to-end benchmark of the cyclehit CLI, with an optional traced
run that splits the time by library module.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-checked --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process runs one workload, single-threaded: it generates the inputs from
the seed (several times, to time set-up), then runs the workload's fixed
list of operations through `cyclehit.cli.main` in passes until `--seconds`
have elapsed, and checks every output with the benchmark's own parsers.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and reports per-layer metrics from
spans recorded at the library's module boundaries (see spans.py).

On a shared machine the host's speed drifts by up to a factor of two over
seconds to minutes, and it slows every part of a pure-Python program alike.
So each operation is timed against a fixed reference task (a small graph
search, see `reference_task`) run just before it, and the end-to-end times
are in units of that task: `wall_ref` is the sum over the operation list of
each operation's median latency in references, and `op_p50_ref` is the
median of those latencies.  A program change moves them in proportion; the
host's drift cancels.  The same figures in seconds, which drift with the
host, are on the detail line with the pooled latency percentiles.  The last
line of standard output is one JSON object; details, the environment and
the spans go to `.perfbench_work/results/`.  The exit code is 0 only when
every output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, outcome_problem

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# Set-up is repeated at least SETUP_MIN_REPEATS times, and more while the
# repeats so far took under SETUP_TARGET_S, so small set-ups get a median
# over enough samples to be stable.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_TARGET_S = 1.0

# The reference task's fixed graph: 501 vertices, out-degree 3, all
# reachable from 0.  REFERENCE_ROUNDS searches take about 0.3 ms.
REFERENCE_GRAPH = [[(13 * k + 7 * i + 1) % 501 for k in range(3)] for i in range(501)]
REFERENCE_ROUNDS = 4


def load_cli():
    """Import the library from this checkout's `src/`, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "cyclehit" / "cli.py").is_file():
        sys.exit(f"perfbench: no cyclehit sources under {src}")
    sys.path.insert(0, str(src))
    import cyclehit.cli

    if Path(cyclehit.cli.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: imported cyclehit from {cyclehit.cli.__file__}, not {src}")
    return cyclehit.cli


def environment() -> dict:
    import networkx

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
    }


def call(cli, argv: list[str]) -> tuple[int | None, float, str, str]:
    """Run one command in-process.  An uncaught exception, RecursionError
    included, is returned as exit code None and counts as a failure."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:
        rc = None
        err.write(traceback.format_exc(limit=3))
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def reference_task() -> float:
    """Time one run of the reference task: depth-first searches of a fixed
    graph, with no garbage collection inside, so that the program's heap
    cannot change its time."""
    gc_was_on = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        seen, stack = {0}, [0]
        while stack:
            for v in REFERENCE_GRAPH[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    elapsed = time.perf_counter() - start
    if gc_was_on:
        gc.enable()
    return elapsed


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def set_up(cli, name: str, seed: int, tiny: bool, repeat: bool, failures: list):
    """Generate the inputs into fresh directories, once or (with `repeat`)
    several times; return the set-up times and the operations of the last
    copy.  Every copy must be byte-identical, since the inputs are a
    function of the seed."""
    times, ops, digests, work = [], None, set(), None
    while not times or repeat and len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_TARGET_S):
        i = len(times)
        if work is not None:
            shutil.rmtree(work)
        work = WORK / f"inputs-{name}-{os.getpid()}-{i}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            ops = WORKLOADS[name](cli.main, work, seed, tiny)
        times.append(time.perf_counter() - start)
        digests.add(digest(work.iterdir()))
    if len(digests) != 1:
        failures.append("set-up is not deterministic: inputs differ between repeats")
    for op in ops:
        op.load()
    return times, ops, work


def run_passes(cli, ops, seconds: float, tracer, failures: list) -> list[dict]:
    """Run the operation list in passes until `seconds` have elapsed, each
    operation just after a run of the reference task.  With a tracer,
    passes alternate untraced and traced, at least one of each.  Every pass
    must reproduce the first pass's outputs exactly."""
    passes: list[dict] = []
    reference: list[str | None] = [None] * len(ops)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(passes) < (2 if tracer else 1):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        record = {"traced": traced, "latency": [], "reference": [], "decided": 0, "failed": 0}
        try:
            for i, op in enumerate(ops):
                op.out.unlink(missing_ok=True)
                if tracer is not None:
                    tracer.op = i
                record["reference"].append(reference_task())
                rc, dt, stdout, stderr = call(cli, op.argv)
                record["latency"].append(dt)
                problem, decided = outcome_problem(op, rc, stdout)
                record["decided"] += decided
                output = f"{rc}\n{stdout}" + (op.out.read_text() if op.out.exists() else "")
                if reference[i] is None:
                    reference[i] = output
                elif reference[i] != output and problem is None:
                    problem = f"output differs from the first pass ({'traced' if traced else 'untraced'})"
                if problem is not None:
                    record["failed"] += 1
                    failures.append(f"{op.label}: {problem}; stderr: {stderr.strip()[-300:]}")
        finally:
            if traced:
                tracer.uninstall()
                tracer.op = None
        passes.append(record)
    return passes


def run_workload(args) -> int:
    cli = load_cli()
    name = args.workload
    env = environment()
    failures: list[str] = []
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            setup_times, ops, work = set_up(cli, name, args.seed, args.tiny, False, failures)
        finally:
            tracer.uninstall()
    else:
        setup_times, ops, work = set_up(cli, name, args.seed, args.tiny, True, failures)
    try:
        passes = run_passes(cli, ops, args.seconds, tracer, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p["latency"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    walls = [sum(p["latency"]) for p in plain]
    latencies = sorted(dt for p in plain for dt in p["latency"])
    in_refs = sorted(dt / r for p in plain for dt, r in zip(p["latency"], p["reference"]))
    # Each operation's median latency, in seconds and in references.
    op_s = [statistics.median(p["latency"][i] for p in plain) for i in range(len(ops))]
    op_ref = [statistics.median(p["latency"][i] / p["reference"][i] for p in plain)
              for i in range(len(ops))]
    detail = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "operations_per_pass": len(ops), "passes": len(passes), "op_samples": len(latencies),
        "fail_frac": failed / attempted, "failures": failures[:50], "environment": env,
    }
    detail["reference_task_median_s"] = statistics.median(r for p in plain for r in p["reference"])
    detail["pass_wall_s"] = walls
    detail["wall_s"] = sum(op_s)
    detail["op_p50_s"] = statistics.median(op_s)
    detail["op_pooled_p50_s"] = statistics.median(latencies)
    detail["op_median_s"] = {op.label: v for op, v in zip(ops, op_s)}
    detail["op_median_ref"] = {op.label: v for op, v in zip(ops, op_ref)}
    if len(latencies) > 10:
        # The highest percentile with at least ten samples above it.
        detail["op_tail"] = {"percentile": 100.0 * (len(latencies) - 10) / len(latencies),
                             "seconds": latencies[-11], "ref": in_refs[-11]}
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_ref": sum(op_ref),
            "op_p50_ref": statistics.median(op_ref),
            "decided_frac": sum(p["decided"] for p in passes) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        from spans import layer_metrics

        traced = [p for p in passes if p["traced"]]
        metrics = layer_metrics(tracer.spans, len(traced))
        # Means, like the per-layer metrics, which are totals per pass.
        metrics["trace.wall_s"] = statistics.fmean(sum(p["latency"]) for p in traced)
        metrics["trace.untraced_wall_s"] = statistics.fmean(walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        # Self times partition the traced time, so they can never exceed it.
        if metrics["trace.self_sum_s"] > metrics["trace.wall_s"]:
            failures.append("per-layer self times exceed the traced wall time")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if tracer else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        sys.exit(f"perfbench: measured metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    correct = failed == 0 and not failures
    detail["correct"] = correct
    detail["metrics"] = reported

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        with stem.with_suffix(".spans.jsonl").open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    for line in failures[:20]:
        print(f"FAIL {line}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {name}: {len(ops)} operations per pass, {len(passes)} passes, "
          f"{attempted} attempted, {failed} failed (fail_frac {failed / attempted:.4f}), "
          f"op latency samples {len(latencies)}")
    print(f"  reference task median = {detail['reference_task_median_s']:.6g} s; in seconds: "
          f"wall = {detail['wall_s']:.6g} s, op p50 = {detail['op_p50_s']:.6g} s, "
          f"pooled op latency p50 = {detail['op_pooled_p50_s']:.6g} s")
    if "op_tail" in detail:
        tail = detail["op_tail"]
        print(f"  pooled op latency p{tail['percentile']:.1f} = {tail['ref']:.6g} ref, {tail['seconds']:.6g} s")
    for metric, v in metrics.items():
        samples = f" (median of {len(op_ref)} operations, each the median of {len(walls)} repeats)" \
            if metric == "op_p50_ref" else ""
        print(f"  {metric} = {v:.6g} {units[metric]}{samples}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] &= bool(result["correct"]) and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
