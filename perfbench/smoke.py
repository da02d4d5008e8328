"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload it runs the benchmark untraced and traced and checks
that each run is correct, prints exactly the metrics named in
BENCHMARK.json with their units, gives the same outputs traced and untraced
(run.py fails a run whose passes differ), and has per-layer self times that
sum to no more than the traced wall time.  It also checks that the
benchmark's own witness check rejects broken witnesses.  Exits non-zero on
the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(condition: bool, message: str):
    if not condition:
        sys.exit(f"smoke: FAIL {message}")


def witness_check_rejects_bad_witnesses():
    from checks import witness_problem

    # K4: the 4-cycle 0-1-2-3 (edges 0..3) and its diagonals (edges 4, 5).
    graph = (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    cycles = [(0, 1, 4)]
    good = "p fac 1 2\nf 0\nf 2\n"
    check(witness_problem(graph, cycles, good, 1, "hit") is None, "a valid witness was rejected")
    check(witness_problem(graph, cycles, "p fac 1 2\nf 0\nf 1\n", 1, "hit") is not None,
          "a witness with wrong degrees passed")
    check(witness_problem(graph, cycles, "p fac 1 2\nf 2\nf 0\n", 2, "hit") is not None,
          "a witness declaring the wrong t passed")
    check(witness_problem(graph, [(0, 1, 2, 3)], "p fac 1 2\nf 4\nf 5\n", 1, "hit") is not None,
          "a witness missing a cycle passed")
    check(witness_problem(graph, [(0, 1, 4)], "p fac 2 4\nf 0\nf 1\nf 2\nf 3\n", 2, "hit-matching") is not None,
          "a non-matching intersection passed")
    check(witness_problem(graph, [(0, 1, 2, 3)], "p fac 2 4\nf 0\nf 1\nf 2\nf 3\n", 2, "hit-and-cohit") is not None,
          "a fully covered cycle passed as co-hit")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{workload}: {result}")
    return result["metrics"]


def main() -> int:
    sys.path.insert(0, str(HERE))
    witness_check_rejects_bad_witnesses()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    from workloads import WORKLOADS

    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads differ from workloads.py")
    check(set(layers) == {m["name"] for m in bench["per_layer"]}, "layers.json and BENCHMARK.json per_layer differ")
    for workload in WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            metrics = run(workload, trace)
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: v["unit"] for name, v in metrics.items()}
            check(got == want, f"{workload} trace={trace}: metrics/units {got} != {want}")
            if trace:
                check(metrics["trace.self_sum_s"]["value"] <= metrics["trace.wall_s"]["value"],
                      f"{workload}: self times exceed the traced wall time")
        print(f"smoke: {workload} ok")
    print("smoke: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
