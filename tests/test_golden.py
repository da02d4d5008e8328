"""Golden corpus of CLI runs: every case in golden/cases.json runs through
`cyclehit.cli.main` in a fresh working directory holding a copy of
golden/inputs/, and must reproduce byte for byte the exit code, stdout, the
stderr of input errors (exit 2), and every file it writes under out/, as
stored in golden/expected/<case>/.

To rewrite the expected outputs from the current code, run

    PYTHONPATH=src python tests/test_golden.py --update

and review the diff: every change to a golden output is a change in
behaviour.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from cyclehit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_case(case: dict, cwd: Path) -> tuple[int, dict[str, str]]:
    """Run one case in cwd; returns its exit code and the outputs to
    compare, keyed by their path under golden/expected/<case>/."""
    shutil.copytree(GOLDEN / "inputs", cwd / "inputs")
    (cwd / "out").mkdir()
    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(case["argv"]))
    finally:
        os.chdir(old)
    got = {"stdout": out.getvalue()}
    if rc == 2:
        got["stderr"] = err.getvalue()
    for path in sorted((cwd / "out").iterdir()):
        got[f"out/{path.name}"] = path.read_text()
    return rc, got


def expected(case: dict) -> dict[str, str]:
    root = GOLDEN / "expected" / case["name"]
    return {
        path.relative_to(root).as_posix(): path.read_text()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden(case, tmp_path):
    rc, got = run_case(case, tmp_path)
    assert rc == case["exit"]
    assert got == expected(case)


def _update():
    import tempfile

    shutil.rmtree(GOLDEN / "expected", ignore_errors=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            rc, got = run_case(case, Path(tmp))
        if rc != case["exit"]:
            sys.exit(f"{case['name']}: exit {rc}, cases.json says {case['exit']}")
        root = GOLDEN / "expected" / case["name"]
        for name, text in got.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)


if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    _update()
