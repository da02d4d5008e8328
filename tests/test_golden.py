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


def _update(cases: list[dict], target: Path):
    """Rerun every case into a fresh tree, and let it replace target only
    when every exit code matches its case; otherwise name each mismatch and
    exit with target untouched."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp) / "expected"
        wrong = []
        for case in cases:
            with tempfile.TemporaryDirectory() as work:
                rc, got = run_case(case, Path(work))
            if rc != case["exit"]:
                wrong.append(f"{case['name']}: exit {rc}, cases.json says {case['exit']}")
            root = fresh / case["name"]
            for name, text in got.items():
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_text(text)
        if wrong:
            sys.exit("\n".join(wrong + [f"{target} is unchanged"]))
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(fresh, target)


def test_update_with_a_mismatch_leaves_expected_untouched(tmp_path):
    """One case whose exit code disagrees with its entry stops the update
    before it writes anything, and every mismatch is named."""
    target = tmp_path / "expected"
    shutil.copytree(GOLDEN / "expected" / CASES[0]["name"], target / CASES[0]["name"])
    before = sorted((p.relative_to(target), p.read_text()) for p in target.rglob("*") if p.is_file())
    wrong = [dict(CASES[1], exit=CASES[1]["exit"] + 1), dict(CASES[2], exit=CASES[2]["exit"] + 1)]
    with pytest.raises(SystemExit) as stop:
        _update([CASES[0], *wrong, CASES[3]], target)
    assert all(case["name"] in str(stop.value) for case in wrong)
    after = sorted((p.relative_to(target), p.read_text()) for p in target.rglob("*") if p.is_file())
    assert after == before


def test_update_replaces_expected_when_every_exit_matches(tmp_path):
    target = tmp_path / "expected"
    (target / "stale").mkdir(parents=True)
    (target / "stale" / "stdout").write_text("old\n")
    _update(CASES[:2], target)
    assert sorted(p.name for p in target.iterdir()) == sorted(c["name"] for c in CASES[:2])
    for case in CASES[:2]:
        assert {
            p.relative_to(target / case["name"]).as_posix(): p.read_text()
            for p in (target / case["name"]).rglob("*") if p.is_file()
        } == expected(case)


if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    _update(CASES, GOLDEN / "expected")
