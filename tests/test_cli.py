import shutil
from pathlib import Path
from unittest import mock

import pytest

from cyclehit import parse_factor, parse_multigraph, parse_orientation, parse_cycles
from cyclehit.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_then_oracle_unsat(tmp_path, capsys):
    g = tmp_path / "g.mg"
    c = tmp_path / "g.cyc"
    code, out, _ = run(capsys, "gen", "--family", "thm5", "--r", "4",
                       "--out", str(g), "--cycles", str(c))
    assert code == 0
    code, out, _ = run(capsys, "oracle", "--graph", str(g), "--cycles", str(c),
                       "--t", "1", "--mode", "hit")
    assert code == 1
    assert out.startswith("UNSAT nodes=")
    code, out, _ = run(capsys, "oracle", "--graph", str(g), "--cycles", str(c),
                       "--t", "2", "--mode", "hit")
    assert code == 0
    assert out.startswith("SAT nodes=")


def test_solve_third_petersen(tmp_path, capsys):
    g = tmp_path / "p.mg"
    c = tmp_path / "p.cyc"
    f = tmp_path / "p.fac"
    assert run(capsys, "gen", "--family", "petersen",
               "--out", str(g), "--cycles", str(c))[0] == 0
    code, out, _ = run(capsys, "solve", "--pipeline", "third",
                       "--graph", str(g), "--cycles", str(c),
                       "--t", "1", "--force-edge", "0", "--out", str(f))
    assert code == 0
    assert out.startswith("ok t=1 hits=hit-matching nodes=")
    G = parse_multigraph(g.read_text())
    F = parse_factor(f.read_text(), G)
    assert 0 in F.edge_ids
    # verify subcommand agrees
    code, out, _ = run(capsys, "verify", "--graph", str(g), "--factor", str(f),
                       "--t", "1", "--cycles", str(c), "--mode", "hit-matching")
    assert code == 0
    assert out.strip() == "true"


def test_solve_half_writes_orientation(tmp_path, capsys):
    g = tmp_path / "r.mg"
    c = tmp_path / "r.cyc"
    f = tmp_path / "r.fac"
    o = tmp_path / "r.ori"
    assert run(capsys, "gen", "--family", "random", "--n", "8", "--r", "4",
               "--seed", "1", "--out", str(g), "--cycles", str(c))[0] == 0
    code, out, _ = run(capsys, "solve", "--pipeline", "half",
                       "--graph", str(g), "--cycles", str(c), "--t", "2",
                       "--out", str(f), "--out-orientation", str(o))
    assert code == 0
    assert out.startswith("ok t=2 hits=hit-and-cohit")
    G = parse_multigraph(g.read_text())
    parse_orientation(o.read_text(), G)
    parse_factor(f.read_text(), G)


def test_solve_with_extension(tmp_path, capsys):
    g = tmp_path / "g.mg"
    c = tmp_path / "g.cyc"
    f = tmp_path / "g.fac"
    assert run(capsys, "gen", "--family", "random", "--n", "8", "--r", "4",
               "--seed", "3", "--out", str(g), "--cycles", str(c))[0] == 0
    code, out, _ = run(capsys, "solve", "--pipeline", "half",
                       "--graph", str(g), "--cycles", str(c), "--t", "2",
                       "--l", "4", "--out", str(f))
    assert code == 0
    assert out.startswith("ok t=4 hits=hit")
    G = parse_multigraph(g.read_text())
    assert len(parse_factor(f.read_text(), G).edge_ids) == G.m


def test_verify_false_exits_1(tmp_path, capsys):
    g = tmp_path / "g.mg"
    f = tmp_path / "g.fac"
    g.write_text("p mg 4 6\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n")
    f.write_text("p fac 1 2\nf 0\nf 4\n")  # edges 0,4 share vertex 1
    code, out, _ = run(capsys, "verify", "--graph", str(g), "--factor", str(f), "--t", "1")
    assert code == 1
    assert out.strip() == "false"


def test_orient_subcommand(tmp_path, capsys):
    """orient writes a verified orientation, byte for byte the one that
    solve writes for the matching half pipeline."""
    g = tmp_path / "g.mg"
    c = tmp_path / "g.cyc"
    o = tmp_path / "g.ori"
    h = tmp_path / "h.ori"
    assert run(capsys, "gen", "--family", "random", "--n", "9", "--r", "4",
               "--seed", "5", "--out", str(g), "--cycles", str(c))[0] == 0
    code, _, _ = run(capsys, "orient", "--graph", str(g), "--cycles", str(c),
                     "--t", "2", "--out", str(o))
    assert code == 0
    code, out, _ = run(capsys, "check", "--graph", str(g), "--cycles", str(c),
                       "--orientation", str(o))
    assert code == 0
    assert "verified=True" in out
    assert run(capsys, "solve", "--pipeline", "half", "--graph", str(g), "--cycles", str(c),
               "--t", "2", "--out-orientation", str(h))[0] == 0
    assert o.read_bytes() == h.read_bytes()
    g, c = GOLDEN_INPUTS / "arb_9_2_0.mg", GOLDEN_INPUTS / "arb_9_2_0.cyc"
    assert run(capsys, "orient", "--graph", str(g), "--cycles", str(c), "--t", "2",
               "--arbitrary", "--out", str(o))[0] == 0
    assert run(capsys, "solve", "--pipeline", "half-arb", "--graph", str(g), "--cycles", str(c),
               "--t", "2", "--out-orientation", str(h))[0] == 0
    assert o.read_bytes() == h.read_bytes()


def test_usage_and_input_errors_exit_2(tmp_path, capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "oracle", "--graph", "/nonexistent.mg", "--t", "1")[0] == 2
    bad = tmp_path / "bad.mg"
    bad.write_text("p mg 2 1\ne 0 5\n")
    assert run(capsys, "check", "--graph", str(bad))[0] == 2
    # solve on graph violating preconditions
    g = tmp_path / "g.mg"
    c = tmp_path / "g.cyc"
    g.write_text("p mg 4 6\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n")
    c.write_text("p cyc 1\nc 3 0 3 1\n")
    code, _, err = run(capsys, "solve", "--pipeline", "third", "--graph", str(g),
                       "--cycles", str(c), "--t", "2", "--force-edge", "0")
    assert code == 2


def test_budget_exit_3(tmp_path, capsys):
    g = tmp_path / "g.mg"
    c = tmp_path / "g.cyc"
    assert run(capsys, "gen", "--family", "thm4", "--r", "4", "--t", "2",
               "--out", str(g), "--cycles", str(c))[0] == 0
    code, out, _ = run(capsys, "oracle", "--graph", str(g), "--cycles", str(c),
                       "--t", "2", "--mode", "hit", "--max-nodes", "3")
    assert code == 3
    assert out.startswith("BUDGET")
    # The time budget, on a search that the LP stage does not end.
    assert run(capsys, "gen", "--family", "thm5", "--r", "10",
               "--out", str(g), "--cycles", str(c))[0] == 0
    code, out, _ = run(capsys, "oracle", "--graph", str(g), "--cycles", str(c),
                       "--t", "3", "--mode", "hit", "--max-seconds", "1e-9")
    assert code == 3
    assert out.startswith("BUDGET ")


def test_gen_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.mg"; cyc1 = tmp_path / "a.cyc"
    out2 = tmp_path / "b.mg"; cyc2 = tmp_path / "b.cyc"
    run(capsys, "gen", "--family", "sec6-2k", "--k", "2",
        "--out", str(out1), "--cycles", str(cyc1))
    run(capsys, "gen", "--family", "sec6-2k", "--k", "2",
        "--out", str(out2), "--cycles", str(cyc2))
    assert out1.read_text() == out2.read_text()
    assert cyc1.read_text() == cyc2.read_text()


def test_doubled_family_via_cli(tmp_path, capsys):
    base = tmp_path / "base.mg"
    base.write_text("p mg 3 3\ne 0 1\ne 1 2\ne 0 2\n")
    g = tmp_path / "2g.mg"; c = tmp_path / "2g.cyc"
    code, _, _ = run(capsys, "gen", "--family", "doubled", "--base", str(base),
                     "--out", str(g), "--cycles", str(c))
    assert code == 0
    G = parse_multigraph(g.read_text())
    O = parse_cycles(c.read_text(), G)
    assert G.m == 6 and len(O) == 3


def test_arbitrary_half_rejects_two_cycles_unchecked(tmp_path, capsys):
    # 4-regular and 3-connected, with the 0-1 pair prescribed as a 2-cycle;
    # the API raises the same error (test_pipelines).
    g = tmp_path / "g.mg"
    c = tmp_path / "g.cyc"
    g.write_text("p mg 5 10\ne 0 1\ne 0 1\ne 0 3\ne 0 4\ne 1 2\n"
                 "e 1 4\ne 2 3\ne 2 3\ne 2 4\ne 3 4\n")
    c.write_text("p cyc 1\nc 2 0 1\n")
    inputs = ("--graph", str(g), "--cycles", str(c), "--t", "2")
    for flags in ((), ("--unchecked",)):
        for argv in (("solve", "--pipeline", "half-arb"), ("orient", "--arbitrary")):
            code, out, err = run(capsys, *argv, *inputs, *flags)
            assert (code, out) == (2, "")
            assert err == "error: 2-cycles are not allowed here\n"


@pytest.mark.parametrize("exc", [AssertionError("postcondition"), RecursionError("deep")])
def test_internal_error_exits_4(tmp_path, capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    g = tmp_path / "p.mg"
    c = tmp_path / "p.cyc"
    assert run(capsys, "gen", "--family", "petersen",
               "--out", str(g), "--cycles", str(c))[0] == 0
    monkeypatch.setattr("cyclehit.cli.third_pipeline", broken)
    code, out, err = run(capsys, "solve", "--pipeline", "third", "--graph", str(g),
                         "--cycles", str(c), "--t", "1", "--force-edge", "0")
    assert code == 4
    assert out == ""
    assert err.endswith(f"internal error: {type(exc).__name__}: {exc}\n")


def test_main_repeats_in_one_process(tmp_path, capsys):
    """The parser is built once per process; repeated calls must still give
    each call's own exit code and output, with nothing left over from an
    earlier call's arguments."""
    g = tmp_path / "p.mg"
    c = tmp_path / "p.cyc"
    code, out, err = run(capsys, "gen", "--family", "petersen")
    assert (code, out) == (2, "")
    assert "required: --out, --cycles" in err
    assert run(capsys, "gen", "--family", "petersen", "--out", str(g),
               "--cycles", str(c)) == (0, "gen petersen n=10 m=15 cycles=2\n", "")
    assert run(capsys, "check", "--graph", str(g), "--cycles", str(c)) == (
        0, "graph n=10 m=15 regular=3 connectivity=3 cycles=2 min_len=5\n", "")
    assert run(capsys, "check", "--graph", str(g)) == (
        0, "graph n=10 m=15 regular=3 connectivity=3\n", "")
    code, out, err = run(capsys, "frobnicate")
    assert (code, out) == (2, "")
    assert "invalid choice: 'frobnicate'" in err
    assert _build_parser() is _build_parser()


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
_PETERSEN = ("--graph", "inputs/petersen.mg", "--cycles", "inputs/petersen.cyc")
_R4 = ("--graph", "inputs/r4.mg", "--cycles", "inputs/r4.cyc")
_BOOM = "patched to fail"

# (subcommand, argv after it, library function patched to raise
# RuntimeError or None, exit code, stdout prefix, stderr prefix): every
# exit code that each subcommand can give.  Only oracle and verify give 1
# (solve reports an unsolvable instance as an input error), and only the
# searching subcommands give 3.
EXIT_CONTRACT = [
    ("gen", ("--family", "petersen", "--out", "out/p.mg", "--cycles", "out/p.cyc"),
     None, 0, "gen petersen n=10 m=15 cycles=2\n", ""),
    ("gen", ("--family", "thm5", "--out", "out/p.mg", "--cycles", "out/p.cyc"),
     None, 2, "", "error: family thm5 needs --r\n"),
    # Each family names its missing options in the same words.
    pytest.param("gen", ("--family", "thm4", "--r", "5", "--out", "out/p.mg",
                         "--cycles", "out/p.cyc"),
                 None, 2, "", "error: family thm4 needs --r and --t\n", id="gen-2-thm4"),
    pytest.param("gen", ("--family", "sec6-2k", "--out", "out/p.mg", "--cycles", "out/p.cyc"),
                 None, 2, "", "error: family sec6-2k needs --k\n", id="gen-2-sec6-2k"),
    pytest.param("gen", ("--family", "doubled", "--out", "out/p.mg", "--cycles", "out/p.cyc"),
                 None, 2, "", "error: family doubled needs --base\n", id="gen-2-doubled"),
    pytest.param("gen", ("--family", "random", "--r", "3", "--out", "out/p.mg",
                         "--cycles", "out/p.cyc"),
                 None, 2, "", "error: family random needs --n and --r\n", id="gen-2-random"),
    ("gen", ("--family", "random", "--n", "10", "--r", "4", "--out", "out/p.mg",
             "--cycles", "out/p.cyc"),
     "cyclehit.instances._find_cycle", 4, "", "Traceback"),
    # No 1-regular graph is 2-connected, so the generator refuses before it draws.
    pytest.param("gen", ("--family", "random", "--n", "10", "--r", "1", "--seed", "1",
                         "--out", "out/p.mg", "--cycles", "out/p.cyc"),
                 None, 2, "", "error: no 1-regular multigraph on 10 vertices is "
                 "2-connected: vertex connectivity is at most min(r, n - 1) = 1\n",
                 id="gen-2-connectivity-out-of-reach"),
    ("solve", ("--pipeline", "half", *_R4, "--t", "2"),
     None, 0, "ok t=2 hits=hit-and-cohit nodes=", ""),
    ("solve", ("--pipeline", "half", *_R4, "--t", "3"),
     None, 2, "", "error: t must be an even integer >= 2\n"),
    pytest.param("solve", ("--pipeline", "third", *_PETERSEN, "--t", "100000000",
                           "--force-edge", "0", "--unchecked"),
                 None, 2, "", "error: graph must be 300000000-regular\n",
                 id="solve-2-huge-t-third-unchecked"),
    pytest.param("solve", ("--pipeline", "half", *_R4, "--t", "100000000", "--unchecked"),
                 None, 2, "", "error: graph must be 200000000-regular\n",
                 id="solve-2-huge-t-half-unchecked"),
    ("solve", ("--pipeline", "half", *_R4, "--t", "2", "--max-nodes", "1"),
     None, 3, "", "budget exceeded: orientation matching instance exceeded"),
    # bridge.mg is two K4s, each with one edge subdivided, joined by the
    # bridge 4-9: every perfect matching holds the bridge, edge 14, and
    # none holds edge 0.  Unchecked, the search proves that; checked, the
    # graph is refused first.
    pytest.param("solve", ("--pipeline", "third", "--graph", "bridge.mg", "--cycles", "bridge.cyc",
                           "--t", "1", "--force-edge", "0", "--unchecked"),
                 None, 2, "", "error: expanded matching instance is unsolvable; "
                 "the input violates a precondition\n", id="solve-2-precondition-breach-unchecked"),
    pytest.param("solve", ("--pipeline", "third", "--graph", "bridge.mg", "--cycles", "bridge.cyc",
                           "--t", "1", "--force-edge", "0"),
                 None, 2, "", "error: graph must be 2-connected\n", id="solve-2-bridge-checked"),
    ("solve", ("--pipeline", "third", *_PETERSEN, "--t", "1", "--force-edge", "0"),
     "cyclehit.pipelines.cubic_expansion", 4, "", "Traceback"),
    ("oracle", ("--graph", "inputs/petersen.mg", "--t", "1"),
     None, 0, "SAT nodes=", ""),
    ("oracle", ("--graph", "inputs/thm5.mg", "--cycles", "inputs/thm5.cyc", "--t", "1",
                "--mode", "hit"),
     None, 1, "UNSAT nodes=", ""),
    ("oracle", ("--graph", "inputs/missing.mg", "--t", "1"),
     None, 2, "", "error: cannot read inputs/missing.mg"),
    ("oracle", ("--graph", "inputs/thm4.mg", "--cycles", "inputs/thm4.cyc", "--t", "2",
                "--mode", "hit", "--max-nodes", "5"),
     None, 3, "BUDGET nodes=", ""),
    ("oracle", ("--graph", "inputs/petersen.mg", "--t", "1"),
     "cyclehit.solver._DegreeSearch.search", 4, "", "Traceback"),
    # A second (oracle, 2) row, with its own id so that the first keeps "oracle-2".
    pytest.param("oracle", ("--graph", "inputs/thm5.mg", "--t", "1", "--mode", "hit"),
                 None, 2, "", "error: mode hit needs --cycles\n", id="oracle-2b"),
    # NaN compares false with everything, so it must not pass for a positive budget.
    pytest.param("oracle", ("--graph", "inputs/petersen.mg", "--t", "1",
                            "--max-seconds", "nan"),
                 None, 2, "", "error: max_seconds must be positive\n", id="oracle-2-nan"),
    # The witness is written before the verdict is printed, so a failed
    # write leaves stdout empty.
    pytest.param("oracle", ("--graph", "inputs/petersen.mg", "--cycles", "inputs/petersen.cyc",
                            "--t", "1", "--mode", "hit", "--out", "missing/x.fac"),
                 None, 2, "", "error: cannot write missing/x.fac", id="oracle-2-unwritable-out"),
    ("verify", ("--graph", "inputs/petersen.mg", "--factor", "inputs/petersen_t1.fac",
                "--t", "1"),
     None, 0, "true\n", ""),
    ("verify", ("--graph", "inputs/petersen.mg", "--factor", "inputs/bad.fac", "--t", "1"),
     None, 1, "false\n", ""),
    ("verify", ("--graph", "inputs/petersen.mg", "--factor", "inputs/bad.fac", "--t", "2"),
     None, 2, "", "error: factor file declares t=1, expected t=2\n"),
    ("verify", ("--graph", "inputs/petersen.mg", "--factor", "inputs/petersen_t1.fac",
                "--t", "1"),
     "cyclehit.cli.verify_factor", 4, "", "Traceback"),
    # A malformed --cycles file is an input error, even when the factor
    # fails or the mode does not read the cycles.
    pytest.param("verify", ("--graph", "inputs/petersen.mg", "--factor", "inputs/bad.fac",
                            "--t", "1", "--cycles", "bad.cyc", "--mode", "hit"),
                 None, 2, "", "error: line 2: edge id 99 out of range\n",
                 id="verify-2-bad-cycles-hit"),
    pytest.param("verify", ("--graph", "inputs/petersen.mg", "--factor", "inputs/bad.fac",
                            "--t", "1", "--cycles", "bad.cyc", "--mode", "none"),
                 None, 2, "", "error: line 2: edge id 99 out of range\n",
                 id="verify-2-bad-cycles-none"),
    ("orient", (*_R4, "--t", "2"),
     None, 0, "ok t=2 oriented m=20\n", ""),
    # --unchecked skips only connectivity and parity, so the degree is
    # still checked before any orientation or gadget tree is built.
    ("orient", (*_PETERSEN, "--t", "2", "--unchecked"),
     None, 2, "", "error: graph must be 4-regular\n"),
    # A huge t is refused by the degree check at once, with no gadget tree
    # of 2t or 3t leaves built first.
    pytest.param("orient", (*_R4, "--t", "100000000", "--unchecked"),
                 None, 2, "", "error: graph must be 200000000-regular\n",
                 id="orient-2-huge-t-unchecked"),
    ("orient", (*_R4, "--t", "2", "--max-nodes", "1"),
     None, 3, "", "budget exceeded: orientation matching instance exceeded"),
    ("orient", (*_R4, "--t", "2"),
     "cyclehit.pipelines.balanced_orientation", 4, "", "Traceback"),
    ("check", ("--graph", "inputs/petersen.mg"),
     None, 0, "graph n=10 m=15 regular=3 connectivity=3\n", ""),
    ("check", ("--graph", "inputs/petersen.mg", "--orientation", "inputs/r4.ori"),
     None, 2, "", "error: line 1: orientation is for 20 edges, host has 15\n"),
    ("check", ("--graph", "inputs/petersen.mg"),
     "cyclehit.cli.vertex_connectivity", 4, "", "Traceback"),
]


@pytest.mark.parametrize(
    "subcommand, argv, broken, code, out_prefix, err_prefix", EXIT_CONTRACT,
    ids=[getattr(row, "id", None) or f"{row[0]}-{row[3]}" for row in EXIT_CONTRACT],
)
def test_exit_code_contract(tmp_path, capsys, monkeypatch,
                            subcommand, argv, broken, code, out_prefix, err_prefix):
    shutil.copytree(GOLDEN_INPUTS, tmp_path / "inputs")
    (tmp_path / "out").mkdir()
    (tmp_path / "bad.cyc").write_text("p cyc 1\nc 3 0 1 99\n")  # Petersen has 15 edges
    (tmp_path / "bridge.mg").write_text("p mg 10 15\n" + "".join(
        f"e {u} {v}\n" for u, v in [(4, 0), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (9, 5),
                                   (9, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8), (4, 9)]))
    (tmp_path / "bridge.cyc").write_text("p cyc 0\n")
    monkeypatch.chdir(tmp_path)
    if broken is not None:
        def fail(*args, **kwargs):
            raise RuntimeError(_BOOM)

        monkeypatch.setattr(broken, fail)
    got, out, err = run(capsys, subcommand, *argv)
    assert got == code
    assert out.startswith(out_prefix)
    assert err.startswith(err_prefix)
    if code in (2, 4):
        assert out == ""
    if not err_prefix:
        assert err == ""
    if code == 4:
        assert err.endswith(f"internal error: RuntimeError: {_BOOM}\n")


_TOP_USAGE = "usage: cyclehit [-h] {gen,solve,oracle,verify,orient,check} ...\n"
_SOLVE_USAGE = (
    "usage: cyclehit solve [-h] --pipeline {third,half,third-arb,half-arb} --graph GRAPH "
    "--cycles CYCLES --t T [--l L] [--force-edge FORCE_EDGE] [--out OUT] "
    "[--out-orientation OUT_ORIENTATION]\n"
    "                      [--max-nodes MAX_NODES] [--max-seconds MAX_SECONDS] [--unchecked]\n"
)
_SOLVE_THIRD = ("--pipeline", "third", *_PETERSEN, "--t", "1", "--force-edge", "0")

# (argv, exit code, stdout, stderr), as the single top-level parse_args
# call that main made before gave them, on a 200-column terminal (argparse
# 3.10 to 3.13 wrap these lines alike at that width).
PARSER_EDGES = [
    pytest.param((), 2, "", _TOP_USAGE
                 + "cyclehit: error: the following arguments are required: subcommand\n",
                 id="empty"),
    pytest.param(("-h",), 0, _TOP_USAGE + (
        "\n"
        "t-factors of regular multigraphs meeting prescribed cycle sets\n"
        "\n"
        "positional arguments:\n"
        "  {gen,solve,oracle,verify,orient,check}\n"
        "    gen                 generate a named family instance\n"
        "    solve               run a constructive pipeline\n"
        "    oracle              exact brute-force t-factor oracle\n"
        "    verify              check a factor file against a graph\n"
        "    orient              even-indegree orientation avoiding oriented cycles\n"
        "    check               parse inputs and report basic invariants\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"), "", id="help"),
    pytest.param(("frobnicate",), 2, "", _TOP_USAGE
                 + "cyclehit: error: argument subcommand: invalid choice: 'frobnicate' "
                 "(choose from 'gen', 'solve', 'oracle', 'verify', 'orient', 'check')\n",
                 id="unknown-subcommand"),
    pytest.param(("solve",), 2, "", _SOLVE_USAGE
                 + "cyclehit solve: error: the following arguments are required: "
                 "--pipeline, --graph, --cycles, --t\n", id="solve-missing"),
    pytest.param(("solve", "--help"), 0, _SOLVE_USAGE + (
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --pipeline {third,half,third-arb,half-arb}\n"
        "  --graph GRAPH\n"
        "  --cycles CYCLES\n"
        "  --t T\n"
        "  --l L                 extend the witness to an l-factor\n"
        "  --force-edge FORCE_EDGE\n"
        "                        edge id to force (pipeline third)\n"
        "  --out OUT             output .fac path\n"
        "  --out-orientation OUT_ORIENTATION\n"
        "                        output .ori path (half pipelines)\n"
        "  --max-nodes MAX_NODES\n"
        "  --max-seconds MAX_SECONDS\n"
        "  --unchecked           skip the connectivity and parity checks\n"),
                 "", id="solve-help"),
    pytest.param(("orient", "--help"), 0, (
        "usage: cyclehit orient [-h] --graph GRAPH --cycles CYCLES --t T [--arbitrary] "
        "[--out OUT] [--max-nodes MAX_NODES] [--max-seconds MAX_SECONDS] [--unchecked]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --graph GRAPH\n"
        "  --cycles CYCLES\n"
        "  --t T\n"
        "  --arbitrary           allow cycles of any length >= 3 (3-connected input)\n"
        "  --out OUT             output .ori path\n"
        "  --max-nodes MAX_NODES\n"
        "  --max-seconds MAX_SECONDS\n"
        "  --unchecked           skip the connectivity and parity checks\n"),
                 "", id="orient-help"),
    pytest.param(("solve", *_SOLVE_THIRD, "--bogus"), 2, "", _TOP_USAGE
                 + "cyclehit: error: unrecognized arguments: --bogus\n", id="solve-left-over"),
    pytest.param(("solve", "--pipe", *_SOLVE_THIRD[1:]), 0,
                 "ok t=1 hits=hit-matching nodes=1\n", "", id="solve-abbreviated"),
]


@pytest.mark.parametrize("argv, code, out, err", PARSER_EDGES)
def test_main_parses_like_the_top_level_parser(monkeypatch, capsys, argv, code, out, err):
    """main hands the arguments after a known subcommand to that
    subcommand's parser; whatever argv it gets, the exit code and the
    output are those of one top-level parse."""
    monkeypatch.setenv("COLUMNS", "200")
    monkeypatch.chdir(GOLDEN_INPUTS.parent)
    assert run(capsys, *argv) == (code, out, err)


def test_a_valid_solve_never_runs_the_top_level_parser(monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN_INPUTS.parent)
    parser, subparsers = _build_parser()
    solve = subparsers["solve"]
    with mock.patch.object(parser, "parse_known_args", wraps=parser.parse_known_args) as top, \
            mock.patch.object(solve, "parse_known_args", wraps=solve.parse_known_args) as sub:
        assert run(capsys, "solve", *_SOLVE_THIRD)[0] == 0
        assert (top.call_count, sub.call_count) == (0, 1)
        assert run(capsys, "solve", *_SOLVE_THIRD, "--bogus")[0] == 2
        assert (top.call_count, sub.call_count) == (1, 3)


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN_INPUTS.parent)
    monkeypatch.setattr("sys.argv", ["cyclehit", "check", "--graph", "inputs/petersen.mg"])
    code = main()
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (0, "graph n=10 m=15 regular=3 connectivity=3\n", "")


@pytest.mark.parametrize("unchecked", [(), ("--unchecked",)], ids=["checked", "unchecked"])
@pytest.mark.parametrize("t", ["0", "-1"])
@pytest.mark.parametrize("pipeline, forced", [("third", ("--force-edge", "0")), ("third-arb", ())],
                         ids=["third", "third-arb"])
def test_third_pipelines_check_t_before_their_preconditions(
        monkeypatch, capsys, pipeline, forced, t, unchecked):
    monkeypatch.chdir(GOLDEN_INPUTS.parent)
    assert run(capsys, "solve", "--pipeline", pipeline, *_PETERSEN, "--t", t,
               *forced, *unchecked) == (2, "", "error: t must be a positive integer\n")
