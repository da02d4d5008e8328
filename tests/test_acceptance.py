"""Acceptance suite: ten exact criteria, one printed pass/fail line each.

All comparisons are exact (combinatorial facts); runtime bounds are enforced
with wall-clock assertions where the criterion states one.
"""

import time
from unittest import mock

import pytest

from cyclehit import (
    CycleSet,
    Multigraph,
    SAT,
    UNSAT,
    build_gadget_tree,
    extend_factor,
    gen_sec6_2k,
    gen_thm4,
    gen_thm5,
    half_pipeline,
    matched_leaf_count,
    pack_cycles,
    petersen,
    petersen_cycles,
    random_regular_multigraph,
    t_factor_oracle,
    third_pipeline,
    verify_factor,
    verify_intersections,
    verify_orientation,
)
from cyclehit import relaxation, solver
from cyclehit.cli import main
from conftest import (
    bowtie,
    c4,
    circulant,
    doubled_triangle,
    enumerate_perfect_matchings,
    k4,
    k33,
    naive_subset_verdict,
)


def report(capsys, line: str):
    with capsys.disabled():
        print(line, flush=True)


def _suite_instances():
    """The 100 seeded instances shared by criteria 5, 6 and 8."""
    for seed in range(100):
        n = 6 + (seed % 7)
        G = random_regular_multigraph(n, 4, seed, min_connectivity=2)
        yield seed, G, pack_cycles(G, parity="odd")


def test_criterion_1_petersen_all_edges(tmp_path, capsys):
    """Matching through every edge of the Petersen graph hitting both
    prescribed 5-cycles."""
    g = tmp_path / "petersen.mg"
    c = tmp_path / "petersen.cyc"
    assert main(["gen", "--family", "petersen", "--out", str(g), "--cycles", str(c)]) == 0
    G = petersen()
    O = petersen_cycles(G)
    t0 = time.monotonic()
    for e in range(15):
        f = tmp_path / f"e{e}.fac"
        code = main([
            "solve", "--pipeline", "third", "--graph", str(g), "--cycles", str(c),
            "--t", "1", "--force-edge", str(e), "--out", str(f),
        ])
        assert code == 0, f"edge {e} failed"
        from cyclehit import parse_factor
        F = parse_factor(f.read_text(), G)
        assert e in F.edge_ids
        assert verify_intersections(F, O, "hit-matching")
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(capsys, f"criterion 1: PASS (15/15 forced edges, {elapsed:.2f}s < 5s)")


def test_criterion_2_threshold_thm5(capsys):
    """Hitting threshold t >= ceil(r/3) on the three-block family: UNSAT
    below it and a verified SAT at it, for r = 5 to 9."""
    t0 = time.monotonic()
    i4 = gen_thm5(4)
    assert t_factor_oracle(i4.graph, 1, i4.cycles, "hit").status == UNSAT
    v = t_factor_oracle(i4.graph, 2, i4.cycles, "hit")
    assert v.status == SAT
    i3 = gen_thm5(3)
    assert t_factor_oracle(i3.graph, 1, i3.cycles, "hit").status == SAT
    for r in (5, 6, 7, 8, 9):
        inst = gen_thm5(r)
        threshold = -(-r // 3)
        for t in range(1, threshold):
            assert t_factor_oracle(inst.graph, t, inst.cycles, "hit").status == UNSAT, (r, t)
        v = t_factor_oracle(inst.graph, threshold, inst.cycles, "hit")
        assert v.status == SAT, r
        assert verify_factor(inst.graph, v.witness, threshold)
        assert verify_intersections(v.witness, inst.cycles, "hit")
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(capsys, f"criterion 2: PASS (r=3 SAT@1, r=4 UNSAT@1/SAT@2, r=5,6 UNSAT@1/SAT@2, "
                   f"r=7,8,9 UNSAT@1,2/SAT@3, {elapsed:.2f}s < 60s)")


def test_criterion_2_budget_before_the_lp_stage(tmp_path, capsys):
    """A node budget that runs out before the LP stage's node is still a
    budget stop, on thm5 r=7 t=2, which the stage proves UNSAT once the
    budget reaches that node."""
    g, c = tmp_path / "g.mg", tmp_path / "g.cyc"
    assert main(["gen", "--family", "thm5", "--r", "7", "--out", str(g), "--cycles", str(c)]) == 0
    argv = ["oracle", "--graph", str(g), "--cycles", str(c), "--t", "2", "--mode", "hit",
            "--max-nodes"]
    capsys.readouterr()
    assert main(argv + [str(solver._LP_NODE - 1)]) == 3
    assert capsys.readouterr().out == f"BUDGET nodes={solver._LP_NODE}\n"
    assert main(argv + [str(solver._LP_NODE)]) == 1
    assert capsys.readouterr().out == f"UNSAT nodes={solver._LP_NODE}\n"


# The searches of thm5 r = 5..9 at t = 2 and 3 in modes hit-matching and
# hit-and-cohit that have a solution; the other eleven have none.  Without the
# LP stage, r=7, t=2, hit-matching takes more than 60,000 nodes, and three of
# the four r=8 searches run for more than 5 s.
BOUNDED_ROWS_SAT = {
    (5, 2, "hit-and-cohit"), (5, 3, "hit-and-cohit"), (6, 2, "hit-matching"),
    (6, 2, "hit-and-cohit"), (6, 3, "hit-and-cohit"), (7, 3, "hit-and-cohit"),
    (8, 3, "hit-and-cohit"), (9, 3, "hit-matching"), (9, 3, "hit-and-cohit"),
}


def test_criterion_2_lp_stage_decides_other_modes():
    """hit-matching and hit-and-cohit searches on thm5 r = 5..9 at t = 2
    and 3 are decided by the LP stage's node, with the rows x(C) <=
    floor(|C|/2) and x(C) <= |C| - 1: every UNSAT there comes from the LP
    stage's exact check, and every witness verifies in its mode."""
    decide, answers = relaxation.decide, []

    def spy(*args):
        answers.append(decide(*args))
        return answers[-1]

    for r in range(5, 10):
        inst = gen_thm5(r)
        for t in (2, 3):
            for mode in ("hit-matching", "hit-and-cohit"):
                answers.clear()
                with mock.patch.object(relaxation, "decide", spy):
                    v = t_factor_oracle(inst.graph, t, inst.cycles, mode)
                case = (r, t, mode)
                assert v.status == (SAT if case in BOUNDED_ROWS_SAT else UNSAT), case
                assert v.nodes_explored <= solver._LP_NODE, case
                if v.status == UNSAT:
                    assert answers == [(True, None)], case
                else:
                    assert verify_factor(inst.graph, v.witness, t), case
                    assert verify_intersections(v.witness, inst.cycles, mode), case


def test_criterion_3_unhittable_families(capsys):
    """Kite-block and wheel families admit no hitting t-factor; the wheel's
    perfect matchings all share one support avoiding the central triangle."""
    t0 = time.monotonic()
    i42 = gen_thm4(4, 2)
    assert t_factor_oracle(i42.graph, 2, i42.cycles, "hit").status == UNSAT
    assert time.monotonic() - t0 < 600.0
    for r in (5, 6):
        for t in range(2, r - 1):
            inst = gen_thm4(r, t)
            assert t_factor_oracle(inst.graph, t, inst.cycles, "hit").status == UNSAT, (r, t)
    for r in (3, 4, 5):
        t1 = time.monotonic()
        inst = gen_thm4(r, 1)
        assert t_factor_oracle(inst.graph, 1, inst.cycles, "hit").status == UNSAT
        assert time.monotonic() - t1 < 1.0
        # full matching enumeration: a unique support that avoids the triangle
        matchings = enumerate_perfect_matchings(inst.graph)
        assert matchings
        G = inst.graph
        supports = {
            frozenset(tuple(sorted(G.endpoints(e))) for e in M) for M in matchings
        }
        assert len(supports) == 1
        triangle_edges = set(inst.cycles.cycles[0])
        assert all(not (set(M) & triangle_edges) for M in matchings)
    elapsed = time.monotonic() - t0
    report(capsys, f"criterion 3: PASS (case1 UNSAT, r=5,6 UNSAT at t=2..r-2, "
                   f"wheels r=3,4,5 UNSAT + unique support, {elapsed:.2f}s)")


def test_criterion_4_half_ratio_family(capsys):
    """Subdivided-bundle family needs t >= k."""
    t0 = time.monotonic()
    i2 = gen_sec6_2k(2)
    assert t_factor_oracle(i2.graph, 1, i2.cycles, "hit").status == UNSAT
    assert t_factor_oracle(i2.graph, 2, i2.cycles, "hit").status == SAT
    i3 = gen_sec6_2k(3)
    assert t_factor_oracle(i3.graph, 1, i3.cycles, "hit").status == UNSAT
    assert t_factor_oracle(i3.graph, 2, i3.cycles, "hit").status == UNSAT
    for k in (4, 5):
        inst = gen_sec6_2k(k)
        for t in range(1, k):
            assert t_factor_oracle(inst.graph, t, inst.cycles, "hit").status == UNSAT, (k, t)
        v = t_factor_oracle(inst.graph, k, inst.cycles, "hit")
        assert v.status == SAT, k
        assert verify_intersections(v.witness, inst.cycles, "hit")
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(capsys, f"criterion 4: PASS (k=2: UNSAT@1 SAT@2; k=3: UNSAT@1,2; "
                   f"k=4,5: UNSAT@t<k SAT@k; {elapsed:.2f}s < 60s)")


def test_criterion_5_orientation_lemma_batch(capsys):
    """Even-indegree orientations avoiding oriented prescribed cycles on 100
    seeded 4-regular instances."""
    t0 = time.monotonic()
    passed = 0
    for seed, G, O in _suite_instances():
        D = half_pipeline(G, O, 2).orientation
        if verify_orientation(G, D, O):
            passed += 1
    elapsed = time.monotonic() - t0
    assert passed == 100
    assert elapsed < 60.0
    report(capsys, f"criterion 5: PASS ({passed}/100 orientations verified, {elapsed:.2f}s < 60s)")


def test_criterion_6_half_pipeline_batch(capsys):
    """2-factors with hit-and-cohit on the same 100 instances, oracle-confirmed
    where small enough."""
    t0 = time.monotonic()
    passed = confirmed = small = 0
    for seed, G, O in _suite_instances():
        rep = half_pipeline(G, O, 2)
        if verify_factor(G, rep.factor, 2) and verify_intersections(rep.factor, O, "hit-and-cohit"):
            passed += 1
        if G.m <= 24:
            small += 1
            if t_factor_oracle(G, 2, O, "hit-and-cohit").status == SAT:
                confirmed += 1
    elapsed = time.monotonic() - t0
    assert passed == 100
    assert confirmed == small
    assert elapsed < 300.0
    report(capsys, f"criterion 6: PASS ({passed}/100 witnesses, {confirmed}/{small} oracle-confirmed, {elapsed:.2f}s < 300s)")


def test_criterion_7_matched_leaf_lemma(capsys):
    """Every internal-covering matching of the 3t-leaf tree matches exactly
    t leaves, t <= 4, by exhaustive enumeration."""
    from conftest import enumerate_internal_covering_matchings

    total = 0
    for t in (1, 2, 3, 4):
        T = build_gadget_tree(t)
        matchings = enumerate_internal_covering_matchings(T.tree)
        assert matchings, f"t={t}: no internal-covering matching"
        for M in matchings:
            assert matched_leaf_count(T, M) == t
        total += len(matchings)
    report(capsys, f"criterion 7: PASS ({total} matchings enumerated, all match exactly t leaves)")


def test_criterion_8_extension(capsys):
    """Every criterion-6 witness extends to every legal l, staying a factor
    and still hitting."""
    t0 = time.monotonic()
    checked = 0
    for seed, G, O in _suite_instances():
        rep = half_pipeline(G, O, 2)
        for l in (2, 4):
            Fl = extend_factor(G, rep.factor, l)
            assert verify_factor(G, Fl, l)
            assert verify_intersections(Fl, O, "hit")
            checked += 1
    elapsed = time.monotonic() - t0
    report(capsys, f"criterion 8: PASS ({checked} extensions verified, {elapsed:.2f}s)")


def test_criterion_9_oracle_ground_truth(capsys):
    """Search-engine verdicts equal naive 2^m subset enumeration on every
    small fixture, all t <= 4, all four modes."""
    t0 = time.monotonic()
    fixtures = [
        ("k4", k4(), CycleSet(k4(), [(0, 3, 1)])),
        ("c4", c4(), CycleSet(c4(), [(0, 1, 2, 3)])),
        ("bowtie", bowtie(), CycleSet(bowtie(), [(0, 1, 2), (3, 4, 5)])),
        ("doubled-triangle", doubled_triangle(),
         CycleSet(doubled_triangle(), [(0, 3), (1, 4), (2, 5)])),
        ("k33", k33(), pack_cycles(k33(), parity="even")),
        ("sec6-2k(2)", gen_sec6_2k(2).graph, gen_sec6_2k(2).cycles),
        ("petersen", petersen(), petersen_cycles(petersen())),
    ]
    checks = 0
    for name, G, O in fixtures:
        assert G.m <= 16
        for t in range(5):
            for mode in ("none", "hit", "hit-matching", "hit-and-cohit"):
                got = t_factor_oracle(G, t, O, mode).status
                want = SAT if naive_subset_verdict(G, t, O, mode) else UNSAT
                assert got == want, (name, t, mode)
                checks += 1
    elapsed = time.monotonic() - t0
    report(capsys, f"criterion 9: PASS ({checks} verdicts agree with 2^m enumeration, {elapsed:.2f}s)")


def test_criterion_10_arbitrary_cycle_pipelines(tmp_path, capsys):
    """Even cycles on 3-connected input succeed; 2-cycles are rejected with
    exit code 2."""
    t0 = time.monotonic()
    G = k4()
    O = CycleSet(G, [(0, 4, 5, 1)])  # 4-cycle 0-1-3-2
    rep = third_pipeline(G, O, None, 1, arbitrary=True)
    assert verify_intersections(rep.factor, O, "hit-matching")
    C8 = circulant(8, (1, 2, 3))  # 6-regular, 3-connected
    O8 = pack_cycles(C8, parity="even")
    rep = third_pipeline(C8, O8, None, 2, arbitrary=True)
    assert verify_factor(C8, rep.factor, 2)
    assert verify_intersections(rep.factor, O8, "hit-matching")
    # 2-cycle input rejected with exit 2 through the CLI
    base = tmp_path / "base.mg"
    base.write_text("p mg 3 3\ne 0 1\ne 1 2\ne 0 2\n")
    g = tmp_path / "2g.mg"
    c = tmp_path / "2g.cyc"
    assert main(["gen", "--family", "doubled", "--base", str(base),
                 "--out", str(g), "--cycles", str(c)]) == 0
    code = main(["solve", "--pipeline", "third-arb", "--graph", str(g),
                 "--cycles", str(c), "--t", "2"])
    assert code == 2
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(capsys, f"criterion 10: PASS (K4 + circulant succeed, 2-cycles exit 2, {elapsed:.2f}s < 30s)")
