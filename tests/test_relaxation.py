"""The LP stage's simplex and exact check against their first forms in
conftest: on LPs captured from relaxation.decide, _phase1 must stop at the
same floats under every pivot cap, and the integer _certifies must give the
Fraction check's answer on the duals it stopped at.  Also the size cap of
decide: which LPs it refuses, and that the largest threshold LP passes; and
the rows of 2 that the search's even parity sets give, with and without the
upper bounds of modes hit-matching and hit-and-cohit, against the brute
force."""

import sys
from unittest import mock

from hypothesis import given, settings, strategies as st

from cyclehit import (
    MODES, CycleSet, Factor, Multigraph, gen_sec6_2k, gen_thm4, gen_thm5, pack_cycles,
    random_regular_multigraph, relaxation, verify_factor, verify_intersections,
)
from cyclehit.solver import _Clock, _DegreeSearch
from conftest import factor_instances, naive_factors, reference_certifies, reference_phase1

PIVOT_CAPS = (0, 1, 2, 3, 5, 1000)


def _even_cuts(G, t, cycles, forced) -> list[tuple[int, ...]]:
    """The even parity sets' cuts that the search hands to decide."""
    search = _DegreeSearch(G, t, cycles, "hit", _Clock(None))
    search._build_pruning(forced)
    return search.even_cuts


def _decide(G, t, cycles, forced, mode="hit"):
    return relaxation.decide(G, t, cycles, forced, _even_cuts(G, t, cycles, forced), mode)


def _captured(calls) -> list[tuple]:
    """The arguments of every _phase1 call that relaxation.decide makes on
    calls, a list of (G, t, cycles, forced, mode), given the search's even
    cuts, with its size cap lifted."""
    lps = []
    solve = relaxation._phase1

    def record(*lp):
        lps.append(lp)
        return solve(*lp)

    with mock.patch.object(relaxation, "_phase1", record), \
            mock.patch.object(relaxation, "_LP_MAX_CELLS", sys.maxsize):
        for call in calls:
            _decide(*call)
    return lps


def _assert_same_path(lps):
    for cap in PIVOT_CAPS:
        with mock.patch.object(relaxation, "_LP_MAX_PIVOTS", cap):
            for cols, upper, b, n in lps:
                got = relaxation._phase1(cols, upper, b, n)
                assert repr(got) == repr(reference_phase1(cols, upper, b, n, cap)), (cap, len(cols))
                y = got[0]
                assert relaxation._certifies(cols, upper, b, y, n) == \
                    reference_certifies(cols, upper, b, y, n), (cap, len(cols))


def _threshold_instances():
    """The benchmark's threshold operations: thm5 r = 3..7 and sec6-2k
    k = 2..5 at every t up to the family's min_sat_t, and thm4 r = 3..6 at
    its own t."""
    for inst in [gen_thm5(r) for r in range(3, 8)] + [gen_sec6_2k(k) for k in range(2, 6)]:
        for t in range(1, inst.meta["min_sat_t"] + 1):
            yield inst, t
    for r in range(3, 7):
        for t in range(1, r - 1):
            yield gen_thm4(r, t), t


def test_phase1_keeps_its_pivot_path_on_threshold_lps():
    """In the three hitting modes; in modes hit-matching and hit-and-cohit,
    each of the 468 cycle rows has its surplus capped."""
    calls = [
        (inst.graph, t, tuple(inst.cycles.cycles), forced, mode)
        for inst, t in _threshold_instances()
        for forced in ((), (0,))
        for mode in ("hit", "hit-matching", "hit-and-cohit")
    ]
    assert len(calls) == 204
    lps = _captured(calls)
    assert len(lps) == 204
    assert sum(c < float("inf") for cols, upper, *_ in lps for c in upper[len(cols):]) == 468
    _assert_same_path(lps)


def test_phase1_keeps_its_pivot_path_on_random_regular_lps():
    """Up to 255 columns, on LPs above decide's size cap as well as below
    it, so that the pivot path is pinned on large LPs too."""
    calls = []
    for n, r, t in ((170, 3, 1), (100, 3, 1), (60, 4, 2), (40, 6, 2)):
        for seed in (1, 4):
            G = random_regular_multigraph(n, r, seed)
            calls.append((G, t, tuple(pack_cycles(G).cycles), (), "hit"))
    lps = _captured(calls)
    assert max(len(cols) for cols, *_ in lps) == 255
    _assert_same_path(lps)


def test_decide_refuses_lps_above_its_size_cap():
    """A random cubic graph with 255 edges gives an LP of about 180 rows by
    255 columns, over _LP_MAX_CELLS, which decide refuses before the
    simplex runs: the simplex takes 50-120 ms there and decides nothing."""
    for seed in (1, 2, 3):
        G = random_regular_multigraph(170, 3, seed)
        cycles = tuple(pack_cycles(G).cycles)
        with mock.patch.object(relaxation, "_phase1", wraps=relaxation._phase1) as phase1:
            assert _decide(G, 1, cycles, ()) == (False, None), seed
        assert phase1.call_count == 0, seed


def test_decide_settles_thm5_r9_under_its_size_cap():
    """thm5 r=9 (57 rows by 216 columns) is the largest LP that criterion 2
    needs: a certificate at t = 1 and 2, and a verified point at t = 3.  A
    cap below its size fails here at once, where criterion 2's searches
    would run on past the LP stage's node."""
    inst = gen_thm5(9)
    G, cycles = inst.graph, tuple(inst.cycles.cycles)
    for t in (1, 2):
        assert _decide(G, t, cycles, ()) == (True, None), t
    decided, ids = _decide(G, 3, cycles, ())
    assert decided and ids is not None
    F = Factor(G, 3, ids)
    assert verify_factor(G, F, 3) and verify_intersections(F, inst.cycles, "hit")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(factor_instances(), st.sampled_from(MODES), st.data())
def test_phase1_keeps_its_pivot_path_on_random_lps(instance, mode, data):
    G, O = instance
    forced = ((), (data.draw(st.integers(0, G.m - 1)),)) if G.m else ((),)
    _assert_same_path(_captured(
        [(G, t, tuple(O.cycles), edges, mode) for t in range(4) for edges in forced]
    ))


def test_decide_reads_even_cuts_as_the_brute_force_does():
    """Cycles that are exactly the cut of an even parity set: the two
    4-cycles of sec6-2k k=2, each the cut of a vertex pair, and a digon
    that is the cut of a bridge side of 3 vertices.  In mode hit, and in
    modes hit-matching and hit-and-cohit, whose rows are also capped at
    floor(|C|/2) and |C| - 1 edges, at every t and through every edge,
    decide gives a certificate only where the brute force finds no
    solution, and a point only where it is one.  Without the rows of 2,
    the uniform point of sec6-2k at t = 1 decides nothing, and neither does
    the digon instance's fractional point at t = 2; with them, the digon's
    row in the capped modes asks for 2 edges and allows 1."""
    sec6 = gen_sec6_2k(2)
    bridged = Multigraph(6, [(0, 3), (0, 3), (0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0),
                             (3, 4), (4, 5), (4, 5), (5, 3)])
    digon = CycleSet(bridged, [(0, 1)])
    cases = [(sec6.graph, sec6.cycles, mode, 1, (True, None))
             for mode in ("hit", "hit-matching", "hit-and-cohit")]
    cases += [(bridged, digon, "hit", 2, (True, (0, 1, 4, 5, 9, 10)))]
    cases += [(bridged, digon, mode, 2, (True, None)) for mode in ("hit-matching", "hit-and-cohit")]
    for G, O, mode, t0, settled in cases:
        cycles = tuple(O.cycles)
        assert _decide(G, t0, cycles, (), mode) == settled, mode
        assert relaxation.decide(G, t0, cycles, (), [], mode) == (False, None), mode
        for t in range(5):
            factors = naive_factors(G, t, O, mode)
            for forced in [()] + [(e,) for e in range(G.m)]:
                want = [f for f in factors if set(forced) <= set(f)]
                decided, ids = _decide(G, t, cycles, forced, mode)
                assert not decided or (ids in want if ids else not want), (mode, t, forced)
