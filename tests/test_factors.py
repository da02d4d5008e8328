import sys
from unittest import mock

import pytest

from cyclehit import (
    CycleSet,
    Factor,
    GraphError,
    Multigraph,
    check_factor,
    gen_thm5,
    t_factor_oracle,
    two_factorization,
    verify_factor,
    verify_intersections,
)
from cyclehit import factors
from cyclehit.factors import _bipartite_perfect_matching
from conftest import doubled_triangle, k4


def test_factor_validation():
    G = k4()
    F = Factor(G, 1, (0, 5))
    assert F.edge_ids == (0, 5)
    with pytest.raises(GraphError):
        Factor(G, 1, (0, 0))
    with pytest.raises(GraphError):
        Factor(G, 1, (9,))
    # Edge ids are integers, never truncated: int(0.9) is edge 0.
    with pytest.raises(GraphError, match="^factor edge id at position 0 must be an integer$"):
        Factor(Multigraph(2, [(0, 1)]), 1, (0.9,))
    with pytest.raises(GraphError, match="^factor edge id at position 1 must be an integer$"):
        Factor(G, 1, (0, "5"))


def test_verify_factor():
    G = k4()
    assert verify_factor(G, Factor(G, 1, (0, 5)), 1)
    assert not verify_factor(G, Factor(G, 1, (0, 4)), 1)
    assert verify_factor(G, Factor(G, 3, tuple(range(6))), 3)


def test_verify_intersections_modes():
    G = doubled_triangle()
    O = CycleSet(G, [(0, 1, 2)])
    # F = the copy triangle: misses the prescribed one entirely
    miss = Factor(G, 2, (3, 4, 5))
    assert not verify_intersections(miss, O, "hit")
    assert verify_intersections(miss, O, "none")
    # F shares one edge: hit, hit-matching, hit-and-cohit all true
    one = Factor(G, 2, (0, 4, 5))
    for mode in ("hit", "hit-matching", "hit-and-cohit"):
        assert verify_intersections(one, O, mode)
    # F = the prescribed triangle itself: hit but not cohit, and the shared
    # edges are pairwise adjacent so not a matching
    full = Factor(G, 2, (0, 1, 2))
    assert verify_intersections(full, O, "hit")
    assert not verify_intersections(full, O, "hit-and-cohit")
    assert not verify_intersections(full, O, "hit-matching")


def test_hit_matching_implies_hit():
    inst = gen_thm5(3)
    G, O = inst.graph, inst.cycles
    v = t_factor_oracle(G, 1, O, "hit-matching")
    assert v.status == "SAT"
    assert verify_intersections(v.witness, O, "hit")


def test_two_factorization_doubled_triangle():
    G = doubled_triangle()
    factors = two_factorization(G)
    assert len(factors) == 2
    ids = sorted(e for F in factors for e in F.edge_ids)
    assert ids == list(range(6))
    for F in factors:
        assert verify_factor(G, F, 2)


def test_two_factorization_requires_even_regularity():
    with pytest.raises(GraphError):
        two_factorization(k4())
    with pytest.raises(GraphError):
        two_factorization(Multigraph(3, [(0, 1), (1, 2)]))


def test_failed_peel_is_an_internal_error():
    """Peeling a regular bipartite graph cannot fail, so a failure is a
    bug: AssertionError, which the CLI reports as exit 4, not GraphError."""
    with mock.patch.object(factors, "_bipartite_perfect_matching", return_value=None):
        with pytest.raises(AssertionError, match="peeling failed"):
            two_factorization(doubled_triangle())


def test_check_factor_names_the_first_failure():
    G = k4()
    F = Factor(G, 1, (0, 5))  # edges 0-1 and 2-3
    triangle = CycleSet(G, [(0, 3, 1)])
    square = CycleSet(G, [(1, 3, 4, 2)])  # 0-2-1-3, which F misses
    assert check_factor(F, triangle, "hit-matching", forced=(0, 5)) is F
    assert check_factor(F, square) is F  # mode none asks nothing of the cycles
    failures = [
        (Factor(G, 2, (0, 5)), {}, "not a 2-factor"),
        (F, {"forced": (5, 3, 1)}, "misses forced edge 1"),
        (F, {"O": square, "mode": "hit"}, "violates mode hit"),
        (Factor(G, 2, (0, 1)), {"O": square, "mode": "hit"}, "not a 2-factor"),
    ]
    for factor, kwargs, message in failures:
        with pytest.raises(AssertionError, match=message):
            check_factor(factor, **kwargs)


def test_two_factorization_partitions_thm5():
    G = gen_thm5(4).graph  # 4-regular
    factors = two_factorization(G)
    assert len(factors) == 2
    assert sorted(e for F in factors for e in F.edge_ids) == list(range(G.m))


def test_bipartite_matching_long_augmenting_path():
    """Tail i has out-edges to heads i and i + 1, and the last tail only to
    head 0, so matching the last tail walks one augmenting path through all
    5000 others, deeper than the default recursion limit allows."""
    n = 5001
    assert sys.getrecursionlimit() < n
    out_edges = [[(2 * i, i), (2 * i + 1, i + 1)] for i in range(n - 1)] + [[(2 * n - 2, 0)]]
    match_head = _bipartite_perfect_matching(n, out_edges)
    assert match_head == [2 * n - 2] + [2 * i + 1 for i in range(n - 1)]
