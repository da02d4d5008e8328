"""The random-instance generator and the greedy cycle packer.  The packer's
pruned, resumable DFS must return exactly the cycles of the plain
restart-from-vertex-0 search (conftest.reference_pack_cycles) for every
graph, parity and length cap, and its depth must not grow the stack."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from cyclehit import GraphError, Multigraph, cycle_vertices, instances, pack_cycles, random_regular_multigraph
from conftest import reference_pack_cycles

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
PARITIES = st.sampled_from(["odd", "even", None])


@PROPERTY
@given(st.integers(3, 6), st.integers(4, 14), st.integers(0, 10**6), PARITIES,
       st.sampled_from([3, 4, 5, 9, "n"]))
def test_pack_cycles_matches_reference_on_regular_graphs(r, n, seed, parity, max_len):
    n += n * r % 2
    G = random_regular_multigraph(n, r, seed)
    max_len = n if max_len == "n" else max_len
    assert list(pack_cycles(G, parity, max_len).cycles) == reference_pack_cycles(G, parity, max_len)


@PROPERTY
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1))), max_size=3 * n),
)), PARITIES, st.integers(0, 10))
def test_pack_cycles_matches_reference_on_any_multigraph(graph, parity, max_len):
    """Disconnected graphs, parallel edges, isolated vertices and caps
    below 3 or above n included."""
    n, steps = graph
    G = Multigraph(n, [(u, (u + s) % n) for u, s in steps if s % n])
    assert list(pack_cycles(G, parity, max_len).cycles) == reference_pack_cycles(G, parity, max_len)


@pytest.mark.parametrize("n, r, k", [(2000, 2, 3), (10, 1, 2), (4, 6, 4), (1, 0, 1)])
def test_unreachable_connectivity_is_refused_before_any_draw(monkeypatch, n, r, k):
    """Vertex connectivity is at most r and at most n - 1, so these requests
    raise at once instead of spending every draw."""
    def spy(*args):
        raise AssertionError("is_k_connected was called")

    monkeypatch.setattr(instances, "is_k_connected", spy)
    with pytest.raises(GraphError, match=rf"at most min\(r, n - 1\) = {min(r, n - 1)}$"):
        random_regular_multigraph(n, r, 1, min_connectivity=k)


@pytest.mark.parametrize("n, r, k, name, value", [
    (4, -3, 0, "r", -3), (-4, 3, 2, "n", -4), (-2, -2, 0, "n", -2)])
def test_negative_size_is_refused(n, r, k, name, value):
    """A negative n or r is refused by name, not drawn as an edgeless graph
    or reported as an unreachable connectivity."""
    with pytest.raises(GraphError, match=rf"^{name} must be non-negative, got {value}$"):
        random_regular_multigraph(n, r, 1, min_connectivity=k)


def test_reachable_connectivity_is_not_refused():
    # The bound is tight: K4 as a 3-regular graph on 4 vertices is 3-connected.
    assert random_regular_multigraph(4, 3, 1, min_connectivity=3).n == 4
    assert random_regular_multigraph(6, 0, 1, min_connectivity=0).m == 0


def test_pack_cycles_long_cycle_within_default_recursion_limit():
    n = 1501
    assert n > sys.getrecursionlimit()
    C = Multigraph(n, [(i, (i + 1) % n) for i in range(n)])
    O = pack_cycles(C, parity="odd", max_len=n)
    assert [len(c) for c in O.cycles] == [n]
    assert pack_cycles(C, parity="even", max_len=n).cycles == ()


def test_pack_cycles_large_instance():
    """A 4-regular graph with n=4000 packs to a valid edge-disjoint set of
    odd cycles of length 3..9 in well under a second."""
    G = random_regular_multigraph(4000, 4, 1)
    O = pack_cycles(G, parity="odd")
    assert len(O) > 0
    assert all(len(c) % 2 == 1 and 3 <= len(c) <= 9 for c in O.cycles)
    for c in O.cycles:
        assert len(set(cycle_vertices(G, c))) == len(c)
    assert len({e for c in O.cycles for e in c}) == sum(len(c) for c in O.cycles)


def test_pack_cycles_bound_counts_unreached_states_past_the_horizon(monkeypatch):
    """A state the BFS does not reach counts as horizon + 1, not horizon:
    the cycles are the same either way, but the looser bound lets the DFS
    step onto more vertices.  The packer's bytearray writes (path marks and
    used edges) count that work: 358 here, against 442 with far = horizon."""
    writes = 0

    class Counting(bytearray):
        def __setitem__(self, key, value):
            nonlocal writes
            writes += 1
            super().__setitem__(key, value)

    G = random_regular_multigraph(60, 3, 5)
    monkeypatch.setattr(instances, "bytearray", Counting, raising=False)
    O = pack_cycles(G, parity="odd")
    assert list(O.cycles) == reference_pack_cycles(G, "odd")
    assert writes == 358
