import pytest

from cyclehit import (
    CycleSet,
    GraphError,
    Multigraph,
    Orientation,
    orient_even_indegree,
    pack_cycles,
    random_regular_multigraph,
    verify_orientation,
)
from conftest import c4


def test_orientation_validation():
    G = c4()
    D = Orientation(G, (1, 2, 3, 3))
    assert D.tail(0) == 0
    assert D.indegrees() == [0, 1, 1, 2]
    with pytest.raises(GraphError):
        Orientation(G, (2, 2, 3, 3))  # vertex 2 is not an endpoint of edge 0
    with pytest.raises(GraphError):
        Orientation(G, (1, 2, 3))


def test_flipped():
    G = c4()
    D = Orientation(G, (1, 2, 3, 3))
    assert D.flipped([0]).head == (0, 2, 3, 3)
    assert D.flipped([]).head == D.head


def test_verify_orientation_oriented_cycle_rejected():
    G = c4()
    O = CycleSet(G, [(0, 1, 2, 3)])
    # directed 4-cycle: oriented, so false despite even indegrees
    around = Orientation(G, (1, 2, 3, 0))
    assert not verify_orientation(G, around, O)
    # alternating: indegrees 2,0,2,0 (even) and not oriented
    alternating = Orientation(G, (0, 2, 2, 0))
    assert verify_orientation(G, alternating, O)


def test_verify_orientation_odd_indegree_rejected():
    G = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    O = CycleSet(G, [])
    D = Orientation(G, (1, 1, 0))  # indegrees 1,2,0
    assert not verify_orientation(G, D, O)


def test_orient_even_indegree_random_instance():
    G = random_regular_multigraph(10, 4, seed=7)
    O = pack_cycles(G, parity="odd")
    D = orient_even_indegree(G, O, 2)
    assert verify_orientation(G, D, O)
    assert all(d % 2 == 0 for d in D.indegrees())
