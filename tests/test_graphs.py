import random

import pytest

from graphspectra import graphs
from graphspectra.errors import InvalidGraph, InvalidRank
from graphspectra.graphs import (
    FiniteGraph,
    cayley_schottky_matrix,
    directed_edge_matrix,
    dumbbell_graph,
    genus2_catalog,
    isomorphisms,
    kato_graph,
    permutation_equivalent,
    theta_graph,
    wedge_of_two_loops,
)

from conftest import DUMBBELL_REFERENCE, THETA_REFERENCE

A1 = ((1, 1, 0, 1), (1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1))


def test_cayley_schottky_matrix_rank2_is_reference():
    assert cayley_schottky_matrix(2).matrix == A1


def test_cayley_schottky_rank1():
    assert cayley_schottky_matrix(1).matrix == ((1, 0), (0, 1))


def test_cayley_schottky_rank3_row_sums():
    em = cayley_schottky_matrix(3)
    assert em.size == 6
    assert em.row_sums() == [5] * 6


def test_cayley_schottky_symmetric_constant_row_sum():
    for g in (1, 2, 3, 4):
        em = cayley_schottky_matrix(g)
        assert em.row_sums() == [2 * g - 1] * (2 * g)
        assert all(em.matrix[i][j] == em.matrix[j][i]
                   for i in range(em.size) for j in range(em.size))


def test_cayley_schottky_rank_zero_rejected():
    with pytest.raises(InvalidRank):
        cayley_schottky_matrix(0)


def test_single_loop_edge_matrix():
    g = FiniteGraph(("v",), (("e", "v", "v"),))
    em = directed_edge_matrix(g)
    # each orientation continues only into itself: reversal is excluded
    assert em.matrix == ((1, 0), (0, 1))


def test_theta_edge_matrix_row_sums_and_reference():
    em = directed_edge_matrix(theta_graph())
    assert em.size == 6
    assert em.row_sums() == [2] * 6
    assert permutation_equivalent(em, THETA_REFERENCE) is not None


def test_dumbbell_edge_matrix_reference():
    em = directed_edge_matrix(dumbbell_graph())
    assert em.row_sums() == [2] * 6
    assert permutation_equivalent(em, DUMBBELL_REFERENCE) is not None


def test_wedge_matches_rank2_cayley():
    em = directed_edge_matrix(wedge_of_two_loops())
    assert permutation_equivalent(em, cayley_schottky_matrix(2)) is not None


def test_catalog_shape():
    cat = genus2_catalog()
    assert len(cat) == 3
    for g in cat:
        assert g.betti_number() == 2


def test_edge_matrix_row_sum_is_target_degree_minus_one():
    for g in genus2_catalog():
        em = directed_edge_matrix(g)
        oriented = g.oriented_edges()
        for e, total in zip(oriented, em.row_sums()):
            assert total == g.degree(e.target) - 1


def test_oriented_edge_reversal_fixed_point_free():
    for g in genus2_catalog():
        oriented = g.oriented_edges()
        assert len(oriented) == 2 * len(g.edges)
        for e in oriented:
            assert e.reversal() != e
            assert e.reversal().reversal() == e


@pytest.mark.parametrize("r,vertices,edges", [(1, 11, 12), (2, 17, 18), (5, 35, 36)])
def test_kato_graph_counts(r, vertices, edges):
    g = kato_graph(r)
    assert len(g.vertices) == vertices
    assert len(g.edges) == edges
    assert g.betti_number() == 2


def test_kato_zero_is_plain_theta():
    assert kato_graph(0) == theta_graph()


def test_irreducibility_is_decided_once_per_matrix(monkeypatch):
    calls = []
    search = graphs.strongly_connected
    monkeypatch.setattr(graphs, "strongly_connected",
                        lambda succ, pred: calls.append(1) or search(succ, pred))
    a = graphs.EdgeMatrix(A1, tuple("abcd"))
    assert a.is_irreducible() and a.is_irreducible()
    assert len(calls) == 1


def test_empty_graph_rejected():
    with pytest.raises(InvalidGraph):
        FiniteGraph((), ())
    with pytest.raises(InvalidGraph):
        directed_edge_matrix(FiniteGraph(("v",), ()))


def test_disconnected_graph_rejected():
    with pytest.raises(InvalidGraph):
        FiniteGraph(("u", "v"), (("e", "u", "u"),))


def test_edge_with_unknown_endpoint_rejected():
    with pytest.raises(InvalidGraph):
        FiniteGraph(("u",), (("e", "u", "w"),))


def test_edge_matrix_commutes_with_graph_isomorphism():
    # relabeling vertices and edges permutes the directed edge matrix
    g = dumbbell_graph()
    relabeled = FiniteGraph(
        ("left", "right"),
        (("loop1", "left", "left"), ("bridge", "right", "left"),
         ("loop2", "right", "right")),
    )
    assert permutation_equivalent(directed_edge_matrix(g),
                                  directed_edge_matrix(relabeled)) is not None
    h = theta_graph()
    flipped = FiniteGraph(("u", "v"), (("a", "v", "u"), ("b", "u", "v"),
                                       ("c", "v", "u")))
    assert permutation_equivalent(directed_edge_matrix(h),
                                  directed_edge_matrix(flipped)) is not None


def test_permutation_equivalence_detects_difference():
    other = [[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 0]]
    assert permutation_equivalent(A1, other) is None


def test_isomorphisms_check_both_entries_of_each_assigned_pair():
    # swapping letters 2 and 3 keeps every signature and every entry
    # a[i][x] with x assigned before i, but sends a[0][2] = 0 to a[0][3] = 1
    a = [[1, 1, 0, 1], [1, 0, 1, 0], [1, 0, 0, 1], [1, 0, 1, 0]]
    assert list(isomorphisms(a, a)) == [(0, 1, 2, 3)]


def test_permutation_equivalence_cap():
    # the search has no size cap: 10 and 24 indices are matched
    big = [[0] * 10 for _ in range(10)]
    assert permutation_equivalent(big, big) is not None
    em = directed_edge_matrix(kato_graph(1))
    perm = list(range(em.size))
    random.Random(7).shuffle(perm)
    relabeled = [[em.matrix[i][j] for j in perm] for i in perm]
    p = permutation_equivalent(em, relabeled)
    assert p is not None
    assert all(em.matrix[i][j] == relabeled[p[i]][p[j]]
               for i in range(em.size) for j in range(em.size))
