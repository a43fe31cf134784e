import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra import graphs
from graphspectra.errors import InvalidGraph, InvalidRank, InvalidTransitionMatrix
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
    a = graphs.EdgeMatrix.from_rows(A1, tuple("abcd"))
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


# a cell equal to 0 or 1, in any of the forms the dense-row check accepts
CELLS = st.sampled_from([0, 1, True, False, 1.0, 0.0])


@st.composite
def dense_rows(draw):
    n = draw(st.integers(0, 7))
    return tuple(tuple(draw(st.lists(CELLS, min_size=n, max_size=n))) for _ in range(n))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=dense_rows())
def test_from_rows_stores_the_successor_lists_of_the_rows(rows):
    n = len(rows)
    labels = tuple(f"l{i}" for i in range(n))
    em = graphs.EdgeMatrix.from_rows(rows, labels)
    assert em.succ == tuple(tuple(j for j in range(n) if rows[i][j]) for i in range(n))
    assert em.pred == tuple(tuple(i for i in range(n) if rows[i][j]) for j in range(n))
    assert em.matrix == rows
    assert all(type(x) is int for row in em.matrix for x in row)
    again = graphs.EdgeMatrix.from_rows(rows, labels)
    assert again == em and hash(again) == hash(em)
    assert graphs.EdgeMatrix(em.succ, labels) == em


def test_successor_lists_are_checked_with_the_list_as_witness():
    for bad in ((1, 0), (0, 0), (2,), (-1,), (True,), (0.0,)):
        with pytest.raises(InvalidTransitionMatrix) as err:
            graphs.EdgeMatrix(((0, 1), bad), ("a", "b"))
        assert err.value.witness == bad
    with pytest.raises(InvalidTransitionMatrix):
        graphs.EdgeMatrix(((0,),), ("a", "b"))  # label count
    for inv in ((1, 0, None), (1, 0, 1.0), (1, 0), (1, 2, 0)):
        with pytest.raises(InvalidTransitionMatrix) as err:
            graphs.EdgeMatrix(((0,), (1,), (2,)), tuple("abc"), inv)
        assert err.value.witness == inv


@st.composite
def connected_multigraphs(draw):
    """Random connected multigraphs: a random spanning tree plus extra
    edges that may be loops or parallel to others."""
    n = draw(st.integers(1, 5))
    vertices = tuple(f"v{i}" for i in range(n))
    edges = [(f"t{i}", vertices[draw(st.integers(0, i - 1))], vertices[i])
             for i in range(1, n)]
    ends = st.sampled_from(vertices)
    extra = draw(st.lists(st.tuples(ends, ends), min_size=0 if n > 1 else 1, max_size=5))
    edges += [(f"e{k}", u, v) for k, (u, v) in enumerate(extra)]
    return FiniteGraph(vertices, tuple(edges))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(g=connected_multigraphs())
def test_directed_edge_matrix_matches_the_all_pairs_definition(g):
    oriented = g.oriented_edges()
    # the definition: e' continues e when target(e) = source(e') and e' is
    # not the reversal of e
    expected = tuple(tuple(int(e.target == f.source and f != e.reversal())
                           for f in oriented) for e in oriented)
    em = directed_edge_matrix(g)
    assert em.matrix == expected
    assert em.labels == tuple(e.label for e in oriented)
