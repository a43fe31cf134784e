import math

import pytest

from graphspectra.buildings import (
    BipartiteGraph,
    bm_group_data,
    complete_bipartite,
    fake_projective_plane_constants,
    family_cover_link_graphs,
    family_link_graph,
    family_presentation,
    four_fold_cover,
    inclusion_exclusion_check,
    make_presentation,
    polyhedron_from_presentation,
    product_dim_table,
    product_grading_dims,
    product_grading_dims_oracle,
    product_tree_presentation_fixtures,
    solve_tau,
    stable_pairs_check,
    symmetric_tau_closed_form,
    tau_lhs,
    validate_presentation,
)
from graphspectra.errors import (
    DegenerateEuclidean,
    InvalidPolygon,
    InvalidRank,
    InvalidTable,
    NotBMReducible,
    PresentationInvalid,
    RequiresSquares,
)


def test_family_q1_words():
    p = family_presentation(1)
    assert p.orbits() == [
        ("x1", "x1", "x4", "x4"),
        ("x1", "x2", "x4", "x3"),
        ("x1", "x3", "x4", "x2"),
        ("x2", "x2", "x3", "x3"),
    ]
    assert len(p.words) == 16  # four orbits, rotations materialized


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_family_validates(q):
    p = family_presentation(q)
    assert len(p.orbits()) == 4 * q * q
    assert len(p.alphabet) == 4 * q
    report = validate_presentation(p, [family_link_graph(q)])
    assert report.ok


def test_rotation_closure_failure_detected():
    p = family_presentation(1)
    removed = tuple(w for w in p.words if w != ("x2", "x4", "x3", "x1"))
    broken = type(p)(p.alphabet, p.lam, removed, 4)
    report = validate_presentation(broken, [family_link_graph(1)])
    assert not report.rotation_closure.passed
    assert report.rotation_closure.witnesses


def test_duplicate_continuation_detected():
    p = family_presentation(1)
    extra = ("x1", "x2", "x3", "x2")  # (x1, x2) already continues with x4
    broken = make_presentation(p.alphabet, p.lam, list(p.orbits()) + [extra])
    report = validate_presentation(broken, [family_link_graph(1)])
    assert not report.unique_continuation.passed
    assert any(pair == ("x1", "x2") for pair, _ in report.unique_continuation.witnesses)


def test_polyhedron_counts_q1():
    poly = polyhedron_from_presentation(family_presentation(1))
    assert poly.vertex_count == 1
    assert poly.edge_count == 4
    assert poly.face_count == 4
    # counts against the link graph: edges = s/2, faces = t/k
    link = family_link_graph(1)
    s = len(link.blacks) + len(link.whites)
    t = len(link.edges)
    assert poly.edge_count == s // 2
    assert poly.face_count == t // 4


def test_polyhedron_two_triangles():
    # two one-letter triangles: the smallest k = 3 presentation whose two
    # links are connected, so the complex has one vertex per graph
    p = make_presentation(("a", "b"), (("a", "A"), ("b", "B")),
                          [("a", "a", "a"), ("b", "b", "b")])
    poly = polyhedron_from_presentation(p)
    assert poly.vertex_count == 2
    assert poly.edge_count == 2
    assert poly.face_count == 2
    # counts from the links: edges = sum(s_i)/2, faces = sum(t_i)/k
    s = sum(len(l.blacks) + len(l.whites) for l in poly.links)
    t = sum(len(l.edges) for l in poly.links)
    assert poly.edge_count == s // 2
    assert poly.face_count == t // 3


def test_empty_polyhedron():
    p = make_presentation((), (), [])
    poly = polyhedron_from_presentation(p)
    assert (poly.vertex_count, poly.edge_count, poly.face_count) == (0, 0, 0)


def test_polyhedron_rejects_broken_presentation():
    p = family_presentation(1)
    removed = tuple(w for w in p.words if w != ("x2", "x4", "x3", "x1"))
    broken = type(p)(p.alphabet, p.lam, removed, 4)
    with pytest.raises(PresentationInvalid):
        polyhedron_from_presentation(broken)


def test_links_q1_complete_bipartite():
    poly = polyhedron_from_presentation(family_presentation(1))
    (link,) = poly.links
    assert link.is_complete_bipartite()
    assert link.isomorphic_to(family_link_graph(1))


def test_link_corner_walk_fixture():
    # one square with sides (a, a, b, b); corners enumerated by hand
    alphabet = ("a", "b")
    lam = (("a", "A"), ("b", "B"))
    p = make_presentation(alphabet, lam, [("a", "a", "b", "b")])
    poly = polyhedron_from_presentation(p)
    assert poly.vertex_count == 1
    (link,) = poly.links
    assert sorted(link.edges) == [("A", "a"), ("A", "b"), ("B", "a"), ("B", "b")]
    assert link.is_complete_bipartite()


@pytest.mark.parametrize("q", [1, 2, 3])
def test_links_isomorphic_to_expected(q):
    poly = polyhedron_from_presentation(family_presentation(q))
    (link,) = poly.links
    assert link.isomorphic_to(family_link_graph(q))


def test_bipartite_isomorphism_search():
    g1 = BipartiteGraph(("a", "b"), ("x", "y"),
                        (("x", "a"), ("x", "b"), ("y", "a")))
    g2 = BipartiteGraph(("p", "q"), ("u", "v"),
                        (("v", "q"), ("u", "q"), ("v", "p")))
    assert g1.isomorphic_to(g2)
    g3 = BipartiteGraph(("p", "q"), ("u", "v"),
                        (("v", "q"), ("u", "q"), ("u", "p")))
    assert g1.isomorphic_to(g3)
    g4 = BipartiteGraph(("p", "q"), ("u", "v"), (("v", "q"), ("u", "q")))
    assert not g1.isomorphic_to(g4)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_cover_satisfies_stable_pairs(q):
    cover = four_fold_cover(family_presentation(q))
    assert len(cover.orbits()) == 16 * q * q
    result = stable_pairs_check(cover)
    assert result.ok


def test_family_itself_fails_stable_pairs():
    result = stable_pairs_check(family_presentation(1))
    assert not result.ok
    assert result.witnesses


def test_stable_pairs_requires_squares():
    words = [("a1", "a2", "a3"), ("b1", "b2", "b3")]
    alphabet = ("a1", "a2", "a3", "b1", "b2", "b3")
    lam = tuple((x, x.upper()) for x in alphabet)
    with pytest.raises(RequiresSquares):
        stable_pairs_check(make_presentation(alphabet, lam, words))


def test_swapped_letter_breaks_stable_pairs():
    cover = four_fold_cover(family_presentation(1))
    orbits = cover.orbits()
    target = list(orbits[0])
    sup3 = [i for i, x in enumerate(target) if x.endswith("^3")][0]
    other = [x for x in cover.alphabet
             if x.endswith("^3") and x != target[sup3]][0]
    target[sup3] = other
    tampered = make_presentation(cover.alphabet, cover.lam,
                                 [tuple(target)] + list(orbits[1:]))
    result = stable_pairs_check(tampered)
    assert not result.ok
    assert result.witnesses


def test_cover_of_cover_counts():
    cover = four_fold_cover(family_presentation(1))
    again = four_fold_cover(cover)
    assert len(again.orbits()) == 64


def test_cover_polyhedron_has_four_vertices():
    poly = polyhedron_from_presentation(four_fold_cover(family_presentation(1)))
    assert poly.vertex_count == 4
    assert all(link.is_complete_bipartite() for link in poly.links)
    expected = family_cover_link_graphs(1)
    assert all(any(link.isomorphic_to(e) for e in expected) for link in poly.links)


def test_cover_validates_against_cover_links():
    cover = four_fold_cover(family_presentation(2))
    assert validate_presentation(cover, family_cover_link_graphs(2)).ok


@pytest.mark.parametrize("q,valence", [(1, 6), (2, 14), (3, 22)])
def test_bm_valences(q, valence):
    bm = bm_group_data(four_fold_cover(family_presentation(q)))
    assert bm.valences == (valence, valence)
    assert len(bm.relations) == len(bm.horizontal_generators) * len(bm.vertical_generators)


def test_bm_relations_alternate():
    bm = bm_group_data(four_fold_cover(family_presentation(1)))
    h = set(bm.horizontal_generators)
    v = set(bm.vertical_generators)
    for rel in bm.relations:
        assert len(rel) == 4
        (a, ea), (b, eb), (c, ec), (d, ed) = rel
        assert a in h and c in h and b in v and d in v
        assert a == c and b == d
        assert (ea, eb, ec, ed) == (1, 1, -1, -1)


def test_bm_rejects_unstable_presentation():
    with pytest.raises(NotBMReducible):
        bm_group_data(family_presentation(1))


def test_product_grading_formula_values():
    dims = product_grading_dims(2, 2).dims
    assert dims == (12, 48, 192)
    assert product_grading_dims(3, 1).dims == (30, 240)
    # g=3, m=1: 4g(2g-1)(2g-2) = 12 * 5 * 4
    assert product_grading_dims(3, 1).dims[1] == 4 * 3 * 5 * 4


def test_product_grading_rejects_small_rank():
    with pytest.raises(InvalidRank):
        product_grading_dims(1, 3)


def test_product_oracle_agrees_at_low_levels():
    # at m = 0, 1 the diagonal has no interior cell, so these levels
    # check the corner count and the boundary increment on their own
    for g in (2, 3):
        formula = product_grading_dims(g, 1).dims
        oracle = product_grading_dims_oracle(g, 1)
        assert formula == oracle


def test_product_oracle_exceeds_formula_at_higher_levels():
    # a closed form that counts all m + 1 diagonal cells as interior
    # undercounts for m >= 2: the enumerated boundary cells are larger
    g = 2
    all_interior = tuple((m + 1) * 2 * g * (2 * g - 1) ** (m - 1) * (2 * g - 2) ** 2
                         for m in range(2, 5))
    oracle = product_grading_dims_oracle(g, 4)
    assert oracle == (12, 48, 192, 720, 2592)
    assert product_grading_dims(g, 4).dims == oracle
    assert all(o > v for o, v in zip(oracle[2:], all_interior))


def test_product_table_matches_closed_count():
    table = product_dim_table(2, 3, 3)
    for l in range(4):
        for k in range(4):
            assert table[l][k] == 12 * 3 ** (l + k)


def test_inclusion_exclusion_product_table():
    a = [1, 3, 9, 27]
    b = [2, 4, 8, 16]
    table = [[x * y for y in b] for x in a]
    assert inclusion_exclusion_check(3, 3, table)


def test_inclusion_exclusion_enumerated_table():
    assert inclusion_exclusion_check(4, 4, product_dim_table(2, 4, 4))


def test_inclusion_exclusion_corrupted_table():
    table = product_dim_table(2, 2, 2)
    table[1][1] = 50  # monotone but the (1,1) increment goes negative
    assert not inclusion_exclusion_check(2, 2, table)


def test_inclusion_exclusion_nonmonotone_table():
    table = product_dim_table(2, 2, 2)
    table[1][1] = 5
    with pytest.raises(InvalidTable):
        inclusion_exclusion_check(2, 2, table)


def test_tau_symmetric_pentagon():
    x = solve_tau([2, 2, 2, 2, 2])
    assert x == pytest.approx(math.log((3 + math.sqrt(5)) / 2) / math.log(2), abs=1e-10)
    assert x == pytest.approx(1.38848, abs=1e-5)
    assert abs(tau_lhs([2] * 5, x) - 2) < 1e-12


def test_tau_symmetric_hexagon():
    x = solve_tau([2] * 6)
    assert x == pytest.approx(math.log(2 + math.sqrt(3)) / math.log(2), abs=1e-10)
    assert x == pytest.approx(1.89997, abs=1e-5)


@pytest.mark.parametrize("r", range(5, 13))
@pytest.mark.parametrize("q", [2, 3, 4])
def test_tau_symmetric_closed_form(r, q):
    assert solve_tau([q] * r) == pytest.approx(symmetric_tau_closed_form(r, q), abs=1e-10)


def test_tau_degenerate_square():
    with pytest.raises(DegenerateEuclidean):
        solve_tau([2, 2, 2, 2])
    with pytest.raises(DegenerateEuclidean):
        solve_tau([2, 3, 2, 3])


def test_tau_rejects_short_or_small_weights():
    with pytest.raises(InvalidPolygon):
        solve_tau([2, 2, 2])
    with pytest.raises(Exception):
        solve_tau([1, 2, 2, 2, 2])


def test_tau_mixed_weights_residual():
    weights = [2, 3, 4, 2, 5, 3, 2]
    x = solve_tau(weights)
    assert x > 0
    assert abs(tau_lhs(weights, x) - 2) < 1e-12


def test_tau_lhs_strictly_decreasing():
    weights = [2, 3, 2, 2, 4]
    xs = [0.05 * k for k in range(1, 60)]
    values = [tau_lhs(weights, x) for x in xs]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_presentation_fixtures():
    data = product_tree_presentation_fixtures()
    assert len(data["presentations"]) == 2
    for pres in data["presentations"]:
        assert len(pres["generators"]) == 4
        assert len(pres["relators"]) == 4
        for rel in pres["relators"]:
            assert len(rel) == 4
            kinds = [g[0][0] for g in rel]
            assert kinds == ["a", "b", "a", "b"]


def test_fake_projective_plane_constants():
    data = fake_projective_plane_constants()
    factors = [s["k0"]["invariant_factors"] for s in data["surfaces"]]
    assert factors == [[3], [2, 6]]
