import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra import buildings
from graphspectra.buildings import (
    BipartiteGraph,
    bm_group_data,
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
    solve_tau,
    stable_pairs_check,
    symmetric_tau_closed_form,
    tau_lhs,
    validate_presentation,
)
from graphspectra.cli import main
from graphspectra.graphs import bipartite_isomorphic
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
    assert p.words == (
        ("x1", "x1", "x4", "x4"),
        ("x1", "x2", "x4", "x3"),
        ("x1", "x3", "x4", "x2"),
        ("x2", "x2", "x3", "x3"),
    )
    assert len(p.codes) == 4  # one stored word per orbit


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_family_validates(q):
    p = family_presentation(q)
    assert len(p.words) == 4 * q * q
    assert len(p.alphabet) == 4 * q
    report = validate_presentation(p, [family_link_graph(q)])
    assert report.ok


def test_rotation_closure_holds_by_construction():
    p = family_presentation(1)
    # one arbitrary rotation per orbit, in no particular order
    given = (("x4", "x3", "x1", "x2"), ("x2", "x2", "x3", "x3"),
             ("x4", "x1", "x1", "x4"), ("x3", "x4", "x2", "x1"))
    direct = make_presentation(p.alphabet, p.lam, given)
    assert direct == p
    report = validate_presentation(direct, [family_link_graph(1)])
    assert report.rotation_closure.passed and report.ok


def _duplicate_continuation():
    p = family_presentation(1)
    extra = ("x1", "x2", "x3", "x2")  # (x1, x2) already continues with x4
    return make_presentation(p.alphabet, p.lam, list(p.words) + [extra])


def test_duplicate_continuation_detected():
    broken = _duplicate_continuation()
    report = validate_presentation(broken, [family_link_graph(1)])
    assert not report.unique_continuation.passed
    assert any(pair == ("x1", "x2") for pair, _ in report.unique_continuation.witnesses)


def test_validation_without_graphs_skips_incidence():
    p = family_presentation(1)
    assert validate_presentation(p).incidence is None
    assert validate_presentation(p).ok
    report = validate_presentation(_duplicate_continuation())
    assert report.incidence is None and not report.ok


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
    with pytest.raises(PresentationInvalid):
        polyhedron_from_presentation(_duplicate_continuation())


def test_empty_word_is_rejected_before_rotation(monkeypatch):
    monkeypatch.setattr(buildings, "_least_rotations", None)  # never reached
    with pytest.raises(PresentationInvalid) as err:
        make_presentation(("a",), (("a", "A"),), [()])
    assert err.value.witness == ()
    with pytest.raises(PresentationInvalid) as err:
        make_presentation(("a",), (("a", "A"),), [("a",), ()])
    assert err.value.witness == ()


def test_links_q1_complete_bipartite():
    poly = polyhedron_from_presentation(family_presentation(1))
    (link,) = poly.links
    assert link.is_complete_bipartite()
    assert bipartite_isomorphic(link, family_link_graph(1))


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


@st.composite
def bipartite_graphs(draw):
    """Small graphs with repeated vertices, stray and parallel edges."""
    vertices = st.sampled_from("abcd")
    blacks = tuple(draw(st.lists(vertices, max_size=3)))
    whites = tuple(draw(st.lists(vertices, max_size=3)))
    pairs = [(w, b) for w in set(whites) for b in set(blacks)]
    edges = draw(st.permutations(pairs))[:draw(st.integers(0, len(pairs)))]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
    edges += draw(st.lists(st.tuples(vertices, vertices), max_size=2))
    return BipartiteGraph(blacks, whites, tuple(draw(st.permutations(edges))))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(g=bipartite_graphs())
def test_complete_bipartite_matches_the_product_set(g):
    want = {(w, b) for w in g.whites for b in g.blacks}
    assert g.is_complete_bipartite() == (len(g.edges) == len(want)
                                         and set(g.edges) == want)


@pytest.mark.parametrize("letter, sup", [("x^3", 3), ("x^1^4", 4), ("x", None),
                                         ("x^y", None), ("x^", None), (7, None)])
def test_letter_sup_reads_an_integer_superscript_or_none(letter, sup):
    assert buildings.letter_sup(letter) == sup


@pytest.mark.parametrize("q", [1, 2, 3])
def test_links_isomorphic_to_expected(q):
    poly = polyhedron_from_presentation(family_presentation(q))
    (link,) = poly.links
    assert bipartite_isomorphic(link, family_link_graph(q))


def test_bipartite_isomorphism_search():
    g1 = BipartiteGraph(("a", "b"), ("x", "y"),
                        (("x", "a"), ("x", "b"), ("y", "a")))
    g2 = BipartiteGraph(("p", "q"), ("u", "v"),
                        (("v", "q"), ("u", "q"), ("v", "p")))
    assert bipartite_isomorphic(g1, g2)
    g3 = BipartiteGraph(("p", "q"), ("u", "v"),
                        (("v", "q"), ("u", "q"), ("u", "p")))
    assert bipartite_isomorphic(g1, g3)
    g4 = BipartiteGraph(("p", "q"), ("u", "v"), (("v", "q"), ("u", "q")))
    assert not bipartite_isomorphic(g1, g4)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_cover_satisfies_stable_pairs(q):
    cover = four_fold_cover(family_presentation(q))
    assert len(cover.words) == 16 * q * q
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
    orbits = list(cover.words)
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
    assert len(again.words) == 64


def test_cover_polyhedron_has_four_vertices():
    poly = polyhedron_from_presentation(four_fold_cover(family_presentation(1)))
    assert poly.vertex_count == 4
    assert all(link.is_complete_bipartite() for link in poly.links)
    expected = family_cover_link_graphs(1)
    assert all(any(bipartite_isomorphic(link, e) for e in expected) for link in poly.links)


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


def test_each_structural_check_runs_once(monkeypatch, capsysbinary):
    """Along the full building path each word of each presentation built
    is rotated at most once, each alphabet letter's superscript is parsed
    once, and the polyhedron checks closure and continuation without the
    incidence scan."""
    rotated, parsed = [], []
    least, letter_sup = buildings._least_rotations, buildings.letter_sup
    monkeypatch.setattr(buildings, "_least_rotations",
                        lambda codes, k, bits: rotated.append(len(codes))
                        or least(codes, k, bits))
    monkeypatch.setattr(buildings, "letter_sup",
                        lambda x: parsed.append(x) or letter_sup(x))
    assert main(["building", "--q", "2", "--cover", "--validate", "--links",
                 "--stable-pairs", "--bm"]) == 0
    capsysbinary.readouterr()
    assert rotated == [16, 64]  # the family's words, then the cover's
    cover = four_fold_cover(family_presentation(2))
    assert sorted(parsed) == sorted(cover.alphabet)

    def refused(*args):
        raise AssertionError("incidence scan")
    monkeypatch.setattr(buildings, "_incidence", refused)
    monkeypatch.setattr(buildings, "validate_presentation", refused)
    assert polyhedron_from_presentation(cover).vertex_count == 4


# Brute-force definitions of what a presentation derives from its
# words, for the property test below: each answer is read from the
# rotation closure of the words given, every word rotated afresh.

def _rotations(w):
    return [w[i:] + w[:i] for i in range(len(w))]


def _closure(words):
    return {r for w in words for r in _rotations(w)}


def _brute_orbits(closure):
    return sorted({min(_rotations(w)) for w in closure})


def _brute_duplicates(closure):
    starts = {}
    for w in closure:
        starts.setdefault(w[:2], set()).add(w[2 % len(w)])
    return tuple(sorted((pair, tuple(sorted(c)))
                        for pair, c in starts.items() if len(c) > 1))[:8]


def _brute_incidence(p, closure, graphs):
    lam = dict(p.lam)
    starts = {w[:2] for w in closure}
    incident = {e for g in graphs for e in g.edges}
    bad = []
    for x1 in p.alphabet:
        for x2 in p.alphabet:
            has_word = (x1, x2) in starts
            if has_word != ((lam[x1], x2) in incident):
                bad.append((x1, x2, "word-without-incidence" if has_word
                            else "incidence-without-word"))
    return tuple(bad[:8])


def _brute_standard_forms(closure):
    forms, bad = [], []
    for w in _brute_orbits(closure):
        for rot in _rotations(w):
            if tuple(buildings.letter_sup(x) for x in rot) == (1, 2, 3, 4):
                forms.append(rot)
                break
        else:
            bad.append(w)
    return tuple(forms), tuple(bad)


def _brute_stable_pairs(p, closure):
    if {buildings.letter_sup(x) for x in p.alphabet} != {1, 2, 3, 4}:
        return buildings.StablePairsResult(
            False, ("alphabet is not partitioned into superscript classes 1..4",))
    forms, bad = _brute_standard_forms(closure)
    if bad:
        return buildings.StablePairsResult(False, bad[:8])
    witnesses, maps = [], ({}, {}, {}, {})
    for w in forms:
        x1, y1, x2, y2 = w
        for fwd, bwd, a, b in ((maps[0], maps[1], x1, x2), (maps[2], maps[3], y1, y2)):
            if fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
                witnesses.append(w)
                break
    ok = not witnesses
    return buildings.StablePairsResult(
        ok, tuple(witnesses[:8]), tuple(sorted(maps[0].items())) if ok else (),
        tuple(sorted(maps[2].items())) if ok else ())


def _brute_links(p, closure):
    """Links by union-find over every corner, one node per end."""
    lam = dict(p.lam)
    corners = [(lam[w[m]], w[(m + 1) % p.k]) for w in _brute_orbits(closure)
               for m in range(p.k)]
    parent = {}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a
    for white, black in corners:
        w, b = ("w", white), ("b", black)
        parent.setdefault(w, w)
        parent.setdefault(b, b)
        rw, rb = find(w), find(b)
        if rw != rb:
            parent[rw] = rb
    groups = {}
    for white, black in corners:
        groups.setdefault(find(("w", white)), []).append((white, black))
    return tuple(buildings.LinkGraph(tuple(sorted({b for _, b in es})),
                                     tuple(sorted({w for w, _ in es})),
                                     tuple(sorted(es)))
                 for _, es in sorted(groups.items(), key=lambda kv: str(kv[0])))


_LETTERS = ("a", "b", "c", "a^1", "a^2", "a^3", "a^4", "b^1", "b^2", "b^3",
            "b^4", "c^1", "c^3")


@st.composite
def presentations(draw):
    """Small presentations with the words they were given: k in {2, 3, 4},
    plain and superscripted letters, four-fold covers, a word added (an
    extra continuation, or another rotation of a word already there), each
    word given in an arbitrary rotation and order, built through
    make_presentation or packed by hand and stored directly."""
    k = draw(st.sampled_from((2, 3, 4)))
    alphabet = draw(st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=6,
                             unique=True))
    word = st.tuples(*[st.sampled_from(alphabet)] * k)
    words = draw(st.lists(word, min_size=1, max_size=6))
    lam = tuple((x, x.upper()) for x in alphabet)
    p = make_presentation(alphabet, lam, words)
    if k == 4 and draw(st.booleans()):
        p = four_fold_cover(p)
        words = list(p.words)
    if draw(st.booleans()):
        words.append(tuple(draw(st.sampled_from(p.alphabet)) for _ in range(k)))
    if draw(st.booleans()):
        words.append(draw(st.sampled_from(words)))
    shifts = draw(st.lists(st.integers(0, k - 1), min_size=len(words),
                           max_size=len(words)))
    words = draw(st.permutations([w[i:] + w[:i] for w, i in zip(words, shifts)]))
    if draw(st.booleans()):
        p = make_presentation(p.alphabet, p.lam, words)
    else:
        rank = {x: r for r, x in enumerate(p.letters)}
        codes = [sum(rank[x] << p.bits * (k - 1 - i) for i, x in enumerate(w)) for w in words]
        p = buildings.PolygonalPresentation(p.alphabet, p.lam, tuple(codes), k)
    return p, _closure(words)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn=presentations(), data=st.data())
def test_derived_data_matches_brute_force(drawn, data):
    p, closure = drawn
    assert list(p.words) == _brute_orbits(closure)
    assert {p.decode(c, 2) for c in p.starts} == {w[:2] for w in closure}

    # link graphs that carry the words' starting pairs, perhaps one edge
    # fewer or one more
    edges = sorted({(dict(p.lam)[w[0]], w[1]) for w in closure})
    if edges and data.draw(st.booleans()):
        edges.pop(data.draw(st.integers(0, len(edges) - 1)))
    if data.draw(st.booleans()):
        edges.append((data.draw(st.sampled_from(p.lam))[1],
                      data.draw(st.sampled_from(p.alphabet))))
    graphs = [BipartiteGraph((), (), tuple(edges))]
    report = validate_presentation(p, graphs)
    dup = _brute_duplicates(closure)
    assert report.rotation_closure == buildings.ConditionReport(True)
    assert report.unique_continuation == buildings.ConditionReport(not dup, dup)
    bad = _brute_incidence(p, closure, graphs)
    assert report.incidence == buildings.ConditionReport(not bad, bad)
    assert validate_presentation(p) == buildings.ValidationReport(
        report.rotation_closure, None, report.unique_continuation)

    if dup:
        with pytest.raises(PresentationInvalid) as err:
            polyhedron_from_presentation(p)
        assert err.value.witness == dup
    else:
        poly = polyhedron_from_presentation(p)
        assert list(poly.faces) == _brute_orbits(closure)
        assert poly.links == _brute_links(p, closure)

    if p.k == 4:
        if {buildings.letter_sup(x) for x in p.alphabet} == {1, 2, 3, 4}:
            assert tuple(tuple(p.decode(w, 4) for w in part)
                         for part in p.standard_forms) == _brute_standard_forms(closure)
        assert stable_pairs_check(p) == _brute_stable_pairs(p, closure)


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


def test_product_oracle_enumerates_each_length_once(monkeypatch):
    lengths = []
    count = buildings.product_word_counts
    monkeypatch.setattr(buildings, "product_word_counts",
                        lambda g, n: lengths.append(n) or count(g, n))
    assert product_grading_dims_oracle(2, 8) == product_grading_dims(2, 8).dims
    assert lengths == list(range(1, 10))
    lengths.clear()
    product_dim_table(2, 1, 3)
    assert lengths == [1, 2, 3, 4]


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


DATA = Path(__file__).parent / "data"


def test_presentation_fixtures():
    """Two combinatorially inequivalent vertex-transitive presentations on
    a product of two degree-4 trees, kept as documentation fixtures."""
    data = json.loads((DATA / "product_tree_presentations.json").read_text())
    assert len(data["presentations"]) == 2
    for pres in data["presentations"]:
        assert len(pres["generators"]) == 4
        assert len(pres["relators"]) == 4
        for rel in pres["relators"]:
            assert len(rel) == 4
            kinds = [g[0][0] for g in rel]
            assert kinds == ["a", "b", "a", "b"]


def test_fake_projective_plane_constants():
    """Documented K-group constants of the two index-3 quotients of the
    rank-2 building over Q_2; recorded, never computed."""
    data = json.loads((DATA / "fake_projective_planes.json").read_text())
    factors = [s["k0"]["invariant_factors"] for s in data["surfaces"]]
    assert factors == [[3], [2, 6]]
