"""Packed-word presentations against a tuple oracle.

The oracle below is the tuple-based implementation the packed one
replaced: words as letter tuples, a least rotation as ``min`` over the
rotations, windows as zipped rotations, corners as (label, letter) pairs.
Random presentations use string letters whose string order is not their
numeric order ("x10^1" < "x1^2"), and numeric letters; k is 3, 4 or 5;
words are repeated in other rotations and given ambiguous continuations.
"""

from collections import Counter
from itertools import chain, repeat
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra import buildings
from graphspectra.buildings import (
    BipartiteGraph,
    CompleteBipartite,
    LinkGraph,
    StablePairsResult,
    bm_group_data,
    family_presentation,
    four_fold_cover,
    letter_sup,
    make_presentation,
    polyhedron_from_presentation,
    validate_presentation,
)
from graphspectra.errors import NotBMReducible, PresentationInvalid

_TO_STANDARD = {(1, 2, 3, 4): 0, (4, 1, 2, 3): 1, (3, 4, 1, 2): 2, (2, 3, 4, 1): 3}


class TupleOracle:
    """A presentation kept as letter tuples: one least rotation per orbit."""

    def __init__(self, alphabet, lam, words, k):
        self.alphabet, self.lam, self.k = tuple(alphabet), tuple(lam), k
        self.words = tuple(sorted({min(_rotations(tuple(w))) for w in words}))

    @property
    def starts(self):
        return frozenset(chain.from_iterable(_windows(w, 2) for w in self.words))

    @property
    def unique_continuation(self):
        triples = set(chain.from_iterable(_windows(w, 3) for w in self.words))
        return len(triples) == len(self.starts)

    def duplicate_continuations(self):
        if self.unique_continuation:
            return ()
        conts = {}
        for w in self.words:
            for x1, x2, x3 in _windows(w, 3):
                conts.setdefault((x1, x2), set()).add(x3)
        return tuple(sorted((pair, tuple(sorted(c)))
                            for pair, c in conts.items() if len(c) > 1))[:8]

    def incidence(self, graphs):
        inverse = {label: x for x, label in self.lam}
        letters = set(self.alphabet)
        incident = {(inverse[w], b) for g in graphs for w, b in g.edges
                    if w in inverse and b in letters}
        starts = self.starts
        bad = []
        if incident != starts:
            for x1 in self.alphabet:
                for x2 in self.alphabet:
                    has_word = (x1, x2) in starts
                    if has_word != ((x1, x2) in incident):
                        bad.append((x1, x2, "word-without-incidence" if has_word
                                    else "incidence-without-word"))
        return buildings.ConditionReport(not bad, tuple(bad[:8]))

    def standard_forms(self):
        sup = {x: letter_sup(x) for x in self.alphabet}
        forms, bad = [], []
        for w in self.words:
            i = _TO_STANDARD.get(tuple(sup[x] for x in w))
            if i is None:
                bad.append(w)
            else:
                forms.append(w[i:] + w[:i])
        return tuple(forms), tuple(bad)

    def stable_pairs(self):
        if {letter_sup(x) for x in self.alphabet} != {1, 2, 3, 4}:
            return StablePairsResult(False, ("alphabet is not partitioned into "
                                             "superscript classes 1..4",))
        forms, bad = self.standard_forms()
        if bad:
            return StablePairsResult(False, bad[:8])
        witnesses = []
        fwd_x, bwd_x, fwd_y, bwd_y = {}, {}, {}, {}
        for w in forms:
            x1, y1, x2, y2 = w
            for fwd, bwd, a, b in ((fwd_x, bwd_x, x1, x2), (fwd_y, bwd_y, y1, y2)):
                if fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
                    witnesses.append(w)
                    break
        ok = not witnesses
        return StablePairsResult(ok, tuple(witnesses[:8]),
                                 tuple(sorted(fwd_x.items())) if ok else (),
                                 tuple(sorted(fwd_y.items())) if ok else ())

    def polyhedron(self):
        """(faces, edge letters, links as (blacks, whites, edges))."""
        lam = dict(self.lam)
        faces = self.words
        letters = tuple(sorted(set(chain.from_iterable(faces))))
        corners = Counter(chain.from_iterable(
            zip(map(lam.__getitem__, w), w[1:] + w[:1]) for w in faces))
        comp = ({}, {})
        root, nodes = [], []
        for white, black in corners:
            cw, cb = comp[0].get(white), comp[1].get(black)
            if cb is None:
                cb = comp[1][black] = len(root)
                root.append(("b", black))
                nodes.append([(1, black)])
            if cw is None:
                comp[0][white] = cb
                nodes[cb].append((0, white))
            elif cw != cb:
                keep, gone = (cw, cb) if len(nodes[cw]) > len(nodes[cb]) else (cb, cw)
                for side, x in nodes[gone]:
                    comp[side][x] = keep
                nodes[keep] += nodes[gone]
                root[keep] = root[cb]
        groups = {}
        for corner in corners:
            groups.setdefault(root[comp[0][corner[0]]], []).append(corner)
        links = []
        for node in sorted(groups, key=str):
            es = sorted(groups[node])
            links.append((tuple(sorted({b for _, b in es})),
                          tuple(sorted({w for w, _ in es})),
                          tuple(chain.from_iterable(map(repeat, es, map(corners.get, es))))))
        return faces, letters, tuple(links)

    def cover(self):
        patterns = ((1, 2, 3, 4), (4, 1, 2, 3), (3, 4, 1, 2), (2, 3, 4, 1))
        named = {x: {s: f"{x}^{s}" for s in (1, 2, 3, 4)} for x in self.alphabet}
        words = []
        for w in self.words:
            classes = [named[x] for x in w]
            words.extend(tuple(map(getitem, classes, pat)) for pat in patterns)
        lam = dict(self.lam)
        return TupleOracle(tuple(named[x][s] for x in self.alphabet for s in (1, 2, 3, 4)),
                           tuple((named[x][s], f"{lam[x]}^{s}")
                                 for x in self.alphabet for s in (1, 2, 3, 4)),
                           words, 4 if words else 0)

    def bm(self):
        forms = sorted(self.standard_forms()[0])
        x_star, y_star = forms[0][0], forms[0][1]
        return ((tuple(sorted({w[0] for w in forms} - {x_star})),
                 tuple(sorted({w[1] for w in forms} - {y_star}))),
                tuple(((w[0], 1), (w[1], 1), (w[0], -1), (w[1], -1)) for w in forms
                      if w[0] != x_star and w[1] != y_star))


def _rotations(w):
    return [w[i:] + w[:i] for i in range(len(w))]


def _windows(word, n):
    return zip(*(word[i:] + word[:i] for i in range(n)))


# string order is not numeric order: "x10^1" < "x1^1" < "x1^2" < "x2^1"
_STRING_LETTERS = tuple(f"x{m}^{s}" for m in (1, 2, 10, 12, 21) for s in (1, 2, 3, 4)) \
    + ("x1", "x10", "x2", "y^", "a'b")
_NUMBER_LETTERS = (1, 2, 3, 10, 12, 2.5, -4, 0.25)


@st.composite
def presentations(draw):
    """(alphabet, lam, words given, k): words drawn over blocks of a
    random alphabet (one link or more), or some words of the square
    family (q <= 3, so x10 < x2), then some repeated in another rotation,
    some sharing a starting pair with another word."""
    k = draw(st.sampled_from((3, 4, 5)))
    if k == 4 and draw(st.booleans()):
        family = family_presentation(draw(st.integers(1, 3)))
        alphabet, lam = family.alphabet, family.lam
        words = draw(st.lists(st.sampled_from(family.words), min_size=1, unique=True))
        if draw(st.booleans()):
            return alphabet, lam, words, k
    else:
        pool = draw(st.sampled_from((_STRING_LETTERS, _NUMBER_LETTERS)))
        alphabet = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8,
                                 unique=True))
        blocks = draw(st.integers(1, 3))
        words = []
        for block in filter(None, (alphabet[i::blocks] for i in range(blocks))):
            words += draw(st.lists(st.tuples(*[st.sampled_from(block)] * k),
                                   min_size=1, max_size=4))
        labels = [f"L{x}" if isinstance(x, str) else -1000 - x for x in alphabet]
        lam = tuple(zip(alphabet, draw(st.permutations(labels))))
    for w in draw(st.lists(st.sampled_from(words), max_size=3)):
        i = draw(st.integers(0, k - 1))
        words.append(w[i:] + w[:i])
    for w in draw(st.lists(st.sampled_from(words), max_size=2)):
        words.append(w[:2] + tuple(draw(st.sampled_from(alphabet)) for _ in range(k - 2)))
    return tuple(alphabet), lam, words, k


def _links(poly):
    return tuple((link.blacks, link.whites, link.edges) for link in poly.links)


def _graphs(data, oracle):
    """Link graphs for the incidence check: the words' own incidence,
    with an edge dropped or a stray edge added, as edge lists or as
    complete bipartite vertex sets."""
    lam = dict(oracle.lam)
    edges = sorted({(lam[x1], x2) for x1, x2 in oracle.starts}, key=repr)
    if edges and data.draw(st.booleans()):
        edges.pop(data.draw(st.integers(0, len(edges) - 1)))
    if data.draw(st.booleans()):
        edges.append((data.draw(st.sampled_from(oracle.lam))[1],
                      data.draw(st.sampled_from(oracle.alphabet))))
    graphs = [BipartiteGraph((), (), tuple(edges))]
    if data.draw(st.booleans()):
        whites = data.draw(st.lists(st.sampled_from([l for _, l in oracle.lam]),
                                    unique=True, max_size=3))
        blacks = data.draw(st.lists(st.sampled_from(oracle.alphabet), unique=True,
                                    max_size=3))
        graphs.append(CompleteBipartite(blacks, whites))
    return graphs


def _check(p, oracle, data):
    assert p.words == oracle.words
    assert {p.decode(c, 2) for c in p.starts} == oracle.starts
    assert p.unique_continuation == oracle.unique_continuation
    dup = oracle.duplicate_continuations()
    assert buildings._duplicate_continuations(p) == dup
    graphs = _graphs(data, oracle)
    assert validate_presentation(p, graphs).incidence == oracle.incidence(graphs)
    if dup:
        with pytest.raises(PresentationInvalid) as err:
            polyhedron_from_presentation(p)
        assert err.value.witness == dup
    else:
        poly = polyhedron_from_presentation(p)
        faces, letters, links = oracle.polyhedron()
        assert (poly.faces, poly.edge_letters, _links(poly)) == (faces, letters, links)
        assert [link.is_complete_bipartite() for link in poly.links] == [
            LinkGraph(*link).is_complete_bipartite() for link in links]
    if p.k == 4:
        forms = tuple(tuple(p.decode(w, 4) for w in part) for part in p.standard_forms)
        assert forms == oracle.standard_forms()
        result = oracle.stable_pairs()
        assert p.stable_pairs == result
        if result.ok:
            bm = bm_group_data(p)
            assert ((bm.horizontal_generators, bm.vertical_generators),
                    bm.relations) == oracle.bm()
        else:
            with pytest.raises(NotBMReducible):
                bm_group_data(p)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn=presentations(), data=st.data())
def test_packed_presentation_matches_the_tuple_oracle(drawn, data):
    alphabet, lam, words, k = drawn
    p = make_presentation(alphabet, lam, words)
    oracle = TupleOracle(alphabet, lam, words, k)
    _check(p, oracle, data)
    if k == 4 and all(isinstance(x, str) for x in alphabet):
        cover, oracle_cover = four_fold_cover(p), oracle.cover()
        assert (cover.alphabet, cover.lam) == (oracle_cover.alphabet, oracle_cover.lam)
        _check(cover, oracle_cover, data)
        # a word swapped for a same-class letter breaks the stable pairs
        words = list(cover.words)
        swap = data.draw(st.sampled_from(cover.alphabet))
        i = data.draw(st.integers(0, 3))
        words[0] = words[0][:i] + (swap,) + words[0][i + 1:]
        _check(make_presentation(cover.alphabet, cover.lam, words),
               TupleOracle(cover.alphabet, cover.lam, words, 4), data)
