"""Polygonal presentations, square-complex assembly, and exponent equations.

A polygonal presentation is a set of cyclic k-tuples over a pointed
alphabet P with a basic bijection lam: P -> L such that

  (1) the tuple set is closed under cyclic rotation,
  (2) a pair (x1, x2) starts a tuple iff x2 and lam(x1) are incident in
      one of the given bipartite graphs,
  (3) a pair (x1, x2) extends to at most one continuation.

The associated polyhedron has one k-gon per rotation orbit with the
tuple written on its boundary and sides of equal label glued preserving
orientation.  Vertices correspond to connected components of the corner
incidence graph, so the polyhedron has n vertices (one per graph),
(sum_i s_i)/2 edges and (sum_i t_i)/k faces, where s_i and t_i count the
vertices and edges of the i-th link graph; the links themselves are
recovered by corner walking.

Letters may carry a superscript class written 'base^s'.  The four-fold
cover replaces each square word by four superscript-cycled copies; when
the result satisfies the stable-pairs condition, collapsing one word
turns every remaining boundary word into a commutator and exhibits a
group acting on a product of trees with even valences.

A presentation stores one word per rotation orbit, its least rotation,
so (1) holds by construction: each given word is rotated once, when the
presentation is made.  The starting pairs and the continuation verdict
are read from the cyclic windows of the stored words; they, each word's
superscript standard form and the stable-pairs verdict are derived once
per presentation, when first read.  The ordered witness scans (ambiguous
continuations, incidence mismatches) run only when a verdict fails.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import chain, repeat
from operator import getitem

from .errors import (
    BracketFailure,
    DegenerateEuclidean,
    InvalidParameter,
    InvalidPolygon,
    InvalidRank,
    InvalidTable,
    NotBMReducible,
    PresentationInvalid,
    RequiresSquares,
)
from .graphs import isomorphisms


def letter_sup(letter) -> int | None:
    """The superscript class n of a letter "x^n"; None for a letter that
    is not a str or has no integer after its last "^"."""
    if not isinstance(letter, str) or "^" not in letter:
        return None
    try:
        return int(letter.rsplit("^", 1)[1])
    except ValueError:
        return None


def with_sup(letter: str, sup: int) -> str:
    return f"{letter}^{sup}"


def rotations(word: tuple) -> list[tuple]:
    return [word[i:] + word[:i] for i in range(len(word))]


# superscripts of a square word -> the rotation that puts them in order
# (1, 2, 3, 4); these are the four copies of four_fold_cover
_TO_STANDARD = {(1, 2, 3, 4): 0, (4, 1, 2, 3): 1, (3, 4, 1, 2): 2, (2, 3, 4, 1): 3}


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite (multi)graph with black and white vertex sets."""

    blacks: tuple
    whites: tuple
    edges: tuple  # (white, black) pairs, repeats = multiplicity

    def is_complete_bipartite(self) -> bool:
        """Each white-black pair is an edge exactly once: every edge lies
        in whites x blacks, and there are as many edges, and as many
        distinct edges, as such pairs."""
        whites, blacks = set(self.whites), set(self.blacks)
        pairs = len(whites) * len(blacks)
        return (len(self.edges) == pairs
                and all(w in whites and b in blacks for w, b in self.edges)
                and len(set(self.edges)) == pairs)

    def _coded(self) -> list[list[int]]:
        """Square matrix on whites then blacks: edge multiplicities off
        the diagonal (both ways), the colour on it (-1 white, -2 black)."""
        index = {("w", w): k for k, w in enumerate(self.whites)}
        index.update({("b", b): len(index) + k for k, b in enumerate(self.blacks)})
        m = [[0] * len(index) for _ in index]
        for (colour, _), k in index.items():
            m[k][k] = -1 if colour == "w" else -2
        for w, b in self.edges:
            i, j = index["w", w], index["b", b]
            m[i][j] += 1
            m[j][i] += 1
        return m

    def isomorphic_to(self, other: "BipartiteGraph") -> bool:
        """Colour-preserving multigraph isomorphism, by
        :func:`graphs.isomorphisms` on the coded matrices."""
        return next(isomorphisms(self._coded(), other._coded()),
                    None) is not None


def complete_bipartite(blacks, whites) -> BipartiteGraph:
    return BipartiteGraph(tuple(blacks), tuple(whites),
                          tuple((w, b) for w in whites for b in blacks))


@dataclass(frozen=True)
class PolygonalPresentation:
    """Cyclic k-tuples over a pointed alphabet with basic bijection, kept
    as one word per rotation orbit: each given word is rotated once, on
    construction, and its least rotation stored."""

    alphabet: tuple            # pointed letters (the black side)
    lam: tuple                 # (letter, label) pairs, a bijection P -> L
    words: tuple               # least rotation per orbit, sorted
    k: int

    def __post_init__(self):
        known = set(self.alphabet)
        if not (set(map(len, self.words)) <= {self.k} - {0}
                and known.issuperset(chain.from_iterable(self.words))):
            for w in self.words:  # the first offending tuple or letter
                if len(w) != self.k:
                    raise PresentationInvalid(
                        f"tuple length {len(w)} != {self.k}", witness=w)
                if not w:
                    raise PresentationInvalid("tuple is empty", witness=w)
                for x in w:
                    if x not in known:
                        raise PresentationInvalid("tuple uses unknown letter",
                                                  witness=x)
        letters = [p for p, _ in self.lam]
        labels = [l for _, l in self.lam]
        if sorted(letters) != sorted(self.alphabet) or len(set(labels)) != len(labels):
            raise PresentationInvalid("basic bijection must be a bijection on the alphabet")
        object.__setattr__(self, "words", tuple(sorted(
            {min(rotations(w)) for w in self.words})))

    def lam_map(self) -> dict:
        return dict(self.lam)

    def orbits(self) -> list[tuple]:
        """Canonical (lexicographically minimal) representative per
        rotation orbit: the stored words."""
        return list(self.words)

    @cached_property
    def starts(self) -> frozenset:
        """The starting pairs (x1, x2): every cyclic two-letter window."""
        return frozenset(chain.from_iterable(_windows(w, 2) for w in self.words))

    @cached_property
    def unique_continuation(self) -> bool:
        """Each starting pair has a single continuation x3: there are as
        many distinct cyclic three-letter windows as starting pairs."""
        triples = set(chain.from_iterable(_windows(w, 3) for w in self.words))
        return len(triples) == len(self.starts)

    @cached_property
    def superscripts(self) -> dict:
        """Letter -> superscript class (None without one), parsed once."""
        return {x: letter_sup(x) for x in self.alphabet}

    @cached_property
    def standard_forms(self) -> tuple[tuple, tuple]:
        """Each word rotated to superscript order (1, 2, 3, 4), and the
        words that have no such rotation, both in word order."""
        sup = self.superscripts
        forms, bad = [], []
        for w in self.words:
            i = _TO_STANDARD.get(tuple([sup[x] for x in w]))
            if i is None:
                bad.append(w)
            else:
                forms.append(w[i:] + w[:i])
        return tuple(forms), tuple(bad)

    @cached_property
    def stable_pairs(self) -> StablePairsResult:
        """:func:`stable_pairs_check` of square words."""
        if set(self.superscripts.values()) != {1, 2, 3, 4}:
            return StablePairsResult(False, ("alphabet is not partitioned into "
                                             "superscript classes 1..4",))
        forms, bad = self.standard_forms
        if bad:
            return StablePairsResult(False, bad[:8])

        witnesses = []
        fwd_x: dict = {}
        bwd_x: dict = {}
        fwd_y: dict = {}
        bwd_y: dict = {}
        for w in forms:
            x1, y1, x2, y2 = w
            for fwd, bwd, a, b in ((fwd_x, bwd_x, x1, x2), (fwd_y, bwd_y, y1, y2)):
                if fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
                    witnesses.append(w)
                    break
        ok = not witnesses
        return StablePairsResult(
            ok, tuple(witnesses[:8]),
            tuple(sorted(fwd_x.items())) if ok else (),
            tuple(sorted(fwd_y.items())) if ok else ())


def _windows(word: tuple, n: int):
    """The cyclic n-letter windows of a word, one per starting letter."""
    return zip(*(word[i:] + word[:i] for i in range(n)))


def make_presentation(alphabet, lam_pairs, words) -> PolygonalPresentation:
    """A presentation whose k is the length of its first word (0 with none)."""
    words = tuple(map(tuple, words))
    return PolygonalPresentation(tuple(alphabet), tuple(lam_pairs), words,
                                 len(words[0]) if words else 0)


def family_presentation(q: int) -> PolygonalPresentation:
    """The 4q^2-word square presentation family over 4q letters.

    Over the alphabet x_1..x_4q (with lam(x_l) = y_l) the cyclic words
    are, for i, j in [0, q):

        (x_{1+4i}, x_{2+4j}, x_{4+4i}, x_{3+4j})
        (x_{1+4i}, x_{1+4j}, x_{4+4i}, x_{4+4j})
        (x_{1+4i}, x_{3+4j}, x_{4+4i}, x_{2+4j})
        (x_{2+4i}, x_{2+4j}, x_{3+4i}, x_{3+4j})

    The polyhedron has a single vertex with link the complete bipartite
    graph on 4q + 4q vertices.
    """
    if q < 1:
        raise InvalidParameter("family parameter must be >= 1", witness=q)
    x = {m: f"x{m}" for m in range(1, 4 * q + 1)}
    words = []
    for i in range(q):
        for j in range(q):
            words.append((x[1 + 4 * i], x[2 + 4 * j], x[4 + 4 * i], x[3 + 4 * j]))
            words.append((x[1 + 4 * i], x[1 + 4 * j], x[4 + 4 * i], x[4 + 4 * j]))
            words.append((x[1 + 4 * i], x[3 + 4 * j], x[4 + 4 * i], x[2 + 4 * j]))
            words.append((x[2 + 4 * i], x[2 + 4 * j], x[3 + 4 * i], x[3 + 4 * j]))
    alphabet = tuple(x[m] for m in range(1, 4 * q + 1))
    lam = tuple((f"x{m}", f"y{m}") for m in range(1, 4 * q + 1))
    return make_presentation(alphabet, lam, words)


def family_link_graph(q: int) -> BipartiteGraph:
    """The expected link of the family: K_{4q,4q}."""
    return complete_bipartite([f"x{m}" for m in range(1, 4 * q + 1)],
                              [f"y{m}" for m in range(1, 4 * q + 1)])


def family_cover_link_graphs(q: int) -> list[BipartiteGraph]:
    """Expected links of the four-fold cover of the family: one complete
    bipartite graph per superscript class, white ends of class s meeting
    black ends of class s+1 (cyclically)."""
    out = []
    for s in range(1, 5):
        nxt = s % 4 + 1
        out.append(complete_bipartite(
            [with_sup(f"x{m}", nxt) for m in range(1, 4 * q + 1)],
            [with_sup(f"y{m}", s) for m in range(1, 4 * q + 1)]))
    return out


@dataclass(frozen=True)
class ConditionReport:
    passed: bool
    witnesses: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    rotation_closure: ConditionReport
    incidence: ConditionReport | None  # None: no link graphs to check against
    unique_continuation: ConditionReport

    @property
    def ok(self) -> bool:
        return (self.rotation_closure.passed
                and (self.incidence is None or self.incidence.passed)
                and self.unique_continuation.passed)


def validate_presentation(p: PolygonalPresentation,
                          graphs: list[BipartiteGraph] | None = None
                          ) -> ValidationReport:
    """Check the three defining conditions; failures carry witnesses.
    Rotation closure holds by construction (a presentation stores its
    rotation orbits), so it always passes.  Without ``graphs`` the
    incidence condition is not checked and the report's ``incidence`` is
    None."""
    dup = _duplicate_continuations(p)
    cond1 = ConditionReport(True)
    cond3 = ConditionReport(not dup, dup)
    if graphs is None:
        return ValidationReport(cond1, None, cond3)

    # the pairs (x1, x2) with lam(x1) incident to x2 in some graph
    inverse = {label: x for x, label in p.lam_map().items()}
    letters = set(p.alphabet)
    incident = {(inverse[w], b) for g in graphs for w, b in g.edges
                if w in inverse and b in letters}
    starts = p.starts
    bad = []
    if incident != starts:  # list the mismatches in alphabet order
        for x1 in p.alphabet:
            for x2 in p.alphabet:
                has_word = (x1, x2) in starts
                if has_word != ((x1, x2) in incident):
                    bad.append((x1, x2, "word-without-incidence" if has_word
                                else "incidence-without-word"))
    cond2 = ConditionReport(not bad, tuple(bad[:8]))
    return ValidationReport(cond1, cond2, cond3)


def _duplicate_continuations(p: PolygonalPresentation) -> tuple:
    """The starting pairs with more than one continuation (at most 8),
    sorted with their sorted letters; empty when the verdict passes."""
    if p.unique_continuation:
        return ()
    conts: dict = {}
    for w in p.words:
        for x1, x2, x3 in _windows(w, 3):
            conts.setdefault((x1, x2), set()).add(x3)
    return tuple(sorted((pair, tuple(sorted(c)))
                        for pair, c in conts.items() if len(c) > 1))[:8]


@dataclass(frozen=True)
class LinkGraph(BipartiteGraph):
    """Link at a polyhedron vertex: whites are head-ends lam(x), blacks
    are tail-ends x, one edge per face corner mapped to the vertex."""


@dataclass(frozen=True)
class Polyhedron:
    faces: tuple          # canonical boundary word per face
    edge_letters: tuple   # one edge per letter
    links: tuple          # one LinkGraph per vertex

    @property
    def vertex_count(self) -> int:
        return len(self.links)

    @property
    def edge_count(self) -> int:
        return len(self.edge_letters)

    @property
    def face_count(self) -> int:
        return len(self.faces)


def polyhedron_from_presentation(p: PolygonalPresentation) -> Polyhedron:
    """Assemble the polyhedron: one k-gon per rotation orbit, sides with
    equal labels glued.  Raises PresentationInvalid when unique
    continuation fails (incidence needs the graphs and is not checked
    here)."""
    if not p.words:
        return Polyhedron((), (), ())
    dup = _duplicate_continuations(p)
    if dup:
        raise PresentationInvalid("continuation is not unique", witness=dup)

    lam = p.lam_map()
    faces = p.words
    letters = tuple(sorted(set(chain.from_iterable(faces))))

    # corner between consecutive sides (x_m, x_{m+1}): link edge from the
    # white end lam(x_m) to the black end x_{m+1}; each distinct corner
    # once, in the order met, with its multiplicity
    corners = Counter(chain.from_iterable(
        zip(map(lam.__getitem__, w), w[1:] + w[:1]) for w in faces))

    # Link components by union-find over the distinct corners in the order
    # met, relabelling the smaller component's nodes on a merge.  The root
    # only orders the links (by str) and follows union(white, black): the
    # black end's root names the merged component.
    comp = ({}, {})       # white / black end -> component id
    root, nodes = [], []  # per component id: its root node, its nodes
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

    groups: dict = {}
    for corner in corners:
        groups.setdefault(root[comp[0][corner[0]]], []).append(corner)
    links = []
    for node in sorted(groups, key=str):
        es = sorted(groups[node])
        whites = tuple(sorted({w for w, _ in es}))
        blacks = tuple(sorted({b for _, b in es}))
        edges = tuple(chain.from_iterable(map(repeat, es, map(corners.get, es))))
        links.append(LinkGraph(blacks, whites, edges))
    return Polyhedron(faces, letters, tuple(links))


@dataclass(frozen=True)
class StablePairsResult:
    ok: bool
    witnesses: tuple = ()
    x_pairing: tuple = ()   # (class-1 letter, class-3 letter) pairs
    y_pairing: tuple = ()   # (class-2 letter, class-4 letter) pairs

    def __bool__(self) -> bool:
        return self.ok


def stable_pairs_check(p: PolygonalPresentation) -> StablePairsResult:
    """Stable-pairs condition for square presentations over four
    superscript classes.

    Every word must read (x1-class, y1-class, x2-class, y2-class) up to
    rotation, the opposite x-letters must determine each other, and so
    must the opposite y-letters.  Returns the discovered pairings.
    """
    if p.k != 4:
        raise RequiresSquares("stable pairs needs square faces", witness=p.k)
    return p.stable_pairs


def four_fold_cover(p: PolygonalPresentation) -> PolygonalPresentation:
    """Replace each square word (a, b, c, d) by its four superscript-cycled
    copies (a^1,b^2,c^3,d^4), (a^4,b^1,c^2,d^3), (a^3,b^4,c^1,d^2),
    (a^2,b^3,c^4,d^1); the assembled polyhedron has four times as many
    vertices."""
    if p.k != 4:
        raise RequiresSquares("cover construction needs square faces",
                              witness=p.k)
    patterns = ((1, 2, 3, 4), (4, 1, 2, 3), (3, 4, 1, 2), (2, 3, 4, 1))
    named = {x: {s: with_sup(x, s) for s in (1, 2, 3, 4)} for x in p.alphabet}
    words = []
    for w in p.words:
        classes = [named[x] for x in w]
        words.extend(tuple(map(getitem, classes, pat)) for pat in patterns)
    alphabet = tuple(named[x][s] for x in p.alphabet for s in (1, 2, 3, 4))
    lam = p.lam_map()
    lam_pairs = tuple((named[x][s], with_sup(lam[x], s))
                      for x in p.alphabet for s in (1, 2, 3, 4))
    return make_presentation(alphabet, lam_pairs, words)


@dataclass(frozen=True)
class BMGroupData:
    """Generators and commutator-shaped relations of a vertex-transitive
    product-of-trees group."""

    horizontal_generators: tuple
    vertical_generators: tuple
    relations: tuple   # 4-tuples of (generator, exponent)

    def __post_init__(self):
        hset, vset = set(self.horizontal_generators), set(self.vertical_generators)
        for rel in self.relations:
            if len(rel) != 4:
                raise NotBMReducible("relations must have length 4", witness=rel)
            gens = [g for g, _ in rel]
            if not (gens[0] in hset and gens[1] in vset
                    and gens[2] in hset and gens[3] in vset):
                raise NotBMReducible("relations must alternate horizontal "
                                     "and vertical generators", witness=rel)

    @property
    def valences(self) -> tuple:
        return (2 * len(self.horizontal_generators),
                2 * len(self.vertical_generators))


def bm_group_data(p: PolygonalPresentation) -> BMGroupData:
    """Collapse one word of a stable-pairs presentation and read off the
    commutator relations.

    The lexicographically first standard-form word is collapsed; its
    x- and y-letters (with their opposite partners) become trivial, every
    other word (a, b, a', b') turns into the relation a b a^-1 b^-1, and
    the group acts on trees of valence twice the generator counts.
    """
    result = stable_pairs_check(p)
    if not result.ok:
        if isinstance(result.witnesses[0], str):  # no superscript classes
            raise NotBMReducible(result.witnesses[0])
        raise NotBMReducible("presentation fails the stable pairs condition",
                             witness=result.witnesses)
    forms = sorted(p.standard_forms[0])
    collapsed = forms[0]
    x_star, y_star = collapsed[0], collapsed[1]
    horizontal = tuple(sorted({w[0] for w in forms} - {x_star}))
    vertical = tuple(sorted({w[1] for w in forms} - {y_star}))
    relations = []
    for w in forms:
        a, b = w[0], w[1]
        if a == x_star or b == y_star:
            continue  # Tietze elimination of the collapsed letters
        relations.append(((a, 1), (b, 1), (a, -1), (b, -1)))
    return BMGroupData(horizontal, vertical, tuple(relations))


@dataclass(frozen=True)
class ProductGradingDims:
    rank: int
    dims: tuple

    def __post_init__(self):
        if any(d <= 0 for d in self.dims):
            raise InvalidParameter("grading dimensions must be positive")


def product_grading_dims(g: int, max_level: int) -> ProductGradingDims:
    """Closed-form eigenspace dimensions of the diagonal grading on a
    product of two rank-g shifts with corner-compatible word pairs:

        dim E_0 = 2g(2g-1)
        dim E_m = (m-1) 2g(2g-1)^(m-1)(2g-2)^2 + 4g(2g-1)^m (2g-2)   for m >= 1.

    The joint table is dim V_{l,k} = 2g(2g-1)^(l+k+1), so each diagonal
    l + k = m has m - 1 interior cells with increment
    2g(2g-1)^(m-1)(2g-2)^2 and two boundary cells (l = 0 or k = 0) with
    increment 2g(2g-1)^m (2g-2); at m = 1 this is 4g(2g-1)(2g-2).
    The variant that counts all m + 1 cells as interior,
    (m+1) 2g(2g-1)^(m-1)(2g-2)^2, disagrees with enumeration
    (:func:`product_grading_dims_oracle`) for m >= 2.
    """
    if g < 2:
        raise InvalidRank("product grading needs rank >= 2", witness=g)
    dims = []
    for m in range(max_level + 1):
        if m == 0:
            dims.append(2 * g * (2 * g - 1))
        else:
            dims.append((m - 1) * 2 * g * (2 * g - 1) ** (m - 1) * (2 * g - 2) ** 2
                        + 4 * g * (2 * g - 1) ** m * (2 * g - 2))
    return ProductGradingDims(g, tuple(dims))


def product_word_counts(g: int, length: int) -> dict:
    """Brute-force count of admissible rank-g words of the given length,
    bucketed by first letter (enumeration, no matrix algebra)."""
    from .shift import enumerate_words, full_schottky_sft
    counts = {a: 0 for a in range(2 * g)}
    for w in enumerate_words(full_schottky_sft(g), length):
        counts[w[0]] += 1
    return counts


def product_dim_table(g: int, max_h: int, max_v: int) -> list[list[int]]:
    """dim V_{l,k} for the corner-compatible pair model, by enumeration.

    A pair (u, w) of admissible words is admissible when the corner
    letters are composable, A[u_0][w_0] = 1, so the level-(0,0) count is
    2g(2g-1) and each extension step multiplies by (2g-1).
    """
    if g < 2:
        raise InvalidRank("product table needs rank >= 2", witness=g)
    from .graphs import cayley_schottky_matrix
    a = cayley_schottky_matrix(g).matrix
    counts = [product_word_counts(g, n) for n in range(1, max(max_h, max_v) + 2)]
    horizontal, vertical = counts[:max_h + 1], counts[:max_v + 1]
    table = []
    for l in range(max_h + 1):
        row = []
        for k in range(max_v + 1):
            row.append(sum(horizontal[l][i] * vertical[k][j]
                           for i in range(2 * g) for j in range(2 * g)
                           if a[i][j]))
        table.append(row)
    return table


def product_grading_dims_oracle(g: int, max_level: int) -> tuple:
    """dim E_m = sum over l+k = m of the four-term increments of the
    enumerated table; the independent cross-check for the closed formula."""
    table = product_dim_table(g, max_level, max_level)
    return tuple(sum(_increment(table, l, m - l) for l in range(m + 1))
                 for m in range(max_level + 1))


def _increment(table, l: int, k: int) -> int:
    """Four-term increment t(l,k) - t(l-1,k) - t(l,k-1) + t(l-1,k-1) of a
    joint dimension table, with t = 0 at negative indices."""
    def t(i, j):
        return table[i][j] if i >= 0 and j >= 0 else 0
    return t(l, k) - t(l - 1, k) - t(l, k - 1) + t(l - 1, k - 1)


def inclusion_exclusion_check(max_h: int, max_v: int, table) -> bool:
    """Certify a joint filtration dimension table: monotone in both
    directions (else InvalidTable), all four-term increments nonnegative,
    and the increments resum exactly to the corner entry."""
    for l in range(max_h + 1):
        for k in range(max_v + 1):
            if l and table[l][k] < table[l - 1][k]:
                raise InvalidTable("table not monotone in the first index",
                                   witness=(l, k))
            if k and table[l][k] < table[l][k - 1]:
                raise InvalidTable("table not monotone in the second index",
                                   witness=(l, k))

    total = 0
    for l in range(max_h + 1):
        for k in range(max_v + 1):
            inc = _increment(table, l, k)
            if inc < 0:
                return False
            total += inc
    return total == table[max_h][max_v]


def tau_lhs(weights, x: float) -> float:
    """Left side of the exponent equation, cyclic in the weights:
    sum_i (q_i^x + q_{i+1}^x) / ((1 + q_i^x)(1 + q_{i+1}^x)).

    A term whose denominator is past float range takes its limit in the
    larger power, 1 / (1 + the smaller power): 0 when both are infinite.
    """
    r = len(weights)
    total = 0.0
    for i in range(r):
        a = _power(weights[i], x)
        b = _power(weights[(i + 1) % r], x)
        den = (1 + a) * (1 + b)
        total += 1 / (1 + min(a, b)) if den == math.inf else (a + b) / den
    return total


def _power(q: int, x: float) -> float:
    """q ** x, through exp(x log q) when that overflows, and inf past
    float range."""
    try:
        return q ** x
    except OverflowError:
        try:
            return math.exp(x * math.log(q))
        except OverflowError:
            return math.inf


def solve_tau(weights, tol: float = 1e-13) -> float:
    """Unique positive root of the exponent equation LHS(x) = 2.

    The left side is strictly decreasing for positive x when all weights
    are >= 2, starting from r/2 at x = 0.  Bracketed bisection on
    [1e-9, 64] down to ``tol`` followed by Newton refinement; the result
    satisfies |LHS(x) - 2| < 1e-12.

    A square with equal weights is flat (root at x = 0) and raises
    DegenerateEuclidean; fewer than four sides raise InvalidPolygon.
    """
    ws = [int(q) for q in weights]
    r = len(ws)
    if r < 4:
        raise InvalidPolygon("need at least four sides", witness=r)
    if any(q < 2 for q in ws):
        raise InvalidParameter("weights must be >= 2", witness=ws)
    if r == 4:
        # LHS(0) = r/2 = 2 for every choice of four weights, so the only
        # root is the Euclidean one at x = 0
        raise DegenerateEuclidean("four sides are Euclidean; the root sits "
                                  "at x = 0", witness=ws)

    lo, hi = 1e-9, 64.0
    f_lo = tau_lhs(ws, lo) - 2
    f_hi = tau_lhs(ws, hi) - 2
    if f_lo <= 0 or f_hi >= 0:
        raise BracketFailure("no sign change on the bracket",
                             witness=(f_lo, f_hi))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if tau_lhs(ws, mid) - 2 > 0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(5):
        fx = tau_lhs(ws, x) - 2
        h = 1e-7 * max(x, 1.0)
        dfx = (tau_lhs(ws, x + h) - tau_lhs(ws, x - h)) / (2 * h)
        if dfx == 0:
            break
        step = fx / dfx
        if abs(step) > 1.0:
            break
        x -= step
    if abs(tau_lhs(ws, x) - 2) >= 1e-12:
        raise BracketFailure("refinement did not reach the residual target",
                             witness=abs(tau_lhs(ws, x) - 2))
    return x


def symmetric_tau_closed_form(r: int, q: int) -> float:
    """Closed form for equal weights: r q^x = (1 + q^x)^2, so q^x is the
    larger root (r - 2 + sqrt(r^2 - 4r)) / 2."""
    if r < 5:
        raise InvalidPolygon("closed form needs r >= 5", witness=r)
    y = (r - 2 + math.sqrt(r * r - 4 * r)) / 2
    return math.log(y) / math.log(q)


def product_tree_presentation_fixtures() -> dict:
    """Two combinatorially inequivalent vertex-transitive presentations on
    a product of two degree-4 trees, shipped as documentation fixtures."""
    ref = resources.files("graphspectra").joinpath("data/product_tree_presentations.json")
    return json.loads(ref.read_text())


def fake_projective_plane_constants() -> dict:
    """Documented K-group constants of the two index-3 quotients of the
    rank-2 building over Q_2; recorded, never computed here."""
    ref = resources.files("graphspectra").joinpath("data/fake_projective_planes.json")
    return json.loads(ref.read_text())
