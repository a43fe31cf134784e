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
so (1) holds by construction.  A word is one int, the ranks of its
letters in the sorted alphabet packed first letter highest, so int order
is word order and rotations and cyclic windows are masked shifts.  The
derived data are computed once, when first read, and the ordered witness
scans run only when a verdict fails.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, namedtuple
from functools import cached_property
from itertools import chain, repeat

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


def letter_sup(letter) -> int | None:
    """The superscript class n of a letter "x^n"; None for a letter that
    is not a str or has no integer after its last "^"."""
    if not isinstance(letter, str) or "^" not in letter:
        return None
    try:
        return int(letter.rsplit("^", 1)[1])
    except ValueError:
        return None


# The most words family_presentation builds: 4q^2 <= 2^18 admits q <= 256
# (its four_fold_cover has 16q^2 words; a fresh q = 256 CLI run with every
# option takes about 12 s and 0.8 GB).
MAX_FAMILY_WORDS = 1 << 18

# superscripts of a square word -> the rotation that puts them in order
# (1, 2, 3, 4); in this order, the four copies of four_fold_cover
_TO_STANDARD = {(1, 2, 3, 4): 0, (4, 1, 2, 3): 1, (3, 4, 1, 2): 2, (2, 3, 4, 1): 3}


class BipartiteGraph:
    """Bipartite (multi)graph with black and white vertex sets; ``edges``
    holds (white, black) pairs, repeats = multiplicity.  The fields are
    read-only, and two graphs of one type are equal when their fields are."""

    def __init__(self, blacks: tuple, whites: tuple, edges: tuple):
        self.__dict__.update(blacks=blacks, whites=whites, edges=edges)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.blacks, self.whites, self.edges) == (other.blacks, other.whites,
                                                          other.edges)

    def __hash__(self):
        return hash((self.blacks, self.whites, self.edges))

    def is_complete_bipartite(self) -> bool:
        return self._complete

    @cached_property
    def _complete(self) -> bool:
        """Each white-black pair is an edge exactly once: all edges lie in
        whites x blacks, as many edges and distinct edges as such pairs."""
        whites, blacks = set(self.whites), set(self.blacks)
        pairs = len(whites) * len(blacks)
        return (len(self.edges) == pairs
                and all(w in whites and b in blacks for w, b in self.edges)
                and len(set(self.edges)) == pairs)

    def bicliques(self):
        """(whites, blacks) blocks whose products make up the edges: one per edge."""
        return (((w,), (b,)) for w, b in self.edges)


class CompleteBipartite(BipartiteGraph):
    """K(whites, blacks), one block; the edges are spelled out when read."""

    def __init__(self, blacks, whites):
        self.__dict__.update(blacks=tuple(blacks), whites=tuple(whites))

    @cached_property
    def edges(self) -> tuple:
        return tuple((w, b) for w in self.whites for b in self.blacks)

    def bicliques(self):
        return ((self.whites, self.blacks),)


def _rank_columns(codes, k: int, bits: int) -> list[list[int]]:
    """The letter ranks of packed k-letter codes, one list per position."""
    m = (1 << bits) - 1
    return [[(c >> s) & m for c in codes] for s in range((k - 1) * bits, -1, -bits)]


def _packing(alphabet) -> tuple[tuple, int]:
    """The sorted alphabet, whose ranks packed words hold, and the bits of a rank."""
    letters = tuple(sorted(alphabet))
    return letters, max(1, (len(letters) - 1).bit_length())


def _least_rotations(codes, k: int, bits: int) -> tuple:
    """The sorted distinct least rotations of packed k-letter codes."""
    size, mask = k * bits, (1 << (k * bits)) - 1
    turned = [[((c << s) & mask) | (c >> (size - s)) for c in codes]
              for s in range(bits, size, bits)]
    return tuple(sorted(set(map(min, codes, *turned) if turned else codes)))


class PolygonalPresentation(namedtuple("PolygonalPresentation", "alphabet lam codes k")):
    """Cyclic k-tuples over a pointed alphabet with basic bijection, kept
    as one packed word per rotation orbit: each of the given ``codes`` is
    replaced by its least rotation (see :func:`make_presentation`).  The
    alphabet's letters are distinct and are those of lam in type and value.

    ``alphabet``: the pointed letters (the black side); ``lam``: (letter,
    label) pairs, a bijection P -> L; ``codes``: the least rotation per
    orbit, packed, sorted."""

    def __new__(cls, alphabet, lam, codes, k):
        seen: set = set()
        for x in alphabet:
            if x in seen or seen.add(x):
                raise PresentationInvalid("alphabet repeats a letter", witness=x)
        if not (len({l for _, l in lam}) == len(lam) == len(seen) and
                {(type(x), x) for x, _ in lam} == {(type(x), x) for x in seen}):
            raise PresentationInvalid("basic bijection must be a bijection on the alphabet")
        letters, bits = _packing(alphabet)
        self = super().__new__(cls, alphabet, lam, _least_rotations(codes, k, bits), k)
        self.letters, self.bits = letters, bits
        return self

    def decode(self, code: int, n: int) -> tuple:
        """The n letters packed in ``code``."""
        return tuple(self.letters[r] for r, in _rank_columns((code,), n, self.bits))

    @cached_property
    def words(self) -> tuple:
        """The stored words as letter tuples, in word order."""
        return tuple(zip(*[map(self.letters.__getitem__, col)
                           for col in _rank_columns(self.codes, self.k, self.bits)]))

    def _windows(self, n: int) -> list[list[int]]:
        """The packed cyclic n-letter windows of the words, one list per start."""
        k, b, ext = self.k, self.bits, self.codes
        reps = 1 + -(-(n - 1) // k) if ext else 0
        for _ in range(reps - 1):
            ext = [e << (k * b) | c for e, c in zip(ext, self.codes)]
        m = (1 << (n * b)) - 1
        return [[(e >> s) & m for e in ext]
                for s in range((reps * k - n) * b, (reps * k - n - k) * b, -b)]

    @cached_property
    def starts(self) -> frozenset:
        """The starting pairs (x1, x2), packed: every cyclic two-letter window."""
        return frozenset(chain.from_iterable(self._windows(2)))

    @cached_property
    def unique_continuation(self) -> bool:
        """Each starting pair has a single continuation x3: there are as
        many distinct cyclic three-letter windows as starting pairs."""
        return len(set(chain.from_iterable(self._windows(3)))) == len(self.starts)

    @cached_property
    def superscripts(self) -> list:
        """The superscript class of each letter by rank (None without one)."""
        return list(map(letter_sup, self.letters))

    @cached_property
    def standard_forms(self) -> tuple[tuple, tuple]:
        """Each word rotated to superscript order (1, 2, 3, 4), and the
        words that have no such rotation, both packed, in word order."""
        sup = self.superscripts
        cols = _rank_columns(self.codes, self.k, self.bits)
        turn = list(map(_TO_STANDARD.get, zip(*[map(sup.__getitem__, c) for c in cols])))
        b, mask = self.bits, (1 << (4 * self.bits)) - 1
        return (tuple(((c << (i * b)) & mask) | (c >> ((4 - i) * b))
                      for c, i in zip(self.codes, turn) if i is not None),
                tuple(c for c, i in zip(self.codes, turn) if i is None))

    @cached_property
    def stable_pairs(self) -> StablePairsResult:
        """:func:`stable_pairs_check` of square words."""
        if set(self.superscripts) != {1, 2, 3, 4}:
            return StablePairsResult(False, ("alphabet is not partitioned into "
                                             "superscript classes 1..4",))
        forms, bad = self.standard_forms
        if bad:
            return StablePairsResult(False, tuple(self.decode(w, 4) for w in bad[:8]))
        witnesses, fwd_x, bwd_x, fwd_y, bwd_y = [], {}, {}, {}, {}
        for w, (x1, y1, x2, y2) in zip(forms, zip(*_rank_columns(forms, 4, self.bits))):
            if (fwd_x.setdefault(x1, x2) != x2 or bwd_x.setdefault(x2, x1) != x1
                    or fwd_y.setdefault(y1, y2) != y2 or bwd_y.setdefault(y2, y1) != y1):
                witnesses.append(w)
        ok, letters = not witnesses, self.letters
        return StablePairsResult(
            ok, tuple(self.decode(w, 4) for w in witnesses[:8]),
            *(tuple((letters[a], letters[b]) for a, b in sorted(fwd.items())) if ok else ()
              for fwd in (fwd_x, fwd_y)))


def make_presentation(alphabet, lam_pairs, words) -> PolygonalPresentation:
    """A presentation of letter-tuple words, k the length of the first (0
    with none); a word letter must be an alphabet letter in type and value."""
    alphabet, words = tuple(alphabet), tuple(map(tuple, words))
    k = len(words[0]) if words else 0
    letters, bits = _packing(alphabet)
    typed = {(type(x), x) for x in letters}
    given = list(chain.from_iterable(words))
    if not (set(map(len, words)) <= {k} - {0}
            and typed.issuperset(zip(map(type, given), given))):
        for w in words:  # the first offending tuple or letter
            if len(w) != k:
                raise PresentationInvalid(f"tuple length {len(w)} != {k}", witness=w)
            if not w:
                raise PresentationInvalid("tuple is empty", witness=w)
            for x in w:
                if (type(x), x) not in typed:
                    raise PresentationInvalid("tuple uses unknown letter", witness=x)
    rank, codes = {x: r for r, x in enumerate(letters)}, []
    for col in zip(*words):
        codes = [c << bits | r for c, r in zip(codes or repeat(0), map(rank.get, col))]
    return PolygonalPresentation(alphabet, tuple(lam_pairs), codes, k)


def family_presentation(q: int) -> PolygonalPresentation:
    """The 4q^2-word square presentation family over 4q letters.

    Over the alphabet x_1..x_4q (with lam(x_l) = y_l) the cyclic words
    are, for i, j in [0, q):

        (x_{1+4i}, x_{2+4j}, x_{4+4i}, x_{3+4j})
        (x_{1+4i}, x_{1+4j}, x_{4+4i}, x_{4+4j})
        (x_{1+4i}, x_{3+4j}, x_{4+4i}, x_{2+4j})
        (x_{2+4i}, x_{2+4j}, x_{3+4i}, x_{3+4j})

    The polyhedron has a single vertex with link the complete bipartite
    graph on 4q + 4q vertices.  Past MAX_FAMILY_WORDS words, q is refused
    before any word is built.
    """
    if q < 1:
        raise InvalidParameter("family parameter must be >= 1", witness=q)
    if 4 * q * q > MAX_FAMILY_WORDS:
        raise InvalidParameter(f"family exceeds {MAX_FAMILY_WORDS} words", witness=q)
    x = {m: f"x{m}" for m in range(1, 4 * q + 1)}
    words = [(x[a + 4 * i], x[b + 4 * j], x[c + 4 * i], x[d + 4 * j])
             for i in range(q) for j in range(q)
             for a, b, c, d in ((1, 2, 4, 3), (1, 1, 4, 4), (1, 3, 4, 2), (2, 2, 3, 3))]
    alphabet = tuple(x[m] for m in range(1, 4 * q + 1))
    lam = tuple((f"x{m}", f"y{m}") for m in range(1, 4 * q + 1))
    return make_presentation(alphabet, lam, words)


def family_link_graph(q: int) -> BipartiteGraph:
    """The expected link of the family: K_{4q,4q}."""
    return CompleteBipartite([f"x{m}" for m in range(1, 4 * q + 1)],
                             [f"y{m}" for m in range(1, 4 * q + 1)])


def family_cover_link_graphs(q: int) -> list[BipartiteGraph]:
    """Expected links of the four-fold cover of the family: one complete
    bipartite graph per superscript class, white ends of class s meeting
    black ends of class s+1 (cyclically)."""
    return [CompleteBipartite([f"x{m}^{s % 4 + 1}" for m in range(1, 4 * q + 1)],
                              [f"y{m}^{s}" for m in range(1, 4 * q + 1)])
            for s in range(1, 5)]


ConditionReport = namedtuple("ConditionReport", "passed witnesses", defaults=((),))


class ValidationReport(namedtuple("ValidationReport",
                                  "rotation_closure incidence unique_continuation")):
    """The three conditions' reports; ``incidence`` is None when there are
    no link graphs to check against."""

    __slots__ = ()

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
    return ValidationReport(ConditionReport(True),
                            None if graphs is None else _incidence(p, graphs),
                            ConditionReport(not dup, dup))


def _incidence(p: PolygonalPresentation, graphs) -> ConditionReport:
    """Condition (2) on packed pairs (x1, x2), x2 met by lam(x1) in some
    graph; the mismatches are listed in alphabet order (at most 8)."""
    rank = {x: r for r, x in enumerate(p.letters)}
    first = {label: rank[x] << p.bits for x, label in p.lam}
    incident: set = set()
    for whites, blacks in chain.from_iterable(g.bicliques() for g in graphs):
        ranked = [rank[b] for b in blacks if b in rank]
        for white in whites:
            if white in first:
                incident.update(map(first[white].__or__, ranked))
    starts, bad = p.starts, []
    if incident != starts:
        for x1 in p.alphabet:
            for x2 in p.alphabet:
                pair = rank[x1] << p.bits | rank[x2]
                if (pair in starts) != (pair in incident):
                    bad.append((x1, x2, "word-without-incidence" if pair in starts
                                else "incidence-without-word"))
    return ConditionReport(not bad, tuple(bad[:8]))


def _duplicate_continuations(p: PolygonalPresentation) -> tuple:
    """The starting pairs with more than one continuation (at most 8),
    sorted with their sorted letters; empty when the verdict passes."""
    if p.unique_continuation:
        return ()
    conts: dict = {}
    for t in sorted(set(chain.from_iterable(p._windows(3)))):
        conts.setdefault(t >> p.bits, []).append(p.letters[t & ((1 << p.bits) - 1)])
    return tuple((p.decode(pair, 2), tuple(c))
                 for pair, c in conts.items() if len(c) > 1)[:8]


class LinkGraph(BipartiteGraph):
    """Link at a polyhedron vertex: whites are head-ends lam(x), blacks
    are tail-ends x, one edge per face corner mapped to the vertex.  A
    polyhedron's links decode their edges when read and know if complete."""

    @cached_property
    def edges(self) -> tuple:
        """Each white with the black ends of its run of packed corners, a
        corner repeated by its multiplicity."""
        edges, (runs, letters, m, counts) = [], self._packed
        for white, run in zip(self.whites, runs):
            if counts:
                run = chain.from_iterable(map(repeat, run, map(counts.get, run)))
            edges += zip(repeat(white), [letters[e & m] for e in run])
        return tuple(edges)


class Polyhedron(namedtuple("Polyhedron", "faces edge_letters links")):
    """The canonical boundary word per face, one edge per letter and one
    LinkGraph per vertex."""

    __slots__ = ()

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
    if not p.codes:
        return Polyhedron((), (), ())
    dup = _duplicate_continuations(p)
    if dup:
        raise PresentationInvalid("continuation is not unique", witness=dup)

    # Corner (x_m, x_{m+1}): link edge from the white end lam(x_m), node
    # x_m, to the black end x_{m+1}, node n + x_{m+1}.  Union-find over the
    # corners in the order met relabels the smaller component on a merge;
    # a root orders the links (by str), the black end's root wins a merge.
    letters, b, n = p.letters, p.bits, len(p.letters)
    cols = _rank_columns(p.codes, p.k, b)
    whites = list(chain.from_iterable(zip(*cols)))
    blacks = list(map(n.__add__, chain.from_iterable(zip(*cols[1:], cols[0]))))
    comp = [None] * (2 * n)  # node -> component id
    root, nodes = [], []     # per component id: its root black, its nodes
    for white, black, cw, cb in zip(whites, blacks, map(comp.__getitem__, whites),
                                    map(comp.__getitem__, blacks)):
        if cb is None:
            cb = comp[black] = len(root)
            root.append(letters[black - n])
            nodes.append([black])
        if cw is None:
            comp[white] = cb
            nodes[cb].append(white)
        elif cw != cb:
            keep, gone = (cw, cb) if len(nodes[cw]) > len(nodes[cb]) else (cb, cw)
            for x in nodes[gone]:
                comp[x] = keep
            nodes[keep] += nodes[gone]
            root[keep] = root[cb]

    # A link's edges sorted: its whites in label order, each with its run of
    # the sorted starting pairs, a corner repeated by its multiplicity.
    label = list(map(dict(p.lam).__getitem__, letters))
    ordered = sorted(p.starts)
    counts = None if len(ordered) == len(whites) else Counter(
        chain.from_iterable(zip(*p._windows(2))))
    links = []
    for c in sorted(set(comp[:n]) - {None}, key=lambda c: str(("b", root[c]))):
        ws = sorted((x for x in nodes[c] if x < n), key=label.__getitem__)
        runs = [ordered[bisect_left(ordered, x << b):bisect_left(ordered, (x + 1) << b)]
                for x in ws]
        distinct = sum(map(len, runs))
        links.append(object.__new__(LinkGraph))
        links[-1].__dict__.update(
            blacks=tuple(letters[x - n] for x in sorted(nodes[c]) if x >= n),
            whites=tuple(map(label.__getitem__, ws)),
            _packed=(runs, letters, (1 << b) - 1, counts),
            _complete=distinct == len(ws) * (len(nodes[c]) - len(ws)) == (
                sum(map(counts.get, chain.from_iterable(runs))) if counts else distinct))
    return Polyhedron(p.words, tuple(x for x, c in zip(letters, comp[n:]) if c is not None),
                      tuple(links))


class StablePairsResult(namedtuple("StablePairsResult", "ok witnesses x_pairing y_pairing",
                                   defaults=((), (), ()))):
    """``x_pairing``: (class-1 letter, class-3 letter) pairs; ``y_pairing``:
    (class-2 letter, class-4 letter) pairs."""

    __slots__ = ()

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
        raise RequiresSquares("cover construction needs square faces", witness=p.k)
    label = dict(p.lam)
    lam = tuple((f"{x}^{s}", f"{label[x]}^{s}") for x in p.alphabet for s in (1, 2, 3, 4))
    alphabet = tuple(x for x, _ in lam)
    letters, bits = _packing(alphabet)
    rank = {x: r for r, x in enumerate(letters)}
    by_class = {s: [rank[f"{x}^{s}"] for x in p.letters] for s in (1, 2, 3, 4)}
    codes, cols = [], _rank_columns(p.codes, 4, p.bits)
    for pattern in _TO_STANDARD:
        a, b, c, d = (map(by_class[s].__getitem__, col) for s, col in zip(pattern, cols))
        codes += [((w << bits | x) << bits | y) << bits | z for w, x, y, z in zip(a, b, c, d)]
    return PolygonalPresentation(alphabet, lam, codes, 4)


class BMGroupData(namedtuple("BMGroupData",
                             "horizontal_generators vertical_generators relations")):
    """Generators and commutator-shaped relations of a vertex-transitive
    product-of-trees group; a relation is a 4-tuple of (generator,
    exponent) pairs, horizontal first, alternating."""

    __slots__ = ()

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
    xs, ys = _rank_columns(sorted(p.standard_forms[0]), 4, p.bits)[:2]
    x_star, y_star = xs[0], ys[0]  # the letters of the collapsed word
    up, down = [(x, 1) for x in p.letters], [(x, -1) for x in p.letters]  # shared
    return BMGroupData(tuple(p.letters[x] for x in sorted(set(xs) - {x_star})),
                       tuple(p.letters[y] for y in sorted(set(ys) - {y_star})),
                       tuple((up[a], up[b], down[a], down[b]) for a, b in zip(xs, ys)
                             if a != x_star and b != y_star))  # Tietze elimination


class ProductGradingDims(namedtuple("ProductGradingDims", "rank dims")):
    __slots__ = ()

    def __new__(cls, rank, dims):
        if any(d <= 0 for d in dims):
            raise InvalidParameter("grading dimensions must be positive")
        return super().__new__(cls, rank, dims)


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
    words = enumerate_words(full_schottky_sft(g), length)  # sorted
    cuts = [bisect_left(words, (a,)) for a in range(2 * g + 1)]
    return {a: cuts[a + 1] - cuts[a] for a in range(2 * g)}


def product_dim_table(g: int, max_h: int, max_v: int) -> list[list[int]]:
    """dim V_{l,k} for the corner-compatible pair model, by enumeration.

    A pair (u, w) of admissible words is admissible when the corner
    letters are composable, A[u_0][w_0] = 1, so the level-(0,0) count is
    2g(2g-1) and each extension step multiplies by (2g-1).
    """
    if g < 2:
        raise InvalidRank("product table needs rank >= 2", witness=g)
    from .graphs import cayley_schottky_matrix
    succ = cayley_schottky_matrix(g).succ
    counts = [product_word_counts(g, n) for n in range(1, max(max_h, max_v) + 2)]
    horizontal, vertical = counts[:max_h + 1], counts[:max_v + 1]
    table = []
    for l in range(max_h + 1):
        row = []
        for k in range(max_v + 1):
            row.append(sum(horizontal[l][i] * vertical[k][j]
                           for i, js in enumerate(succ) for j in js))
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

