"""Subshifts of finite type: words, filtrations, Perron data, measures.

An SFT is its 0/1 transition matrix A over a finite alphabet:
``SFTData`` is another name for :class:`graphs.EdgeMatrix`, which is
stored as the successor lists ``succ`` and validated once, when the
predecessor lists ``pred`` are built; every function here reads those
two (the numerical passes as ``succ_arrays`` and ``pred_arrays``, each
built once per SFT), and only :func:`alphabet_automorphisms` reads the
dense ``matrix`` view (an involution, when given, pairs inverse
letters).  The builders below pass successor lists on and never form
dense rows.  Words are tuples of letter indices, admissible when every
consecutive pair (a, b) has A[a][b] = 1.  The level-n filtration space
V_n is spanned by indicator functions of cylinders of length n+1, so
dim V_n equals the number of admissible words of length n+1.  Every
such count reads from one engine, :func:`word_count_vectors`, which
steps the exact integer row vector 1^T A^(n-1) a level at a time: a
chain letter copies its one predecessor's count, and only a branch
letter sums its several.

The conformal measure on the boundary is realized as the Parry measure:
with left/right Perron eigenvectors l, r (normalized to sum 1) and
spectral radius lam,

    mu(w) = l(w_0) * r(w_last) * lam^-(|w|-1) / sum_i l(i) r(i),

which is additive under one-letter extensions and scales by a factor
depending only on the first letter, the property every operator weight
downstream actually uses.

Note on eigenspace growth: for the full rank-g shift the new-level
dimensions are dim E_n = dim V_n - dim V_{n-1} = 2g(2g-1)^(n-1)(2g-2)
for n >= 1, with geometric ratio (2g-1); a sometimes-quoted variant with
ratio (2g-2) disagrees with direct enumeration, and this module always
reports the enumerated value.
"""

from __future__ import annotations

import math
import os
import sys
from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property
from itertools import chain, compress, islice, pairwise, repeat, takewhile
from operator import itemgetter

from .errors import (
    EnumerationBudgetExceeded,
    InvalidInput,
    InvalidParameter,
    InvalidTransitionMatrix,
    NotAdmissible,
    RequiresIrreducible,
)
from .graphs import EdgeMatrix, forest_size, isomorphisms, read_only

DEFAULT_WORD_BUDGET = 10 ** 6
BUDGET_ENV_VAR = "GRAPHSPECTRA_WORD_BUDGET"
MAX_COHOMOLOGY_DIGITS = 2 ** 25  # about 32 MB of printed dims


def word_budget() -> int:
    """GRAPHSPECTRA_WORD_BUDGET, or the default when it is unset or empty;
    InvalidInput, the text as witness, unless it is an integer >= 0."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return DEFAULT_WORD_BUDGET
    try:
        budget = int(raw)
        if budget >= 0:
            return budget
    except ValueError:
        pass
    raise InvalidInput(f"{BUDGET_ENV_VAR} must be a nonnegative integer", witness=raw)


SFTData = EdgeMatrix  # an SFT is its validated transition matrix


def from_edge_matrix(em: EdgeMatrix) -> SFTData:
    """SFT of a directed edge matrix; the involution pairs the two
    orientations of each edge (labels 'e+' <-> 'e-').  A label without
    its partner raises InvalidTransitionMatrix with the label as witness."""
    labels = em.labels
    index: dict = {}
    for i, lab in enumerate(labels):
        index.setdefault(lab, i)  # a repeated label names its first letter
    inv = []
    for lab in labels:
        flipped = lab[:-1] + ("-" if lab.endswith("+") else "+")
        try:
            inv.append(index[flipped])
        except KeyError:
            raise InvalidTransitionMatrix("label has no reversed orientation",
                                          witness=lab) from None
    return SFTData(em.succ, labels, tuple(inv))


def full_schottky_sft(g: int) -> SFTData:
    """Full rank-g free-group shift on 2g letters (inverse pairs i, i+g)."""
    from .graphs import cayley_schottky_matrix
    em = cayley_schottky_matrix(g)
    inv = tuple((i + g) % (2 * g) for i in range(2 * g))
    return SFTData(em.succ, em.labels, inv)


def word_count_vectors(s: SFTData, start=None) -> Iterator[tuple]:
    """Yield v_n = u^T A^(n-1) for n = 1, 2, ... in exact integers, u the
    start vector (all ones when not given): v_n[j] counts the admissible
    words of length n ending in letter j, each weighted by u at its first.

    v_{n+1}[j] sums v_n over the predecessors of j.  One gather over v_n
    with a 0 appended gives each chain letter its one predecessor's count
    (a letter with none, the 0); branch letters sum.
    """
    n = s.alphabet_size
    index = [pred[0] if len(pred) == 1 else n for pred in s.pred]
    branches = [(j, itemgetter(*pred)) for j, pred in enumerate(s.pred) if len(pred) > 1]
    vec = (1,) * n if start is None else tuple(start)
    while True:
        yield vec
        ext = (*vec, 0)
        step = list(map(ext.__getitem__, index))
        for j, pick in branches:
            step[j] = sum(pick(ext))
        vec = tuple(step)


def count_words(s: SFTData, n: int) -> int:
    """Number of admissible words of length n."""
    if n < 1:
        return 0
    return sum(next(islice(word_count_vectors(s), n - 1, None)))


def _check_word_budget(s: SFTData, n: int) -> list[int]:
    """Raise unless n >= 1 and the words of length n fit the word budget;
    return the numbers of words of lengths 1..n.
    If every letter has a predecessor and a successor, counts never fall,
    so the first count past the budget is the witness for any longer n."""
    if n < 1:
        raise InvalidParameter("word length must be >= 1", witness=n)
    cap = word_budget()
    counts = []
    for length, total in enumerate(map(sum, islice(word_count_vectors(s), n)), start=1):
        if total > cap and (length == n or all(s.succ) and all(s.pred)):
            raise EnumerationBudgetExceeded(
                f"{total} words of length {length} exceed budget {cap}", witness=total)
        counts.append(total)
    return counts


def enumerate_words(s: SFTData, n: int) -> list[tuple]:
    """All admissible words of length n in lexicographic order.

    The words of length m+1 are those of length m, each followed in turn
    by its last letter's successors.  A word is kept only while it can
    still reach length n: the letters that start a path of k more steps
    are found for k = 0..n-1 first, and each step appends only such
    letters.  So no length held is longer than the list returned, which
    the word budget bounds, and at most two lengths are held at once."""
    _check_word_budget(s, n)
    reach = [[True] * s.alphabet_size]  # reach[k][a]: a starts a path of k steps
    for _ in range(n - 1):
        reach.append([any(map(reach[-1].__getitem__, bs)) for bs in s.succ])
    ones = [(a,) for a in range(s.alphabet_size)]
    words = list(compress(ones, reach.pop()))
    for live in reversed(reach):
        tails = [tuple(compress(map(ones.__getitem__, bs), map(live.__getitem__, bs)))
                 for bs in s.succ]
        words = [w + b for w in words for b in tails[w[-1]]]
    return words


def word_table(s: SFTData, n: int):
    """The list of :func:`enumerate_words` as one (count, n) numpy array,
    row k the k-th word, in the smallest unsigned dtype that holds every
    letter index (uint8 up to 256 letters, uint16 above)."""
    import numpy as np

    words = enumerate_words(s, n)
    dtype = np.min_scalar_type(max(s.alphabet_size - 1, 0))
    flat = np.fromiter(chain.from_iterable(words), dtype=dtype, count=len(words) * n)
    return flat.reshape(len(words), n)


class FiltrationDims(namedtuple("FiltrationDims", "dims")):
    """dim V_n for n = 0..N and the derived new-level dimensions."""

    __slots__ = ()

    def __new__(cls, dims):
        if any(b < a for a, b in zip(dims, dims[1:])):
            raise ValueError("filtration dimensions must be nondecreasing")
        return super().__new__(cls, dims)

    @property
    def max_level(self) -> int:
        return len(self.dims) - 1

    def new_dims(self) -> tuple:
        """dim E_n = dim V_n - dim V_{n-1}, with E_0 = V_0."""
        return tuple(
            d - (self.dims[i - 1] if i else 0) for i, d in enumerate(self.dims)
        )


def filtration_dims(s: SFTData, max_level: int) -> FiltrationDims:
    if max_level < 0:
        raise InvalidParameter("level must be >= 0", witness=max_level)
    return FiltrationDims(tuple(
        sum(v) for v in islice(word_count_vectors(s), max_level + 1)))


class PerronData(namedtuple("PerronData", "value left right bracket")):
    """Spectral radius with strictly positive left/right eigenvectors.

    Eigenvectors are normalized to sum 1; the residual
    ||A v - lam v||_inf / ||v||_inf is below 1e-12 on both sides.
    ``bracket`` = (lo, hi) is the Collatz-Wielandt enclosure of lam: lo
    and hi are the smallest and largest ratio (A v)_i / v_i over the
    final right vector (for A) and left vector (for A^t), the tighter
    bound of the two sides each, so lo <= lam <= hi (up to rounding in
    the ratios); at the default tolerance hi - lo <= 5e-13 <= 1e-12 lam.
    The Hausdorff exponent of the boundary is log(lam).
    """

    @property
    def exponent(self) -> float:
        return math.log(self.value)

    @cached_property
    def arrays(self) -> tuple:
        """(left, right, l . r): the vectors as read-only float64 arrays
        and their dot product, made on the first read."""
        import numpy as np

        left, right = np.array(self.left), np.array(self.right)
        read_only(left, right)
        return left, right, float(left @ right)


def perron_data(s: SFTData, tol: float = 1e-12) -> PerronData:
    """Perron eigenvalue and eigenvectors by Noda iteration (T. Noda,
    Numer. Math. 17, 1971), once for A and once for A^t.

    From v = 1, each step takes the Collatz-Wielandt upper bound
    sigma = max_i (A v)_i / v_i >= lam (H. Wielandt, Math. Z. 52, 1950),
    solves (sigma I - A) w = v and sets v = w / max w.  For an
    irreducible A and sigma > lam the solve keeps v positive, sigma
    falls monotonically to lam and the convergence is superlinear.  The
    iteration stops, before any solve, once max_i - min_i of the ratios
    is at most tol / 2.  The residual of a vector is at most the width of
    its bracket, so it stays below tol with room for rounding, and as
    lam >= 1 for an irreducible 0/1 matrix the width is also at most
    tol * lam / 2.  lam = l^T A r / l^T r, which lies in both sides'
    brackets.

    Each solve runs on the chain-contracted graph (J. Franks, Ergodic
    Theory Dynam. Systems 4, 1984): a letter i with one successor j has
    the row sigma w_i - w_j = v_i, so following successors w_i =
    c_i + sigma^-d w_b, where b is the first branch letter (out-degree
    other than 1) that i reaches, d its distance and c one pass per
    depth over v.  Substituted into the branch rows this leaves one dense
    B x B system on the B branch letters: B = 6 for every kato graph, and
    B = n for a full shift, whose letters all branch.  A^t contracts the
    letters of in-degree 1 the same way.  B = 0 only for a bare cycle
    (the one-letter shift among them), which like a full shift starts on
    an exact eigenvector and needs no solve.  A v, l^T A r and the
    residuals sum over the successor and predecessor lists, so no n x n
    array is built.
    """
    import numpy as np

    if not s.is_irreducible():
        raise RequiresIrreducible("transition matrix must be irreducible")
    a, at = s.succ_arrays, s.pred_arrays
    right, r_lo, r_hi = _noda(a, tol)
    left, l_lo, l_hi = _noda(at, tol)
    # rounding in the ratios can leave the quotient just outside the
    # intersection of the two brackets, or the two brackets an ulp apart
    lo, hi = sorted((max(r_lo, l_lo), min(r_hi, l_hi)))
    lam = min(max(float(at.times(left) @ right / (left @ right)), lo), hi)
    for vec, mat in ((right, a), (left, at)):
        resid = np.abs(mat.times(vec) - lam * vec).max() / vec.max()
        if resid >= tol:
            raise RequiresIrreducible(
                f"Perron residual {resid:.2e} did not reach {tol}")
    return PerronData(lam,
                      tuple(float(x) for x in left / left.sum()),
                      tuple(float(x) for x in right / right.sum()),
                      (lo, hi))


def _noda(m, tol: float):
    """Noda iteration for the Perron vector of the 0/1 irreducible matrix
    ``m`` (a :class:`graphs._Rows`); returns the vector and its final
    ratio bracket.

    A shift sigma that is singular to working precision equals lam to
    working precision, so the solve then takes sigma (1 + tol), still
    above lam.  In exact arithmetic sigma strictly decreases; a step that
    does not decrease it means rounding has taken over before the bracket
    closed, and raises RequiresIrreducible.
    """
    import numpy as np

    v = np.ones(len(m.degree))
    previous = math.inf
    while True:
        ratios = m.times(v) / v
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol / 2:
            return v, lo, hi
        if not hi < previous:
            raise RequiresIrreducible(f"Perron bracket [{lo!r}, {hi!r}] did not "
                                      f"close to {tol}", witness=(lo, hi))
        previous = hi
        try:
            w = m.solve(hi, v)
        except np.linalg.LinAlgError:
            w = m.solve(hi * (1 + tol), v)
        v = w / w.max()


class ParryMeasure:
    """Cylinder weights of the Parry (conformal) measure of an SFT."""

    def __init__(self, s: SFTData, perron: PerronData | None = None):
        self.sft = s
        self.perron = perron if perron is not None else perron_data(s)
        l, r = self.perron.left, self.perron.right
        self._norm = sum(x * y for x, y in zip(l, r))

    def weight(self, word: tuple) -> float:
        if not self.sft.is_admissible(tuple(word)):
            raise NotAdmissible("word is not admissible", witness=tuple(word))
        l, r = self.perron.left, self.perron.right
        lam = self.perron.value
        return l[word[0]] * r[word[-1]] * lam ** (-(len(word) - 1)) / self._norm


def parry_cylinder_measure(s: SFTData, word: tuple) -> float:
    return ParryMeasure(s).weight(word)


def coboundary_matrix(s: SFTData, n: int) -> list[list[int]]:
    """Integer matrix of delta f = f - f o T from V_{n-1} to V_n.

    Columns are indexed by cylinders of length n, rows by cylinders of
    length n+1; the cylinder u contributes +1 on each extension ub and
    -1 on each left-prolongation au.
    """
    if n < 1:
        raise InvalidParameter("coboundary needs level >= 1", witness=n)
    shorter = enumerate_words(s, n)
    longer = enumerate_words(s, n + 1)
    index = {w: i for i, w in enumerate(longer)}
    mat = [[0] * len(shorter) for _ in longer]
    for col, u in enumerate(shorter):
        for b in s.succ[u[-1]]:
            mat[index[u + (b,)]][col] += 1
        for a in s.pred[u[0]]:
            mat[index[(a,) + u]][col] -= 1
    return mat


def cohomology_filtration_dims(s: SFTData, max_level: int) -> tuple:
    """dim(V_n / delta V_{n-1}) for n = 1..max_level.

    :func:`coboundary_matrix` is the transposed incidence matrix of the
    n-block graph: its vertices are the words of length n, and each word
    w of length n+1 is an edge joining w[:-1] to w[1:].  An incidence
    matrix is totally unimodular, so its rank over Q is exactly the number
    of vertices minus the number c_n of weakly connected components
    (N. Biggs, Algebraic Graph Theory, Prop. 4.3), and every shift has
    dim_n = |W_{n+1}| - |W_n| + c_n, W_n its words of length n.  Each
    term is a count of words (:func:`_cohomology_dims`), so the word
    budget limits no level.  A level raises InvalidParameter (the level
    as witness) once its dim has more decimal digits than the interpreter
    converts to a string, or the dims so far more than
    MAX_COHOMOLOGY_DIGITS, counted from bit lengths.
    """
    if max_level < 1:
        raise InvalidParameter("level must be >= 1", witness=max_level)
    word_budget()  # read only so that a malformed value is an error
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    limit = 10 ** digits
    total = 0
    out = []
    for n, dim in enumerate(islice(_cohomology_dims(s), max_level), start=1):
        total += int(dim.bit_length() * math.log10(2)) + 1
        if digits and dim >= limit or total > MAX_COHOMOLOGY_DIGITS:
            raise InvalidParameter(f"cohomology dims at level {n} exceed {digits} "
                                   f"digits or {MAX_COHOMOLOGY_DIGITS} in all", witness=n)
        out.append(dim)
    return tuple(out)


def _cohomology_dims(s: SFTData) -> Iterator[int]:
    """Yield dim_n = |W_{n+1}| - |W_n| + c_n for n = 1, 2, ...; see
    :func:`cohomology_filtration_dims`.

    The (n+1)-block graph is the line graph of the n-block graph (D. Lind,
    B. Marcus, Symbolic Dynamics and Coding, Sec. 2.3): it joins the edges
    at each vertex with an in-edge and an out-edge, here the words whose
    first letter has a predecessor and last letter a successor, which are
    the n-block graph of X_1, the letters of X with both.  So c_{n+1}(X) =
    c_n(X_1) + i_{n+1}(X), where i_m(Y) = 1_src^T A_Y^(m-1) 1_sink counts
    the words of length m in Y from a letter with no predecessor to one
    with no successor.  The pruning chain X_0 = X, X_{k+1} = (X_k)_1 is
    constant (the essential core, with no i-counts) from some K <=
    |letters| on, and c_n(X) = c_1(X_{n-1}) + sum_{k=0}^{n-2} i_{n-k}(X_k):
    c_1 from each X_k's letter graph, the i-counts of each X_k, k < K, from
    one count vector.  An essential shift, every irreducible one among
    them, has K = 0 and c_n = c_1.
    """
    x = s
    prunings = [x]  # X_0, ..., X_K
    while not all(map(all, zip(x.succ, x.pred))):
        keep = [a for a, ends in enumerate(zip(x.succ, x.pred)) if all(ends)]
        new = {a: i for i, a in enumerate(keep)}
        x = SFTData(tuple(tuple(new[b] for b in x.succ[a] if b in new) for a in keep),
                    tuple(map(x.labels.__getitem__, keep)))
        prunings.append(x)
    components = [x.alphabet_size - forest_size(
        (i, j) for i, js in enumerate(x.succ) for j in js) for x in prunings]
    # level n adds c_1(X_min(n-1, K)) and i_{n-k}(X_k) for each k <= n-2
    c1 = chain(components, repeat(components[-1]))
    ends = [chain(repeat(0, k + 1), _end_counts(x)) for k, x in enumerate(prunings[:-1])]
    counts = pairwise(map(sum, word_count_vectors(s)))  # (|W_n|, |W_{n+1}|)
    for (shorter, longer), c, *i in zip(counts, c1, *ends):
        yield longer - shorter + c + sum(i)


def _end_counts(s: SFTData) -> Iterator[int]:
    """i_2(s), i_3(s), ...: the words of length 2, 3, ... from a letter with
    no predecessor to one with no successor, all 0 once none is left."""
    sinks = [a for a, bs in enumerate(s.succ) if not bs]
    vectors = islice(word_count_vectors(s, [int(not preds) for preds in s.pred]), 1, None)
    return chain((sum(map(v.__getitem__, sinks)) for v in takewhile(any, vectors)), repeat(0))


def alphabet_automorphisms(s: SFTData) -> list[tuple]:
    """All letter permutations preserving the transition matrix, sorted.

    With an involution, only those commuting with it: the search matches
    A + 2 [j = inv(i)] against itself with :func:`graphs.isomorphisms`.
    Finding more than the word budget raises EnumerationBudgetExceeded.
    """
    n = s.alphabet_size
    inv = s.involution or (None,) * n
    coded = [[x + 2 * (j == inv[i]) for j, x in enumerate(row)]
             for i, row in enumerate(s.matrix)]
    cap = word_budget()
    found = list(islice(isomorphisms(coded, coded), cap + 1))
    if len(found) > cap:
        raise EnumerationBudgetExceeded(
            f"more than {cap} automorphisms of {n} letters", witness=n)
    return sorted(found)
