"""Subshifts of finite type: words, filtrations, Perron data, measures.

An :class:`SFTData` wraps a 0/1 transition matrix A over a finite
alphabet.  Words are tuples of letter indices, admissible when every
consecutive pair (a, b) has A[a][b] = 1.  The level-n filtration space
V_n is spanned by indicator functions of cylinders of length n+1, so
dim V_n equals the number of admissible words of length n+1.  Every
such count reads from one engine, :func:`word_count_vectors`, which
steps the exact integer row vector 1^T A^(n-1) one level at a time.

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

import os
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

from .errors import (
    EnumerationBudgetExceeded,
    InvalidInput,
    InvalidTransitionMatrix,
    NotAdmissible,
    RequiresIrreducible,
)
from .graphs import EdgeMatrix, isomorphisms
from .ktheory import irreducibility_check

DEFAULT_WORD_BUDGET = 10 ** 6
BUDGET_ENV_VAR = "GRAPHSPECTRA_WORD_BUDGET"


def word_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return DEFAULT_WORD_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise InvalidInput(f"{BUDGET_ENV_VAR} must be an integer", witness=raw) from None


@dataclass(frozen=True)
class SFTData:
    """Transition matrix, alphabet labels, optional inverse-letter involution."""

    matrix: tuple
    labels: tuple
    involution: tuple | None = None  # involution[i] = index of the inverse letter

    def __post_init__(self):
        n = len(self.matrix)
        for row in self.matrix:
            if len(row) != n or any(x not in (0, 1) for x in row):
                raise InvalidTransitionMatrix("transition matrix must be square 0/1",
                                              witness=row)
        if len(self.labels) != n:
            raise InvalidTransitionMatrix("label count does not match matrix")
        if self.involution is not None:
            inv = self.involution
            if len(inv) != n or sorted(inv) != list(range(n)):
                raise InvalidTransitionMatrix("involution must permute the alphabet",
                                              witness=inv)
            if any(inv[i] == i or inv[inv[i]] != i for i in range(n)):
                raise InvalidTransitionMatrix(
                    "involution must be fixed-point-free of order two", witness=inv)

    @property
    def alphabet_size(self) -> int:
        return len(self.matrix)

    def is_irreducible(self) -> bool:
        return irreducibility_check(self.matrix)

    def successors(self, letter: int) -> list[int]:
        return [j for j, x in enumerate(self.matrix[letter]) if x]

    def is_admissible(self, word: tuple) -> bool:
        if not word:
            return False
        if any(not 0 <= a < self.alphabet_size for a in word):
            return False
        return all(self.matrix[a][b] for a, b in zip(word, word[1:]))


def from_edge_matrix(em: EdgeMatrix) -> SFTData:
    """SFT of a directed edge matrix; the involution pairs the two
    orientations of each edge (labels 'e+' <-> 'e-')."""
    labels = em.labels
    inv = []
    for lab in labels:
        flipped = lab[:-1] + ("-" if lab.endswith("+") else "+")
        inv.append(labels.index(flipped))
    return SFTData(em.matrix, labels, tuple(inv))


def full_schottky_sft(g: int) -> SFTData:
    """Full rank-g free-group shift on 2g letters (inverse pairs i, i+g)."""
    from .graphs import cayley_schottky_matrix
    em = cayley_schottky_matrix(g)
    inv = tuple((i + g) % (2 * g) for i in range(2 * g))
    return SFTData(em.matrix, em.labels, inv)


def word_count_vectors(s: SFTData) -> Iterator[tuple]:
    """Yield v_1, v_2, ...: v_n[j] counts admissible words of length n
    ending in letter j, so v_n = 1^T A^(n-1) in exact integers.

    v_1 is all ones and v_{n+1}[j] sums v_n over the predecessors of j.
    """
    size = s.alphabet_size
    preds = [[i for i in range(size) if s.matrix[i][j]] for j in range(size)]
    vec = (1,) * size
    while True:
        yield vec
        vec = tuple(sum(vec[i] for i in pred) for pred in preds)


def count_words(s: SFTData, n: int) -> int:
    """Number of admissible words of length n."""
    if n < 1:
        return 0
    return sum(next(islice(word_count_vectors(s), n - 1, None)))


def enumerate_words(s: SFTData, n: int, budget: int | None = None) -> list[tuple]:
    """All admissible words of length n in lexicographic order."""
    if n < 1:
        raise InvalidTransitionMatrix("word length must be >= 1", witness=n)
    cap = budget if budget is not None else word_budget()
    total = count_words(s, n)
    if total > cap:
        raise EnumerationBudgetExceeded(
            f"{total} words of length {n} exceed budget {cap}", witness=total)
    words: list[tuple] = []
    stack = [(a,) for a in reversed(range(s.alphabet_size))]
    while stack:
        w = stack.pop()
        if len(w) == n:
            words.append(w)
            continue
        for b in reversed(s.successors(w[-1])):
            stack.append(w + (b,))
    return words


@dataclass(frozen=True)
class FiltrationDims:
    """dim V_n for n = 0..N and the derived new-level dimensions."""

    dims: tuple

    def __post_init__(self):
        if any(b < a for a, b in zip(self.dims, self.dims[1:])):
            raise ValueError("filtration dimensions must be nondecreasing")

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
        raise InvalidTransitionMatrix("level must be >= 0", witness=max_level)
    return FiltrationDims(tuple(
        sum(v) for v in islice(word_count_vectors(s), max_level + 1)))


@dataclass(frozen=True)
class PerronData:
    """Spectral radius with strictly positive left/right eigenvectors.

    Eigenvectors are normalized to sum 1; the residual
    ||A v - lam v||_inf / ||v||_inf is below 1e-12 on both sides.
    The Hausdorff exponent of the boundary is log(lam).
    """

    value: float
    left: tuple
    right: tuple

    @property
    def exponent(self) -> float:
        import math
        return math.log(self.value)


def perron_data(s: SFTData, tol: float = 1e-12, max_iter: int = 200000) -> PerronData:
    """Power iteration for the Perron eigenvalue and eigenvectors.

    Iterates with the primitive shift A + I (irreducibility makes that
    aperiodic), stopping once the residual on A itself is below tol.
    """
    import numpy as np

    if not s.is_irreducible():
        raise RequiresIrreducible("transition matrix must be irreducible")
    a = np.array(s.matrix, dtype=float)

    def iterate(mat):
        v = np.ones(mat.shape[0])
        v /= v.max()
        for k in range(max_iter):
            w = mat @ v + v
            w /= w.max()
            close = np.abs(w - v).max() < tol / 8
            v = w
            if close and k >= 1:
                av = mat @ v
                lam = float(av @ v / (v @ v))
                if np.abs(av - lam * v).max() / v.max() < tol:
                    return v
        av = mat @ v
        lam = float(av @ v / (v @ v))
        resid = np.abs(av - lam * v).max() / v.max()
        if resid >= tol:
            raise RequiresIrreducible(
                f"power iteration residual {resid:.2e} did not reach {tol}")
        return v

    right = iterate(a)
    left = iterate(a.T)
    lam = float(left @ a @ right / (left @ right))
    for vec, mat in ((right, a), (left, a.T)):
        resid = np.abs(mat @ vec - lam * vec).max() / vec.max()
        if resid >= tol:
            raise RequiresIrreducible(
                f"power iteration residual {resid:.2e} did not reach {tol}")
    return PerronData(lam,
                      tuple(float(x) for x in left / left.sum()),
                      tuple(float(x) for x in right / right.sum()))


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

    def level_weights(self, n: int, budget: int | None = None) -> dict:
        """Map word -> mu(word) over all admissible words of length n."""
        return {w: self.weight(w) for w in enumerate_words(self.sft, n, budget)}


def parry_cylinder_measure(s: SFTData, word: tuple) -> float:
    return ParryMeasure(s).weight(word)


def coboundary_matrix(s: SFTData, n: int, budget: int | None = None) -> list[list[int]]:
    """Integer matrix of delta f = f - f o T from V_{n-1} to V_n.

    Columns are indexed by cylinders of length n, rows by cylinders of
    length n+1; the cylinder u contributes +1 on each extension ub and
    -1 on each left-prolongation au.
    """
    if n < 1:
        raise InvalidTransitionMatrix("coboundary needs level >= 1", witness=n)
    shorter = enumerate_words(s, n, budget)
    longer = enumerate_words(s, n + 1, budget)
    index = {w: i for i, w in enumerate(longer)}
    mat = [[0] * len(shorter) for _ in longer]
    for col, u in enumerate(shorter):
        for b in s.successors(u[-1]):
            mat[index[u + (b,)]][col] += 1
        for a in range(s.alphabet_size):
            if s.matrix[a][u[0]]:
                mat[index[(a,) + u]][col] -= 1
    return mat


def cohomology_filtration_dims(s: SFTData, max_level: int,
                               budget: int | None = None) -> tuple:
    """dim(V_n / delta V_{n-1}) for n = 1..max_level, by exact integer rank."""
    from .ktheory import exact_rank
    if max_level < 1:
        raise InvalidTransitionMatrix("level must be >= 1", witness=max_level)
    # dim V_n = sum of v_{n+1}, for n = 1..max_level
    dims_vn = [sum(v) for v in islice(word_count_vectors(s), 1, max_level + 1)]
    out = []
    for n, dim_vn in enumerate(dims_vn, start=1):
        rank = exact_rank(coboundary_matrix(s, n, budget))
        out.append(dim_vn - rank)
    return tuple(out)


def alphabet_automorphisms(s: SFTData, budget: int | None = None) -> list[tuple]:
    """All letter permutations preserving the transition matrix, sorted.

    With an involution, only those commuting with it: the search matches
    A + 2 [j = inv(i)] against itself with :func:`graphs.isomorphisms`.
    Finding more than the word budget raises EnumerationBudgetExceeded.
    """
    n = s.alphabet_size
    inv = s.involution or (None,) * n
    coded = [[x + 2 * (j == inv[i]) for j, x in enumerate(row)]
             for i, row in enumerate(s.matrix)]
    cap = budget if budget is not None else word_budget()
    found = list(islice(isomorphisms(coded, coded), cap + 1))
    if len(found) > cap:
        raise EnumerationBudgetExceeded(
            f"more than {cap} automorphisms of {n} letters", witness=n)
    return sorted(found)
