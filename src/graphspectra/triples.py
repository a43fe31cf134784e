"""Finite-dimensional spectral data for shift algebras.

The central object is :class:`SpectralTruncation`: the span of cylinder
indicators of length N+1 of an irreducible SFT, carrying

* the grading operator D = sum_n n (P_n - P_{n-1}), where P_n projects
  onto functions of the first n+1 coordinates;
* one partial isometry per letter, acting on mu^(1/2)-normalized
  cylinder indicators by prepending the letter with a conformal weight
  drawn from the Parry measure.

The stored isometries are the members of the adjoint pair (prepend /
chop) that satisfy the defining relations

    sum_j S_j S_j^* = 1,   S_i^* S_i = sum_j A_ij S_j S_j^*

exactly on levels <= N-1 of the truncation; their adjoints lower the
level by one.  Commutators [D, S_i] are bounded because the conformal
weight of a letter depends on finitely many leading coordinates (k_i of
them), and their restricted norms stabilize once N >= k_i + 2.

Cylinder indicators are normalized to unit vectors; commutator norms
depend on this normalization choice.

The module also covers the dimension-sequence side: heat-trace partial
sums with certified geometric tail bounds, zeta-type partial sums with a
divergence diagnosis, eigenvalue schedules for filtered AF algebras with
the termwise summability comparison, and the folded spectrum of the
crossed product by Z with its counting-function slope fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import svdvals

from .errors import (
    EnumerationBudgetExceeded,
    InsufficientSpectrum,
    InvalidParameter,
    RequiresEvenTriple,
    RequiresIrreducible,
    SummabilityViolation,
    TruncationTooSmall,
)
from .shift import (
    ParryMeasure,
    SFTData,
    enumerate_words,
    filtration_dims,
    perron_data,
    word_budget,
    word_count_vectors,
)

DENSE_NORM_CUTOFF = 1200


def spectral_norm(mat) -> float:
    """Largest singular value; dense decomposition below a size cutoff,
    Lanczos on the normal operator above it."""
    if sp.issparse(mat):
        n, m = mat.shape
        if max(n, m) <= DENSE_NORM_CUTOFF:
            return _dense_norm(mat.toarray())
        return _lanczos_norm(mat)
    arr = np.asarray(mat, dtype=float)
    if max(arr.shape) <= DENSE_NORM_CUTOFF:
        return _dense_norm(arr)
    return _lanczos_norm(sp.csr_matrix(arr))


def _dense_norm(arr: np.ndarray) -> float:
    if arr.size == 0:
        return 0.0
    vals = svdvals(arr)
    return float(vals[0]) if len(vals) else 0.0


def _lanczos_norm(mat) -> float:
    csr = mat.tocsr()
    csc = csr.tocsc()
    gram = spla.LinearOperator(
        shape=(csr.shape[1], csr.shape[1]),
        matvec=lambda x: csc.T @ (csr @ x),
        dtype=float,
    )
    try:
        vals = spla.eigsh(gram, k=1, which="LA", tol=0,
                          maxiter=csr.shape[1] * 40,
                          return_eigenvectors=False)
        return float(math.sqrt(max(vals[0], 0.0)))
    except (spla.ArpackNoConvergence, RuntimeError):
        return _dense_norm(csr.toarray())


def frobenius_norm(mat) -> float:
    if sp.issparse(mat):
        return float(np.sqrt((mat.multiply(mat)).sum()))
    return float(np.linalg.norm(np.asarray(mat)))


class SpectralTruncation:
    """Level-N truncation of the cylinder representation of an SFT.

    Built through :func:`build_truncation`.  The orthonormal basis is
    indexed by the admissible words of length N+1; coarser cylinders are
    sums over their refinements.
    """

    def __init__(self, sft: SFTData, level: int, words: list, mu: np.ndarray,
                 isometries: list, projections: list, twist: tuple | None,
                 perron):
        self.sft = sft
        self.level = level
        self.words = words
        self.mu = mu
        self._isometries = isometries
        self._projections = projections  # P_0 .. P_N (P_N = identity)
        self.twist = twist
        self.dimension = len(words)
        self._perron = perron

    def isometry(self, letter: int):
        return self._isometries[letter]

    def twisted_isometry(self, letter: int):
        """The letter's partial isometry conjugated by the twist unitary;
        for a letter permutation this is the isometry of the image letter."""
        sigma = self.twist if self.twist is not None else tuple(
            range(self.sft.alphabet_size))
        return self._isometries[sigma[letter]]

    def projection(self, n: int):
        if n < 0:
            return sp.csr_matrix((self.dimension, self.dimension))
        return self._projections[min(n, self.level)]

    def level_projection(self, n: int):
        """Orthogonal projection onto the new part of level n."""
        return self.projection(n) - self.projection(n - 1)

    def grading_matrix(self, eigenvalues=None):
        """D = sum_n lambda_n (P_n - P_{n-1}); default schedule lambda_n = n."""
        if eigenvalues is None:
            eigenvalues = list(range(self.level + 1))
        if len(eigenvalues) != self.level + 1:
            raise InvalidParameter("need one eigenvalue per level",
                                   witness=len(eigenvalues))
        d = sp.csr_matrix((self.dimension, self.dimension))
        for n, lam in enumerate(eigenvalues):
            if lam:
                d = d + lam * self.level_projection(n)
        return d

    def ck_residuals(self) -> dict:
        """Frobenius norms (upper bounds for the operator norm) of both
        defining relations, compressed to levels <= N-1."""
        p = self.projection(self.level - 1)
        eye = sp.identity(self.dimension, format="csr")
        ranges = [s @ s.T for s in self._isometries]
        total = sum(ranges)
        unit = frobenius_norm(p @ (total - eye) @ p)
        per_letter = []
        for i, s in enumerate(self._isometries):
            rhs = sum(ranges[j] for j in self.sft.successors(i))
            per_letter.append(frobenius_norm(p @ (s.T @ s - rhs) @ p))
        return {"unit_sum": unit, "range_relation": per_letter}

    def weight_depth(self, letter: int) -> int:
        """Number of leading coordinates the conformal weight of the letter
        depends on (the stabilization level k_i); 1 for Parry weights."""
        pm = ParryMeasure(self.sft, self._perron)
        for depth in range(1, self.level):
            ratios = {}
            stable = True
            for w in enumerate_words(self.sft, depth + 1):
                if not self.sft.matrix[letter][w[0]]:
                    continue
                ratio = pm.weight((letter,) + w) / pm.weight(w)
                key = w[:depth]
                if key in ratios and abs(ratios[key] - ratio) > 1e-13:
                    stable = False
                    break
                ratios[key] = ratio
            if stable:
                return depth
        return self.level - 1

    def commutator(self, letter: int, eigenvalues=None):
        """[D, S_i] compressed to levels <= N-1."""
        d = self.grading_matrix(eigenvalues)
        s = self._isometries[letter]
        p = self.projection(self.level - 1)
        return p @ (d @ s - s @ d) @ p

    def commutator_norm(self, letter: int, eigenvalues=None) -> tuple[float, int]:
        """Operator norm of the restricted commutator and the weight depth."""
        return (spectral_norm(self.commutator(letter, eigenvalues)),
                self.weight_depth(letter))


def build_truncation(s: SFTData, level: int, twist: tuple | None = None,
                     budget: int | None = None) -> SpectralTruncation:
    """Assemble the level-N cylinder basis, projections and isometries."""
    if level < 2:
        raise TruncationTooSmall("truncation level must be >= 2", witness=level)
    if twist is not None:
        n = s.alphabet_size
        if sorted(twist) != list(range(n)):
            raise InvalidParameter("twist must permute the alphabet", witness=twist)
        if any(s.matrix[twist[i]][twist[j]] != s.matrix[i][j]
               for i in range(n) for j in range(n)):
            raise InvalidParameter("twist must preserve the transition matrix",
                                   witness=twist)
        twist = tuple(twist)
    perron = perron_data(s)
    pm = ParryMeasure(s, perron)
    words = enumerate_words(s, level + 1, budget)
    dim = len(words)
    index = {w: i for i, w in enumerate(words)}
    left = np.array(perron.left)
    right = np.array(perron.right)
    lam = perron.value
    norm = float(left @ right)

    first = np.array([w[0] for w in words])
    last = np.array([w[-1] for w in words])
    second_last = np.array([w[-2] for w in words])
    mu = left[first] * right[last] * lam ** (-level) / norm

    # orthogonal projections onto V_n, block per length-(n+1) prefix
    projections = []
    for n in range(level):
        plen = n + 1
        rows_idx: list[np.ndarray] = []
        cols_idx: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        start = 0
        while start < dim:
            stop = start
            prefix = words[start][:plen]
            while stop < dim and words[stop][:plen] == prefix:
                stop += 1
            block = np.arange(start, stop)
            g = np.sqrt(mu[block] / mu[block].sum())
            outer = np.outer(g, g)
            rr, cc = np.meshgrid(block, block, indexing="ij")
            rows_idx.append(rr.ravel())
            cols_idx.append(cc.ravel())
            vals.append(outer.ravel())
            start = stop
        proj = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows_idx), np.concatenate(cols_idx))),
            shape=(dim, dim)).tocsr()
        projections.append(proj)
    projections.append(sp.identity(dim, format="csr"))

    # On mu^(1/2)-normalized cylinders the conformal weight cancels the
    # measure ratio, so the raising isometry prepends the letter with
    # coefficient 1; compressing the top level to its length-(N+1) prefix
    # contributes sqrt(mu(iw) / mu(i w_0..w_{N-1})).
    a = s.matrix
    isometries = []
    for i in range(s.alphabet_size):
        cols = np.nonzero([a[i][f] for f in first])[0]
        rows = np.empty(len(cols), dtype=int)
        vals = np.empty(len(cols))
        li = left[i]
        for pos, c in enumerate(cols):
            w = words[c]
            target = (i,) + w[:-1]
            rows[pos] = index[target]
            mu_iw = li * right[last[c]] * lam ** (-(level + 1)) / norm
            mu_tgt = li * right[second_last[c]] * lam ** (-level) / norm
            vals[pos] = math.sqrt(mu_iw / mu_tgt)
        isometries.append(sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim)))

    return SpectralTruncation(s, level, words, mu, isometries, projections,
                              twist, perron)


@dataclass(frozen=True)
class GradingOperator:
    """Diagonal grading: eigenvalue lambda_n with multiplicity new_dims[n].

    ``growth_const``/``growth_ratio`` certify new_dims[n] <= C * rho^n for
    every n (not only computed ones), enabling tail bounds past the
    truncation.  ``power_exponent`` marks schedules of the form
    lambda_n = (dim A_n)^q coming from a filtered algebra.
    """

    new_dims: tuple
    eigenvalues: tuple
    growth_const: float | None = None
    growth_ratio: float | None = None
    power_exponent: float | None = None

    def __post_init__(self):
        if len(self.new_dims) != len(self.eigenvalues):
            raise InvalidParameter("one eigenvalue per level required")
        if any(d < 0 for d in self.new_dims):
            raise InvalidParameter("multiplicities must be nonnegative")

    @property
    def levels(self) -> int:
        return len(self.new_dims)


def grading_from_sft(s: SFTData, max_level: int) -> GradingOperator:
    """Grading of the cylinder filtration, lambda_n = n, with a certified
    geometric bound on the eigenspace dimensions."""
    dims = filtration_dims(s, max_level).new_dims()
    perron = perron_data(s)
    r = np.array(perron.right)
    a = np.array(s.matrix, dtype=float)
    rho = perron.value * (1 + 1e-9)
    if np.any(a @ r > rho * r):
        # inflate until the entrywise certificate A r <= rho r holds
        rho = float(np.max((a @ r) / r)) * (1 + 1e-12)
    const = float(r.sum() / r.min())
    return GradingOperator(tuple(dims), tuple(range(max_level + 1)),
                           growth_const=const, growth_ratio=rho)


@dataclass(frozen=True)
class ThetaTrace:
    t: float
    partial: float
    tail_bound: float
    converged: bool


def theta_trace(d: GradingOperator, t: float, tol: float = 1e-12) -> ThetaTrace:
    """Partial sum of Tr exp(-t D^2) with a certified geometric tail bound.

    The tail past level N uses new_dims[n] <= C rho^n and, for the linear
    schedule, exp(-t n^2) <= (exp(-t(N+1)))^n, giving a geometric series.
    """
    if t <= 0:
        raise InvalidParameter("heat parameter must be positive", witness=t)

    def term(m, lam):
        try:
            return m * math.exp(-t * abs(lam) ** 2)
        except OverflowError:  # m itself is past float range
            return math.exp(math.log(m) - t * abs(lam) ** 2)

    try:
        partial = float(sum(term(m, lam)
                            for m, lam in zip(d.new_dims, d.eigenvalues)))
    except OverflowError:
        partial = math.inf
    if math.isinf(partial):
        raise InvalidParameter("heat-trace partial sum exceeds float range",
                               witness=t)
    tail = 0.0
    if d.growth_ratio is not None and d.growth_const is not None:
        n = d.levels  # first uncomputed level index
        ratio = d.growth_ratio * math.exp(-t * n)
        if ratio < 1:
            tail = d.growth_const * ratio ** n / (1 - ratio)
        else:
            tail = math.inf
    return ThetaTrace(t, partial, tail, tail < tol)


@dataclass(frozen=True)
class ZetaPartial:
    s: float
    partial: float
    diagnosis: str  # "Divergent" or "Convergent"
    tail_bound: float


def zeta_partial(d: GradingOperator, s: float) -> ZetaPartial:
    """Partial sum of sum_n new_dims[n] (1 + |lambda_n|^2)^(-s/2) with a
    divergence diagnosis for the implied infinite schedule.

    Geometric eigenspace growth against a polynomial eigenvalue schedule
    diverges for every s; power schedules lambda_n = (dim A_n)^q converge
    exactly when s q > 2, with tail majorant sum n^(1-sq).
    """
    partial = float(sum(m * (1 + abs(lam) ** 2) ** (-s / 2)
                        for m, lam in zip(d.new_dims, d.eigenvalues)))
    if d.power_exponent is not None:
        sq = s * d.power_exponent
        if sq > 2:
            n = d.levels
            tail = n ** (2 - sq) / (sq - 2)
            return ZetaPartial(s, partial, "Convergent", tail)
        return ZetaPartial(s, partial, "Divergent", math.inf)
    if d.growth_ratio is not None:
        if d.growth_ratio > 1:
            return ZetaPartial(s, partial, "Divergent", math.inf)
        if s > 1:
            n = max(d.levels, 1)
            tail = (d.growth_const or 1.0) * n ** (1 - s) / (s - 1)
            return ZetaPartial(s, partial, "Convergent", tail)
        return ZetaPartial(s, partial, "Divergent", math.inf)
    # bare finite operator: nothing past the last level
    return ZetaPartial(s, partial, "Convergent", 0.0)


@dataclass(frozen=True)
class AFTriple:
    """Eigenvalue schedule for a filtered algebra, |lambda_n| = (dim A_n)^q.

    ``dims`` lists dim A_n for n = 1..N (strictly increasing, dim A_n >= n);
    the summability target is p with exponent q > 2/p.  Parity selects the
    odd real schedule or the even doubled block variant.
    """

    dims: tuple
    p: float
    q: float
    parity: str = "odd"

    def __post_init__(self):
        if self.p <= 0:
            raise SummabilityViolation("summability degree must be positive",
                                       witness=self.p)
        if self.q <= 2 / self.p:
            raise SummabilityViolation(
                f"exponent q = {self.q} must exceed 2/p = {2 / self.p}",
                witness=(self.p, self.q))
        if any(b <= a for a, b in zip(self.dims, self.dims[1:])):
            raise SummabilityViolation("algebra dimensions must strictly increase",
                                       witness=self.dims)
        if any(d < n + 1 for n, d in enumerate(self.dims)):
            raise SummabilityViolation("dim A_n >= n is forced by strict growth",
                                       witness=self.dims)
        if self.parity not in ("odd", "even"):
            raise InvalidParameter("parity must be 'odd' or 'even'",
                                   witness=self.parity)

    def eigenvalues(self) -> tuple:
        vals = tuple(float(d) ** self.q for d in self.dims)
        if self.parity == "even":
            return tuple(complex(v) for v in vals)
        return vals

    def grading(self) -> GradingOperator:
        mults = tuple(d - (self.dims[i - 1] if i else 0)
                      for i, d in enumerate(self.dims))
        return GradingOperator(mults, self.eigenvalues(),
                               power_exponent=self.q)

    def even_block(self) -> "EvenBlock":
        """Doubled block form: equal graded halves coupled by the schedule."""
        if self.parity != "even":
            raise RequiresEvenTriple("odd schedule has no block form")
        singulars = []
        prev = 0
        for d, lam in zip(self.dims, self.eigenvalues()):
            singulars.extend([abs(lam)] * (d - prev))
            prev = d
        return EvenBlock(self.dims[-1], self.dims[-1], tuple(singulars))


@dataclass(frozen=True)
class AFLevel:
    blocks: tuple
    total: int


def af_core_dims(s: SFTData, max_level: int,
                 budget: int | None = None) -> list[AFLevel]:
    """Matrix-block sizes of the filtered core at each level.

    Level n has one block per letter i of size
    c_i(n) = #{admissible words of length n that i can follow}, and total
    dimension sum_i c_i(n)^2; the empty word gives c_i(0) = 1.  The
    blocks are the column sums of A^n, i.e. the word-count vector v_{n+1}.
    """
    if not s.is_irreducible():
        raise RequiresIrreducible("core dimensions need an irreducible matrix")
    cap = budget if budget is not None else word_budget()
    out = []
    for n, vec in zip(range(max_level + 1), word_count_vectors(s)):
        total = sum(c * c for c in vec)
        if total > cap:
            raise EnumerationBudgetExceeded(
                f"core dimension {total} at level {n} exceeds budget {cap}",
                witness=total)
        out.append(AFLevel(vec, total))
    return out


@dataclass(frozen=True)
class AFSummabilityReport:
    p: float
    q: float
    terms: tuple
    partials: tuple
    majorant_terms: tuple
    majorant_partials: tuple

    @property
    def termwise_ok(self) -> bool:
        return all(t <= m for t, m in zip(self.terms, self.majorant_terms))

    @property
    def partials_ok(self) -> bool:
        return all(t <= m for t, m in zip(self.partials, self.majorant_partials))


def af_summability_report(a: AFTriple) -> AFSummabilityReport:
    """Partial sums of Tr (1 + D^2)^(-p/2) against the majorant sum n^(1-pq).

    The comparison follows the estimate chain termwise:
    (1+|lambda_n|^2)^(-p/2) (dim A_n - dim A_{n-1})
        <= |lambda_n|^(-p) dim A_n = (dim A_n)^(1-pq) <= n^(1-pq).
    """
    terms = []
    majorants = []
    prev = 0
    for n, (d, lam) in enumerate(zip(a.dims, a.eigenvalues()), start=1):
        mult = d - prev
        prev = d
        terms.append((1 + abs(lam) ** 2) ** (-a.p / 2) * mult)
        majorants.append(float(n) ** (1 - a.p * a.q))
    partials = tuple(np.cumsum(terms).tolist())
    majorant_partials = tuple(np.cumsum(majorants).tolist())
    return AFSummabilityReport(a.p, a.q, tuple(terms), partials,
                               tuple(majorants), majorant_partials)


@dataclass(frozen=True)
class CrossedProductTriple:
    """Base spectrum crossed with Fourier modes |k| <= M.

    The derived spectrum is the folded multiset
    { +-sqrt(lambda_j^2 + k^2) : 0 <= k <= M } with the base
    multiplicities, symmetric about zero by construction.
    """

    base: tuple  # (eigenvalue, multiplicity) pairs
    cutoff: int

    def __post_init__(self):
        if self.cutoff < 0:
            raise InvalidParameter("Fourier cutoff must be >= 0",
                                   witness=self.cutoff)
        for lam, mult in self.base:
            if mult < 1:
                raise InvalidParameter("multiplicities must be positive",
                                       witness=(lam, mult))

    def spectrum(self) -> list:
        return crossed_product_spectrum(self)


def crossed_product_spectrum(c: CrossedProductTriple) -> list:
    """Sorted (value, multiplicity) pairs of the crossed-product operator."""
    acc: dict = {}
    for lam, mult in c.base:
        for k in range(c.cutoff + 1):
            v = math.hypot(lam, k)
            for signed in (v, -v):
                acc[signed] = acc.get(signed, 0) + mult
    return sorted(acc.items())


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    window: tuple  # (low eigenvalue, high eigenvalue) of the fit window
    points: int


def summability_exponent_fit(spectrum, min_distinct: int = 50) -> SlopeFit:
    """Least-squares growth exponent of the eigenvalue counting function.

    The counting function N(L) = #{positive eigenvalues <= L} (with
    multiplicity) is fitted as log N ~ slope * log L over the middle two
    quartiles of the distinct positive values; the slope estimates the
    summability degree.
    """
    pairs: dict = {}
    for item in spectrum:
        v, m = item if isinstance(item, tuple) else (item, 1)
        if v > 0:
            pairs[float(v)] = pairs.get(float(v), 0) + m
    values = sorted(pairs)
    if len(values) < min_distinct:
        raise InsufficientSpectrum(
            f"need >= {min_distinct} distinct positive eigenvalues, got {len(values)}",
            witness=len(values))
    counts = np.cumsum([pairs[v] for v in values])
    lo = len(values) // 4
    hi = (3 * len(values)) // 4
    xs = np.log(np.array(values[lo:hi]))
    ys = np.log(counts[lo:hi].astype(float))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return SlopeFit(slope, (values[lo], values[hi - 1]), hi - lo)


@dataclass(frozen=True)
class EvenBlock:
    """Even block operator [[0, D0*], [D0, 0]] with grading diag(1, -1).

    ``coupling`` lists the nonzero singular values of D0; the graded
    halves have dimensions plus_dim and minus_dim.
    """

    plus_dim: int
    minus_dim: int
    coupling: tuple = ()

    def __post_init__(self):
        if len(self.coupling) > min(self.plus_dim, self.minus_dim):
            raise InvalidParameter("more singular values than block dimensions")


def even_double(t: SpectralTruncation) -> EvenBlock:
    """Doubled form of a truncation: two copies coupled by the grading."""
    dims = filtration_dims(t.sft, t.level).new_dims()
    singulars = []
    for n, mult in enumerate(dims):
        if n:
            singulars.extend([float(n)] * mult)
    return EvenBlock(t.dimension, t.dimension, tuple(singulars))


def jlo_phi0(triple, scale: float) -> float:
    """Degree-zero supertrace sTr exp(-scale * D^2) of an even triple.

    For a block operator the supertrace is the heat trace over the +1
    graded part minus the -1 part; square blocks cancel exactly and only
    a dimension mismatch (an index) survives.
    """
    if scale <= 0:
        raise InvalidParameter("scale must be positive", witness=scale)
    if isinstance(triple, CrossedProductTriple):
        return 0.0  # the folded spectrum is symmetric: both halves are equal
    if isinstance(triple, EvenBlock):
        return float(triple.plus_dim - triple.minus_dim)
    raise RequiresEvenTriple(
        "no grading: pass an EvenBlock (e.g. even_double of a truncation) "
        "or a crossed-product triple", witness=type(triple).__name__)
