"""Finite-dimensional spectral data for shift algebras.

The central object is the level-N truncation: the span of cylinder
indicators of length N+1 of an irreducible SFT, carrying

* its basis, the admissible words of length N+1 in lexicographic order;
* the grading operator D = sum_n n (P_n - P_{n-1}), where P_n projects
  onto functions of the first n+1 coordinates.  P_n = Q_n Q_n^T for the
  prefix factor Q_n, a dim x #prefixes matrix with orthonormal columns
  and nnz = dim, and D = N - sum_{n<N} P_n;
* one partial isometry per letter, acting on mu^(1/2)-normalized
  cylinder indicators by prepending the letter with a conformal weight
  drawn from the Parry measure.  Their ranges partition the basis (the
  range of S_i is the cylinder of i), so S = sum_i S_i has row block i
  equal to S_i: row (i,) + u holds the words of the length-N prefix u.

The stored isometries are the members of the adjoint pair (prepend /
chop) that satisfy the defining relations

    sum_j S_j S_j^* = 1,   S_i^* S_i = sum_j A_ij S_j S_j^*

exactly on levels <= N-1 of the truncation; their adjoints lower the
level by one.  Each S_j S_j^* is diagonal in the cylinder basis, and
each row of S_i collects the words of a single length-N prefix, so both
relations compressed to levels <= N-1 are diagonal per length-N prefix,
and :func:`ck_residuals` evaluates them per class of letters, with no
basis laid out.  Their operator norms are the largest class entries in
modulus, which do not grow with the basis.

Commutator norms have a closed form.  Let E_n = range(P_n - P_{n-1}).
Since S_i^* maps V_n = range(P_n) into V_{n-1} (and V_0 into V_0), S_i
maps E_n into E_{n+1} for n >= 1, and (1 - P_0) S_i maps E_0 into E_1;
S_i^* S_i commutes with every P_n.  So P_{N-1}[D, S_i]P_{N-1} is the
orthogonal sum over n <= N-2 of the blocks (lambda_{n+1} - lambda_n)
times S_i (times (1 - P_0) S_i at n = 0) from E_n to E_{n+1}, each 0
or a partial isometry.  A block is nonzero exactly when more
length-(n+2) than length-(n+1) prefixes of the basis start with i, and
the norm is the largest |lambda_{n+1} - lambda_n| over those levels
(:func:`commutator_norms`).  Where these counts grow, at levels 0..N-1,
and which CK classes occur, at level N-1, depend only on the supports
of the powers of A, so one walk of the path supports serves both
(:func:`level_certificates`).  The Parry weight ratio mu(iw) / mu(w) =
l_i / (l_{w_0} lambda) depends on w_0 alone, so every letter has
stabilization level k_i = 1.  :class:`SpectralTruncation`
assembles the basis and the operators: the reference both are tested
against.

Cylinder indicators are normalized to unit vectors; commutator norms
depend on this normalization choice.

The module also covers the dimension-sequence side: heat-trace partial
sums with certified geometric tail bounds, zeta-type partial sums with a
divergence diagnosis, eigenvalue schedules for filtered AF algebras with
the termwise summability comparison, and the folded spectrum of the
crossed product by Z (one sorted numpy record array of distinct values
and multiplicities, or its k >= 0 half) with its counting-function
slope fit.

numpy and scipy are imported inside the functions that compute with
them, so that importing the package loads neither: the reference views
(``spectral_norm`` and the sparse views of a truncation) load both; the
truncation itself, the CK residuals, the commutator norms, the
Perron-data grading, the crossed-product triple (its base is checked as
arrays), its spectrum and the slope fit load numpy only; the other
dimension-sequence functions load neither.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property
from itertools import accumulate, chain, islice, repeat

from .errors import (
    EnumerationBudgetExceeded,
    InsufficientSpectrum,
    InvalidParameter,
    NormNotConverged,
    RequiresEvenTriple,
    RequiresIrreducible,
    SummabilityViolation,
    TruncationTooSmall,
)
from .shift import (
    FiltrationDims,
    PerronData,
    SFTData,
    _check_word_budget,
    perron_data,
    word_budget,
    word_count_vectors,
    word_table,
)

# Largest smaller side decomposed densely by spectral_norm; above it,
# Lanczos.  Timed on truncation commutators (with 6 Lanczos vectors) when
# ``spectra`` ran spectral_norm (now only the reference views and tests
# do): on few letters Lanczos won from dim ~150, on subdivided theta
# graphs (many letters, mostly one successor) dense won up to dim ~280.
DENSE_NORM_CUTOFF = 256
# Lanczos vectors per ARPACK restart cycle: ARPACK's default, timed when
# ``spectra`` ran spectral_norm.  The top singular value of a truncation
# commutator is a schedule step, repeated as often as the rank of its
# level's block (18 times at g=2, N=5 on letter 0 of a random schedule);
# with 6 vectors the tol=0 iteration stalled there and raised
# NormNotConverged after ~67 s, where 20 converged in ~20 ms.
LANCZOS_NCV = 20


def spectral_norm(mat) -> float:
    """Largest singular value of an ndarray, sparse matrix or
    LinearOperator, taken on its smaller side n (through the adjoint of a
    wide operator): dense ``svdvals`` of its n columns when n <=
    DENSE_NORM_CUTOFF, Lanczos on the n x n normal operator otherwise."""
    import numpy as np
    import scipy.sparse.linalg as spla
    from scipy.linalg import svdvals

    op = spla.aslinearoperator(mat)
    tall = op if op.shape[0] >= op.shape[1] else op.H
    n = tall.shape[1]
    if n <= DENSE_NORM_CUTOFF:
        dense = tall @ np.eye(n)
        return float(svdvals(dense)[0]) if dense.size else 0.0
    return _lanczos_norm(tall, witness=op.shape)


def _lanczos_norm(op, witness) -> float:
    """sqrt of the top eigenvalue of op^T op by ARPACK (eigsh, tol=0).

    The start vector is fixed, so equal operators give equal bits.
    ARPACK breaks down when the range of op is tiny (a zero operator, or a
    commutator that is zero up to round-off); then the norm is taken on
    that range by _small_range_norm.  Raises NormNotConverged (with the
    given witness, the operator's shape) if the iteration does not
    converge.
    """
    import numpy as np
    import scipy.sparse.linalg as spla

    n = op.shape[1]
    gram = spla.LinearOperator((n, n), matvec=lambda x: op.rmatvec(op.matvec(x)),
                               dtype=float)
    try:
        vals = spla.eigsh(gram, k=1, which="LA", tol=0, ncv=LANCZOS_NCV,
                          maxiter=n * 40,
                          v0=np.random.default_rng(0).standard_normal(n),
                          return_eigenvectors=False)
    except spla.ArpackNoConvergence:
        raise NormNotConverged("Lanczos norm did not converge",
                               witness=witness) from None
    except spla.ArpackError:
        return _small_range_norm(op, witness)
    return float(math.sqrt(max(vals[0], 0.0)))


def _small_range_norm(op, witness) -> float:
    """Norm of an operator whose range has dimension below LANCZOS_NCV.

    The image Y of LANCZOS_NCV seeded Gaussian vectors then has numerical
    rank r < LANCZOS_NCV and spans the whole range (almost surely), so
    ||op|| = ||op^T U|| for the r leading left singular vectors U of Y; a
    zero operator gives exactly 0.0.  If Y has full rank the range is not
    small, and NormNotConverged is raised.
    """
    import numpy as np
    from scipy.linalg import svdvals

    y = op @ np.random.default_rng(0).standard_normal((op.shape[1], LANCZOS_NCV))
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * max(y.shape) * np.finfo(float).eps))
    if rank == LANCZOS_NCV:
        raise NormNotConverged("Lanczos norm broke down", witness=witness)
    return float(svdvals(op.H @ u[:, :rank])[0]) if rank else 0.0


class SpectralTruncation:
    """Level-N truncation of the cylinder representation of an SFT.

    Built through :func:`build_truncation`.  The orthonormal basis is
    indexed by the admissible words of length N+1, in lexicographic order,
    held as one numpy word table (row k the k-th word, see
    :func:`shift.word_table`); ``words`` is a list-of-tuples view of it,
    made when first read.  Each length-(n+1) prefix u owns a contiguous
    block of basis vectors; coarser cylinders are sums over their
    refinements.  The column of Q_n for u holds sqrt(mu(w) / mu(u)) on
    u's block.  For each n < N only the block starts are stored, and the
    weights are derived from them and ``mu`` when used, O(N dim) in all.
    P_n X = Q_n (Q_n^T X) is a block sum and a broadcast, and
    D = lambda_N - sum_{n<N} (lambda_{n+1} - lambda_n) P_n.
    ``isometry``, ``projection`` and ``grading_matrix`` assemble scipy
    reference views on demand."""

    def __init__(self, sft: SFTData, level: int, table: np.ndarray, mu: np.ndarray,
                 perron: PerronData, starts: list, twist: tuple | None):
        self.sft = sft
        self.level = level
        self._table = table  # the basis words, one row each
        self.mu = mu
        self.perron = perron
        self._starts = starts  # block starts of the length-(n+1) prefixes
        self.twist = twist
        self.dimension = len(table)

    @cached_property
    def words(self) -> list:
        """The basis words as tuples, in basis order."""
        return list(map(tuple, self._table.tolist()))

    def _sizes(self, n: int) -> np.ndarray:
        """The block sizes of the length-(n+1) prefixes."""
        import numpy as np

        return np.diff(self._starts[n], append=self.dimension)

    def _weight(self, n: int) -> np.ndarray:
        """Column (dim, 1) of sqrt(mu(w) / mu(u)), u the length-(n+1)
        prefix of the basis word w."""
        import numpy as np

        block_mu = np.repeat(np.add.reduceat(self.mu, self._starts[n]), self._sizes(n))
        return np.sqrt(self.mu / block_mu)[:, None]

    def isometry(self, letter: int):
        """S_i as a new dim x dim CSR matrix: the basis word w = u b goes
        to (i,) + u with value sqrt(mu(iw) / mu(iu)), the top level's
        compression.  In order, the rows (i,) + u whose last letter has a
        successor hold the blocks of the length-N prefixes starting with a
        successor of i; the other rows are empty."""
        import numpy as np
        import scipy.sparse as sp

        table, top = self._table, self._starts[-1]
        lo, hi = np.searchsorted(table[:, 0], [letter, letter + 1])
        rows = lo + np.flatnonzero(self.sft.succ_arrays.degree[table[lo:hi, -1]])
        blocks = np.flatnonzero(np.isin(table[top, 0], self.sft.succ[letter]))
        sizes = self._sizes(self.level - 1)[blocks]
        cols = _ranges(top[blocks], sizes)
        vals = np.sqrt(_measure(self.perron, self.level + 1, letter, table[cols, -1])
                       / _measure(self.perron, self.level, letter, table[cols, -2]))
        return sp.csr_matrix((vals, (np.repeat(rows, sizes), cols)),
                             shape=(self.dimension, self.dimension))

    def twisted_isometry(self, letter: int):
        """The letter's partial isometry conjugated by the twist unitary;
        for a letter permutation this is the isometry of the image letter."""
        return self.isometry(letter if self.twist is None else self.twist[letter])

    def projection(self, n: int):
        """P_n = Q_n Q_n^T as a sparse matrix (a reference view), Q_n the
        dim x #prefixes factor with orthonormal columns."""
        import numpy as np
        import scipy.sparse as sp

        if n < 0:
            return sp.csr_matrix((self.dimension, self.dimension))
        if n >= self.level:
            return sp.identity(self.dimension, format="csr")
        sizes = self._sizes(n)
        cols = np.repeat(np.arange(len(sizes)), sizes)
        q = sp.csr_matrix((self._weight(n)[:, 0], (np.arange(self.dimension), cols)),
                          shape=(self.dimension, len(sizes)))
        return (q @ q.T).tocsr()

    def grading_matrix(self, eigenvalues=None):
        """D = sum_n lambda_n (P_n - P_{n-1}) as a sparse matrix (a reference
        view); default schedule lambda_n = n."""
        import scipy.sparse as sp

        lam = _schedule(self.level, eigenvalues)
        d = lam[-1] * sp.identity(self.dimension, format="csr")
        for n in range(self.level):
            if lam[n + 1] != lam[n]:
                d = d - (lam[n + 1] - lam[n]) * self.projection(n)
        return d

    def _project(self, n: int, x: np.ndarray) -> np.ndarray:
        """P_n x for a (dim, k) block x."""
        import numpy as np

        g = self._weight(n)
        sums = np.add.reduceat(g * x, self._starts[n], axis=0)
        return g * np.repeat(sums, self._sizes(n), axis=0)

    def _grading(self, eigenvalues):
        """The map x -> D x on (dim, k) blocks."""
        lam = _schedule(self.level, eigenvalues)
        steps = [(n, lam[n + 1] - lam[n]) for n in range(self.level)
                 if lam[n + 1] != lam[n]]

        def grade(x):
            out = lam[-1] * x
            for n, step in steps:
                out -= step * self._project(n, x)
            return out
        return grade

    def ck_residuals(self) -> dict:
        """:func:`ck_residuals` of this truncation's shift, level and Perron data."""
        return ck_residuals(self.sft, self.level, self.perron)

    def weight_depth(self, letter: int) -> int:
        """Number of leading coordinates the conformal weight of the letter
        depends on (the stabilization level k_i): 1, since the Parry ratio
        mu(iw) / mu(w) = l_i / (l_{w_0} lambda) depends on w_0 alone."""
        return 1

    def commutator(self, letter: int, eigenvalues=None) -> spla.LinearOperator:
        """P_{N-1}(D S_i - S_i D)P_{N-1} as a LinearOperator (with adjoint)
        acting on (dim, k) blocks: the reference for commutator_norm."""
        import scipy.sparse.linalg as spla

        grade = self._grading(eigenvalues)

        def top(x):
            return self._project(self.level - 1, x)
        s = self.isometry(letter)
        st = s.T.tocsr()

        def forward(x):
            y = top(x)
            return top(grade(s @ y) - s @ grade(y))

        def adjoint(x):
            y = top(x)
            return top(st @ grade(y) - grade(st @ y))
        return spla.LinearOperator(
            (self.dimension, self.dimension), dtype=float,
            matvec=lambda x: forward(x.reshape(-1, 1)), matmat=forward,
            rmatvec=lambda x: adjoint(x.reshape(-1, 1)), rmatmat=adjoint)

    def commutator_norm(self, letter: int, eigenvalues=None) -> tuple[float, int]:
        """The letter's :func:`commutator_norms` entry and weight depth."""
        return (commutator_norms(self.sft, self.level, eigenvalues)[letter],
                self.weight_depth(letter))


# The least int that float() refuses: it rounds to 2**1024.
_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


def check_truncation_level(s: SFTData, level: int) -> None:
    """TruncationTooSmall below level 2, then the budget on the N+1-letter
    words, then InvalidParameter, the level as witness, if an eigenspace
    dimension dim V_n - dim V_{n-1} (n <= N) is past float range: the zeta
    partial sum converts each to float, and at g = 2 lambda^(N+1) leaves
    float range at the same level."""
    if level < 2:
        raise TruncationTooSmall("truncation level must be >= 2", witness=level)
    dims = _check_word_budget(s, level + 1)  # dim V_n: the words of length n+1
    if any(b - a >= _FLOAT_OVERFLOW for a, b in zip([0, *dims], dims)):
        raise InvalidParameter("an eigenspace dimension passes float range", witness=level)


def build_truncation(s: SFTData, level: int, twist: tuple | None = None,
                     perron: PerronData | None = None) -> SpectralTruncation:
    """Lay out the level-N cylinder basis, prefix blocks and isometry rows.

    ``perron`` is the SFT's Perron data when the caller already holds it.
    The basis is the word table of length N+1, after
    :func:`check_truncation_level`; the isometries are generated when
    read.
    """
    import numpy as np

    check_truncation_level(s, level)
    if twist is not None:
        n = s.alphabet_size
        if sorted(twist) != list(range(n)):
            raise InvalidParameter("twist must permute the alphabet", witness=twist)
        image = [tuple(sorted(twist[j] for j in s.succ[i])) for i in range(n)]
        if any(image[i] != s.succ[twist[i]] for i in range(n)):
            raise InvalidParameter("twist must preserve the transition matrix",
                                   witness=twist)
        twist = tuple(twist)
    if perron is None:
        perron = perron_data(s)
    table = word_table(s, level + 1)
    mu = _measure(perron, level, table[:, 0], table[:, -1])

    # lexicographic order: a prefix block starts where any of its letters changes
    starts = []
    changed = np.zeros(len(table), dtype=bool)
    changed[:1] = True
    for n in range(level):
        changed[1:] |= table[1:, n] != table[:-1, n]
        starts.append(np.flatnonzero(changed))
    return SpectralTruncation(s, level, table, mu, perron, starts, twist)


def _schedule(level: int, eigenvalues):
    """lambda_0..lambda_N: the given eigenvalues as a list, by default
    range(N + 1)."""
    if eigenvalues is None:
        return range(level + 1)
    if len(eigenvalues) != level + 1:
        raise InvalidParameter("need one eigenvalue per level",
                               witness=len(eigenvalues))
    return list(eigenvalues)


def _measure(perron: PerronData, level: int, heads, lasts):
    """mu of the words of length N+1 with these first and last letters."""
    left, right, norm = perron.arrays
    return left[heads] * right[lasts] * perron.value ** (-level) / norm


def _ranges(starts, lengths):
    """The concatenated ranges starts[k] + [0, lengths[k])."""
    import numpy as np

    ends = np.cumsum(lengths)
    out = np.arange(lengths.sum())
    out += np.repeat(np.asarray(starts - (ends - lengths), dtype=out.dtype), lengths)
    return out


def ck_residuals(s: SFTData, level: int, perron: PerronData) -> dict:
    """The CK residuals of :func:`level_certificates`."""
    return level_certificates(s, level, perron)[1]


def commutator_norms(s: SFTData, level: int, eigenvalues=None) -> list[float]:
    """Norm of P_{N-1}[D, S_i]P_{N-1} per letter i at level N under this
    schedule (lambda_n = n by default), by the walk of :func:`_walk`."""
    return _walk(s, level, eigenvalues)[0]


def level_certificates(s: SFTData, level: int, perron: PerronData) -> tuple[list, dict]:
    """The commutator norms (lambda_n = n) and the operator norms of both
    defining relations at level N, compressed to levels <= N-1, from one
    walk of the path supports (:func:`_walk`).

    With Q = Q_{N-1} (columns the length-N prefixes u, weights g_w on
    their words w), S_j S_j^* is diagonal with entries t_w (row w of S
    squared and summed) and S_i Q maps u to c_{iu} times the word i u (c
    its row's g-weighted sum).  So both compressed relations are diagonal
    in u, and each norm is the largest modulus of its entries: the unit
    sum's are sum_{w in u} g_w^2 (t_w - 1), and letter i's are c_{iu}^2 -
    sum_{w in u} g_w^2 t_w where A_{i u_0} = 1 (0 elsewhere).  An entry
    of S depends on its row's first letter and its column's last two
    letters, so these depend on (u_0, u_{N-1}) and (i, u_0, u_{N-1})
    alone: each is computed once, as the assembled rows compute it, for
    the pairs joined by a path of N-1 steps.  A u whose last letter has
    no successor is no prefix; its rows are empty.
    """
    import numpy as np

    n = s.alphabet_size
    a = s.succ_arrays
    norms, (source, target) = _walk(s, level)
    keep = a.degree[target] > 0
    source, target = source[keep], target[keep]

    def rows(heads, ends):  # entries of S in rows with these first and last letters
        row = np.repeat(np.arange(len(ends)), a.degree[ends])
        lasts = a.cols[_ranges(a.first[ends], a.degree[ends])]
        heads, ends = heads[row], ends[row]
        return row, lasts, np.sqrt(_measure(perron, level + 1, heads, lasts)
                                   / _measure(perron, level, heads, ends))

    # the words u b of the prefix classes, b ascending
    word, lasts, _ = rows(source, target)
    block = np.searchsorted(word, np.arange(len(target)))
    mu = _measure(perron, level, source[word], lasts)
    g = np.sqrt(mu / np.add.reduceat(mu, block)[word])
    row, _, vals = rows(source[word], lasts)
    t = np.bincount(row, weights=vals * vals, minlength=len(word))
    unit = np.add.reduceat(g * g * (t - 1), block)
    ranges = np.add.reduceat(g * g * t, block)

    # the rows i u: per pair (i, u_0) of A, the prefix classes starting with u_0
    per_source = np.bincount(source, minlength=n)
    prefix = _ranges(np.searchsorted(source, a.cols), per_source[a.cols])
    letter = np.repeat(a.rows, per_source[a.cols])
    row, _, vals = rows(letter, target[prefix])
    lifted = np.bincount(row, weights=g[_ranges(block[prefix], a.degree[target[prefix]])]
                         * vals, minlength=len(prefix))
    per_letter = np.zeros(n)
    np.maximum.at(per_letter, letter, np.abs(lifted * lifted - ranges[prefix]))
    return norms, {"unit_sum": float(np.abs(unit).max(initial=0.0)),
                   "range_relation": per_letter.tolist()}


def _walk(s: SFTData, level: int, eigenvalues=None) -> tuple:
    """The commutator norms at level N under this schedule, by the closed
    form of the module docstring, and the support of level N-1, from one
    pass over the supports of levels 0..N-1 that holds one at a time.

    Let e_m mark the letters that start a word of length m+1.  A basis
    prefix of length k+1 ending in j extends by as many letters as j has
    successors in e_{N-k-1}, and at least one.  So letter i gains
    prefixes at length k+2 exactly when a path of k steps joins it to a
    fork: a letter with two or more successors in e_{N-k-1}.  The e_m
    shrink and then stay fixed, so only the distinct fork masks are kept.
    """
    import numpy as np

    lam = _schedule(level, eigenvalues)
    n, a = s.alphabet_size, s.succ_arrays
    live, forks = np.ones(n, dtype=bool), []
    while len(forks) < level:
        successors = a.times(live)
        forks.append(successors >= 2)
        if np.array_equal(successors > 0, live):
            break
        live = successors > 0
    norms, paths = np.zeros(n), _paths(s)
    for k, (source, target) in zip(range(level - 1), paths):
        grows = source[forks[min(level - k - 1, len(forks) - 1)][target]]
        norms[grows] = np.maximum(norms[grows], float(abs(lam[k + 1] - lam[k])))
    return norms.tolist(), next(paths)


def _paths(s: SFTData) -> Iterator[tuple]:
    """Yield, for k = 0, 1, ..., the sources and targets of the pairs of
    letters joined by a path of k steps, each pair once, ordered by
    source, then target: a support stepped over successor lists."""
    import numpy as np

    n = s.alphabet_size
    a = s.succ_arrays
    source = target = np.arange(n)
    while True:
        yield source, target
        sizes = a.degree[target]
        key = (source * n).repeat(sizes) + a.cols[_ranges(a.first[target], sizes)]
        key.sort(kind="stable")
        new = np.empty(len(key), dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        source, target = np.divmod(key[new], n)


class GradingOperator(namedtuple("GradingOperator", "new_dims eigenvalues growth_const "
                                 "growth_ratio power_exponent")):
    """Diagonal grading: eigenvalue lambda_n with multiplicity new_dims[n].

    ``growth_const``/``growth_ratio`` certify new_dims[n] <= C * rho^n for
    every n (not only computed ones), enabling tail bounds past the
    truncation.  ``power_exponent`` marks schedules of the form
    lambda_n = (dim A_n)^q coming from a filtered algebra.
    """

    __slots__ = ()

    def __new__(cls, new_dims, eigenvalues, growth_const=None, growth_ratio=None,
                power_exponent=None):
        if len(new_dims) != len(eigenvalues):
            raise InvalidParameter("one eigenvalue per level required")
        if any(d < 0 for d in new_dims):
            raise InvalidParameter("multiplicities must be nonnegative")
        return super().__new__(cls, new_dims, eigenvalues, growth_const, growth_ratio,
                               power_exponent)

    @property
    def levels(self) -> int:
        return len(self.new_dims)


class SFTGradings:
    """Gradings of the cylinder filtration of one SFT, lambda_n = n, at
    any number of levels, with a certified geometric bound on the
    eigenspace dimensions.

    Neither a level's dimension nor the bound depends on how many levels
    are asked for: the bound is computed once, the word counts are
    stepped once and only as far as the most levels asked for so far, and
    each call hands out a slice.  ``perron`` is the SFT's Perron data
    when the caller already holds it.  If every letter has one successor,
    no level past 0 has words to add, and the ratio is 0.0 (C 0^0 = C).
    """

    def __init__(self, s: SFTData, perron: PerronData | None = None):
        import numpy as np

        if perron is None:
            perron = perron_data(s)
        r = perron.arrays[1]
        ar = s.succ_arrays.times(r)
        rho = perron.value * (1 + 1e-9)
        if all(len(js) == 1 for js in s.succ):
            rho = 0.0
        elif np.any(ar > rho * r):
            # inflate until the entrywise certificate A r <= rho r holds
            rho = float(np.max(ar / r)) * (1 + 1e-12)
        self.growth_const = float(r.sum() / r.min())
        self.growth_ratio = rho
        self._dims: list = []  # dim V_n for the levels stepped so far
        self._counts = map(sum, word_count_vectors(s))

    def __call__(self, max_level: int) -> GradingOperator:
        """The grading of levels 0..max_level."""
        if max_level < 0:
            raise InvalidParameter("level must be >= 0", witness=max_level)
        self._dims.extend(islice(self._counts, max(max_level + 1 - len(self._dims), 0)))
        dims = FiltrationDims(tuple(self._dims[:max_level + 1])).new_dims()
        return GradingOperator(dims, tuple(range(max_level + 1)),
                               growth_const=self.growth_const,
                               growth_ratio=self.growth_ratio)


def grading_from_sft(s: SFTData, max_level: int,
                     perron: PerronData | None = None) -> GradingOperator:
    """Grading of the cylinder filtration, lambda_n = n, at levels
    0..max_level, with a certified geometric bound on the eigenspace
    dimensions (see :class:`SFTGradings`)."""
    return SFTGradings(s, perron)(max_level)


def check_heat_parameter(t: float) -> None:
    """InvalidParameter unless 0 < t < inf (NaN fails too)."""
    if not 0 < t < math.inf:
        raise InvalidParameter("heat parameter must be positive and finite",
                               witness=t)


def check_zeta_exponent(s: float) -> None:
    """InvalidParameter unless s is finite."""
    if not math.isfinite(s):
        raise InvalidParameter("zeta exponent must be finite", witness=s)


ThetaTrace = namedtuple("ThetaTrace", "t partial tail_bound converged")


def theta_trace(d: GradingOperator, t: float, tol: float = 1e-12) -> ThetaTrace:
    """Partial sum of Tr exp(-t D^2) with a certified geometric tail bound.

    The tail past level N uses new_dims[n] <= C rho^n and, for the linear
    schedule, exp(-t n^2) <= (exp(-t(N+1)))^n, giving a geometric series.
    """
    check_heat_parameter(t)

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


# diagnosis: "Divergent" or "Convergent"
ZetaPartial = namedtuple("ZetaPartial", "s partial diagnosis tail_bound")


def _zeta_terms(d: GradingOperator, s: float) -> Iterator[float]:
    """m (1 + |lambda|^2)^(-s/2) per level, m the level's multiplicity."""
    return (m * (1 + abs(lam) ** 2) ** (-s / 2)
            for m, lam in zip(d.new_dims, d.eigenvalues))


def zeta_partial(d: GradingOperator, s: float) -> ZetaPartial:
    """Partial sum of sum_n new_dims[n] (1 + |lambda_n|^2)^(-s/2) with a
    divergence diagnosis for the implied infinite schedule.

    Geometric eigenspace growth against a polynomial eigenvalue schedule
    diverges for every s; growth ratio 0 leaves nothing past level 0;
    power schedules lambda_n = (dim A_n)^q converge exactly when s q > 2,
    with tail majorant sum n^(1-sq).
    """
    check_zeta_exponent(s)
    partial = float(sum(_zeta_terms(d, s)))
    if d.power_exponent is not None:
        sq = s * d.power_exponent
        if sq > 2:
            n = d.levels
            tail = n ** (2 - sq) / (sq - 2)
            return ZetaPartial(s, partial, "Convergent", tail)
        return ZetaPartial(s, partial, "Divergent", math.inf)
    if d.growth_ratio is not None:
        if d.growth_ratio == 0:
            return ZetaPartial(s, partial, "Convergent", 0.0)
        if d.growth_ratio > 1:
            return ZetaPartial(s, partial, "Divergent", math.inf)
        if s > 1:
            n = max(d.levels, 1)
            tail = (d.growth_const or 1.0) * n ** (1 - s) / (s - 1)
            return ZetaPartial(s, partial, "Convergent", tail)
        return ZetaPartial(s, partial, "Divergent", math.inf)
    # bare finite operator: nothing past the last level
    return ZetaPartial(s, partial, "Convergent", 0.0)


class AFTriple(namedtuple("AFTriple", "dims p q parity")):
    """Eigenvalue schedule for a filtered algebra, |lambda_n| = (dim A_n)^q.

    ``dims`` lists dim A_n for n = 1..N (strictly increasing, dim A_n >= n);
    the summability target is p with exponent q > 2/p.  Parity selects the
    odd real schedule or the even doubled block variant.
    """

    __slots__ = ()

    def __new__(cls, dims, p, q, parity="odd"):
        self = super().__new__(cls, dims, p, q, parity)
        if not 0 < self.p < math.inf:  # NaN fails too
            raise SummabilityViolation("summability degree must be positive "
                                       "and finite", witness=self.p)
        if not 2 / self.p < self.q < math.inf:
            raise SummabilityViolation(
                f"exponent q = {self.q} must be finite and exceed 2/p = "
                f"{2 / self.p}", witness=(self.p, self.q))
        if any(b <= a for a, b in zip(self.dims, self.dims[1:])):
            raise SummabilityViolation("algebra dimensions must strictly increase",
                                       witness=self.dims)
        if any(d < n + 1 for n, d in enumerate(self.dims)):
            raise SummabilityViolation("dim A_n >= n is forced by strict growth",
                                       witness=self.dims)
        if self.parity not in ("odd", "even"):
            raise InvalidParameter("parity must be 'odd' or 'even'",
                                   witness=self.parity)
        try:  # the largest eigenvalue, and its square in the summability terms
            (float(max(self.dims, default=1)) ** self.q) ** 2
        except OverflowError:
            raise InvalidParameter("squared eigenvalue (dim A_N)^(2q) exceeds "
                                   "float range", witness=(self.p, self.q)) from None
        return self

    def eigenvalues(self) -> tuple:
        vals = tuple(float(d) ** self.q for d in self.dims)
        if self.parity == "even":
            return tuple(complex(v) for v in vals)
        return vals

    def grading(self) -> GradingOperator:
        return GradingOperator(FiltrationDims(self.dims).new_dims(), self.eigenvalues(),
                               power_exponent=self.q)

    def even_block(self) -> "EvenBlock":
        """Doubled block form: equal graded halves coupled by the schedule."""
        if self.parity != "even":
            raise RequiresEvenTriple("odd schedule has no block form")
        return EvenBlock(self.dims[-1], self.dims[-1], _coupling(self.grading()))


AFLevel = namedtuple("AFLevel", "blocks total")


def af_core_dims(s: SFTData, max_level: int) -> list[AFLevel]:
    """Matrix-block sizes of the filtered core at each level.

    Level n has one block per letter i of size
    c_i(n) = #{admissible words of length n that i can follow}, and total
    dimension sum_i c_i(n)^2; the empty word gives c_i(0) = 1.  The
    blocks are the column sums of A^n, i.e. the word-count vector v_{n+1}.
    """
    if not s.is_irreducible():
        raise RequiresIrreducible("core dimensions need an irreducible matrix")
    cap = word_budget()
    out = []
    for n, vec in zip(range(max_level + 1), word_count_vectors(s)):
        total = sum(c * c for c in vec)
        if total > cap:
            raise EnumerationBudgetExceeded(
                f"core dimension {total} at level {n} exceeds budget {cap}",
                witness=total)
        out.append(AFLevel(vec, total))
    return out


class AFSummabilityReport(namedtuple("AFSummabilityReport", "p q terms partials "
                                     "majorant_terms majorant_partials")):
    __slots__ = ()

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
    terms = tuple(_zeta_terms(a.grading(), a.p))
    majorants = tuple(float(n) ** (1 - a.p * a.q) for n in range(1, len(terms) + 1))
    return AFSummabilityReport(a.p, a.q, terms, tuple(accumulate(terms)),
                               majorants, tuple(accumulate(majorants)))


# A folded spectrum: one record per distinct eigenvalue, values strictly
# increasing.  Multiplicities are int64, so CrossedProductTriple bounds
# their total.
SPECTRUM_DTYPE = [("value", "float64"), ("multiplicity", "int64")]

# The largest crossed-product grid, count * (M + 1) points, that is folded.
# The fold peaks at about 25 B per point and the fit reads its totals in
# place; the base adds 16 B per eigenvalue, so a fresh run at the cap
# stays near 0.4-0.5 GB (README gives measured peaks).
CROSSED_MAX_POINTS = 1 << 24


def check_crossed_size(points: int) -> None:
    """InvalidParameter unless a crossed-product grid of ``points``
    values fits within CROSSED_MAX_POINTS (checked before allocating)."""
    if points > CROSSED_MAX_POINTS:
        raise InvalidParameter(
            f"crossed-product grid exceeds {CROSSED_MAX_POINTS} points", witness=points)


class CrossedProductTriple:
    """Base spectrum crossed with Fourier modes |k| <= M.

    The derived spectrum is the folded multiset
    { +-sqrt(lambda_j^2 + k^2) : 0 <= k <= M } with the base
    multiplicities, symmetric about zero by construction.  The base is a
    sequence of (eigenvalue, multiplicity) pairs, or a SPECTRUM_DTYPE
    array of them (in any order, repeats allowed).  Base eigenvalues must
    be finite, and the grid of len(base) * (M + 1) values at most
    CROSSED_MAX_POINTS.  Multiplicities must be positive ints (int64 in
    an array) whose folded total, 2 (M + 1) sum_j mult_j, stays below
    2**63 (the spectrum stores them as int64).  The base is checked once,
    at construction, and kept as arrays (see :func:`_checked_base`); an
    array base is kept as a read-only copy.  ``base`` and ``cutoff`` are
    read-only.
    """

    def __init__(self, base, cutoff: int):
        if cutoff < 0:
            raise InvalidParameter("Fourier cutoff must be >= 0", witness=cutoff)
        check_crossed_size(len(base) * (cutoff + 1))
        base, *arrays = _checked_base(base, cutoff + 1)
        self.__dict__.update(base=base, cutoff=cutoff, _arrays=tuple(arrays))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}")

    # Equal, and hashed alike, when the cutoffs and the checked bases are
    # equal: field by field, an array base would compare elementwise and
    # could not be hashed.
    def __eq__(self, other):
        import numpy as np

        if type(other) is not type(self):
            return NotImplemented
        return self.cutoff == other.cutoff and all(
            map(np.array_equal, self._arrays, other._arrays))

    def __hash__(self):
        values, counts = self._arrays
        # + 0.0 maps -0.0 to 0.0, which it equals
        return hash((self.cutoff, (values + 0.0).tobytes(), counts.tobytes()))

    def spectrum(self):
        return crossed_product_spectrum(self)


def _checked_base(base, modes: int) -> tuple:
    """(base, eigenvalues, multiplicities): the base to keep (a read-only
    copy of an array base), its float64 eigenvalues and its int64
    multiplicities, checked in one vectorised pass.  The first bad pair is the witness of
    InvalidParameter: a non-finite eigenvalue, a multiplicity that is not
    a positive int, or the pair at which the folded total
    2 * modes * sum(mult) reaches 2**63; of two faults at one pair, the
    first named.  Pairs are unpacked as a loop over them would, their
    multiplicities typed in Python: a non-int counts as 0, and an int at
    the limit as the limit, so either fails at its own pair."""
    import numpy as np

    limit = -(-(1 << 62) // modes)  # the least running total refused
    array = isinstance(base, np.ndarray) and base.ndim == 1 and base.dtype == SPECTRUM_DTYPE
    if array:  # kept as a read-only copy: writes to the caller's array change nothing
        base = base.copy()
        base.flags.writeable = False
        values, counts = base["value"], base["multiplicity"]
    else:
        try:  # math.isfinite refuses what float() would parse, as str
            lams = [lam for lam, _ in base]
            np.fromiter(map(math.isfinite, lams), bool, len(lams))
        except Exception:
            _raise_at_failing_pair(base, modes)
            raise
        mults = [mult for _, mult in base]
        values = np.fromiter(map(float, lams), np.float64, len(lams))
        counts = np.fromiter((min(m, limit) if isinstance(m, int) and m > 0 else 0
                              for m in mults), np.int64, len(mults))
    faults = (("base eigenvalues must be finite", ~np.isfinite(values)),
              ("multiplicities must be positive ints", counts < 1),
              ("total multiplicity must stay below 2**63",
               np.cumsum(np.minimum(counts, limit)) >= limit))
    first = [(int(bad.argmax()), rank) for rank, (_, bad) in enumerate(faults) if bad.any()]
    if first:
        at, rank = min(first)
        raise InvalidParameter(faults[rank][0], witness=base[at].item() if array
                               else (lams[at], mults[at]))
    return base, values, counts


def _raise_at_failing_pair(base, modes: int):
    """The error of the first pair that cannot be unpacked or tested with
    math.isfinite, raised as a loop over the pairs would raise it: after
    any fault in the pairs before it."""
    for at, pair in enumerate(base):
        try:
            lam, _ = pair
            math.isfinite(lam)
        except Exception:
            _checked_base(base[:at], modes)
            raise


def crossed_product_half(c: CrossedProductTriple):
    """The k >= 0 half of the crossed-product spectrum, folded: the
    values sqrt(lambda^2 + k^2), 0 <= k <= M, as a SPECTRUM_DTYPE array
    (:func:`_crossed_fold`, its running totals differenced)."""
    import numpy as np

    values, totals = _crossed_fold(c)
    half = np.empty(len(values), dtype=SPECTRUM_DTYPE)
    half["value"] = values
    half["multiplicity"] = totals
    half["multiplicity"][1:] -= totals[:-1]
    return half


def _crossed_fold(c: CrossedProductTriple) -> tuple:
    """The k >= 0 half of the crossed-product spectrum as :func:`_fold`
    returns it: its distinct values and the running multiplicity totals.

    A row whose lambda is an integer with lambda^2 + M^2 < 2**53 holds
    exact squares and sums, so np.sqrt of the sum is the correctly
    rounded root; every other row (a non-integer or a large lambda) is
    math.hypot(lambda, k), point by point.  That the root of the exact
    sum equals math.hypot bit for bit is an equality checked by tests
    (the CLI goldens, and rows on both sides of the 2**53 limit), not a
    theorem; it also held on every point of the linear 3000 x 3000 and
    quadratic 2000 x 2000 CLI grids.  np.hypot is not used: it can
    differ from math.hypot in the last bit, which would split or merge
    eigenvalues.
    """
    import numpy as np

    lams, mults = c._arrays
    if not len(lams):  # any cutoff, however large
        return np.empty(0), np.empty(0, dtype=np.int64)
    # the grid is passed on unnamed, so _fold frees it once it has sorted
    return _fold(_crossed_grid(lams, c.cutoff + 1).reshape(-1), mults, c.cutoff + 1)


def _crossed_grid(lams, modes: int):
    """The len(lams) x modes array of sqrt(lambda^2 + k^2)."""
    import numpy as np

    with np.errstate(over="ignore"):
        squares = lams * lams
    # float comparisons that are exact: a sum of exact integers is
    # rounded to >= 2**53 exactly when it is >= 2**53
    exact = (np.floor(lams) == lams) & (squares + min((modes - 1) ** 2, 2 ** 53) < 2 ** 53)
    grid = np.add.outer(np.where(exact, squares, 0.0), np.arange(modes, dtype=np.float64) ** 2)
    np.sqrt(grid, out=grid)
    rows = np.flatnonzero(~exact)
    xs = lams[rows].tolist()  # one Python float per math.hypot row, read by every pass
    for k in range(modes if xs else 0):  # one math.hypot pass per mode column
        grid[rows, k] = np.fromiter(map(math.hypot, xs, repeat(k)), np.float64, len(xs))
    return grid


def crossed_product_spectrum(c: CrossedProductTriple):
    """The crossed-product operator's spectrum as a SPECTRUM_DTYPE array.

    The folded k >= 0 half (:func:`crossed_product_half`) is mirrored; a
    zero value (a zero base eigenvalue at k = 0) is its own mirror image
    and counts twice.
    """
    import numpy as np

    half = crossed_product_half(c)
    zero = int(len(half) > 0 and half["value"][0] == 0)  # its own mirror image
    half["multiplicity"][:zero] *= 2
    negative = half[zero:][::-1].copy()
    negative["value"] *= -1
    return np.concatenate((negative, half))


def _fold(values, mults, width: int = 1) -> tuple:
    """Distinct values in increasing order, each with the running total of
    the multiplicities up to and including it: (values, totals), where
    values[i] has multiplicity mults[i // width]."""
    import numpy as np

    order = np.argsort(values, kind="stable")
    values = values[order]  # frees an unnamed input: two n-long arrays at a time
    order //= width  # each sorted value's row
    # gathered into the argsort buffer: with mode="clip" (every index is
    # in range) take writes in place, where "raise" would buffer the output
    totals = mults.take(order, out=order, mode="clip")
    np.cumsum(totals, out=totals)
    last = np.empty(len(values), dtype=bool)  # the last value of each run
    np.not_equal(values[1:], values[:-1], out=last[:-1])
    last[-1:] = True
    values = values[last]  # one gather at a time, each freeing its source
    return values, totals[last]


# window: (low eigenvalue, high eigenvalue) of the fit window
SlopeFit = namedtuple("SlopeFit", "slope window points")


def summability_exponent_fit(spectrum, min_distinct: int = 50) -> SlopeFit:
    """Least-squares growth exponent of the eigenvalue counting function.

    ``spectrum`` is a CrossedProductTriple (its k >= 0 half is folded and
    fitted, never built as records), a SPECTRUM_DTYPE array (as
    crossed_product_spectrum returns, or the half crossed_product_half
    returns: only positive values count) or any sequence of (value,
    multiplicity) pairs, in any order and with repeats.  The counting
    function N(L) = #{positive eigenvalues <= L} (with multiplicity) is
    fitted as log N ~ slope * log L over the middle two quartiles of the
    distinct positive values; the slope estimates the summability degree.
    A spectrum whose values are already strictly increasing (a folded
    one) is read in place; any other is folded first.
    """
    import numpy as np

    if isinstance(spectrum, CrossedProductTriple):
        return _slope_fit(*_crossed_fold(spectrum), min_distinct)
    if not isinstance(spectrum, np.ndarray):
        spectrum = np.array(list(spectrum), dtype=SPECTRUM_DTYPE)
    values = spectrum["value"]
    if np.all(values[1:] > values[:-1]):  # folded: the positive values end it
        positive = spectrum[np.searchsorted(values, 0, side="right"):]
        return _slope_fit(positive["value"], np.cumsum(positive["multiplicity"]),
                          min_distinct)
    positive = spectrum[values > 0]
    return _slope_fit(*_fold(positive["value"], positive["multiplicity"]), min_distinct)


def _slope_fit(values, totals, min_distinct: int) -> SlopeFit:
    """The fit of :func:`summability_exponent_fit`, read from a folded
    spectrum's strictly increasing values and the running multiplicity
    total at each (as :func:`_fold` returns them).  Values <= 0 lead it
    when present; they and their multiplicities are left out."""
    import numpy as np

    start = int(np.searchsorted(values, 0, side="right"))
    distinct = len(values) - start
    if distinct < max(min_distinct, 3):  # a window of two or more points
        raise InsufficientSpectrum(
            f"need >= {max(min_distinct, 3)} distinct positive eigenvalues, got {distinct}",
            witness=distinct)
    lo = start + distinct // 4
    hi = start + (3 * distinct) // 4
    window = (float(values[lo]), float(values[hi - 1]))
    counts = totals[lo:hi]
    if start:  # N(L) counts positive eigenvalues only
        counts = counts - totals[start - 1]
    xs = np.log(values[lo:hi])
    ys = np.log(counts)
    # the centred least-squares slope, in place on the logs
    xs -= xs.mean()
    ys -= ys.mean()
    ys *= xs
    spread = float(np.square(xs, out=xs).sum())
    if spread == 0:  # the window's values have one logarithm
        raise InsufficientSpectrum("the fit window has no spread", witness=window)
    return SlopeFit(float(ys.sum()) / spread, window, hi - lo)


class EvenBlock(namedtuple("EvenBlock", "plus_dim minus_dim coupling")):
    """Even block operator [[0, D0*], [D0, 0]] with grading diag(1, -1).

    ``coupling`` lists the nonzero singular values of D0; the graded
    halves have dimensions plus_dim and minus_dim.
    """

    __slots__ = ()

    def __new__(cls, plus_dim, minus_dim, coupling=()):
        if len(coupling) > min(plus_dim, minus_dim):
            raise InvalidParameter("more singular values than block dimensions")
        return super().__new__(cls, plus_dim, minus_dim, coupling)


def _coupling(d: GradingOperator) -> tuple:
    """The even double's coupling: each nonzero |lambda_n| as a float,
    repeated new_dims[n] times."""
    return tuple(chain.from_iterable(repeat(float(abs(lam)), m)
                                     for m, lam in zip(d.new_dims, d.eigenvalues) if lam))


def even_double(t: SpectralTruncation) -> EvenBlock:
    """Doubled form of a truncation: two copies coupled by the grading."""
    grading = grading_from_sft(t.sft, t.level, t.perron)
    return EvenBlock(t.dimension, t.dimension, _coupling(grading))


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
