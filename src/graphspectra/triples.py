"""Finite-dimensional spectral data for shift algebras.

The central object is :class:`SpectralTruncation`: the span of cylinder
indicators of length N+1 of an irreducible SFT, carrying

* its basis, the admissible words of length N+1 in lexicographic order,
  held as one numpy word table (one small-integer row per word); each
  isometry row is found from the table's prefix counts by rank
  arithmetic, not by looking words up;
* the grading operator D = sum_n n (P_n - P_{n-1}), where P_n projects
  onto functions of the first n+1 coordinates.  P_n = Q_n Q_n^T for the
  prefix factor Q_n, a dim x #prefixes matrix with orthonormal columns
  and nnz = dim; only the block starts of the Q_n are stored (their
  weights are derived from the measure when used), and
  D = N - sum_{n<N} P_n is applied in O(N dim) per vector;
* one partial isometry per letter, acting on mu^(1/2)-normalized
  cylinder indicators by prepending the letter with a conformal weight
  drawn from the Parry measure.  Their ranges partition the basis (the
  range of S_i is the cylinder of i), so they are stored as the three
  CSR arrays (indptr, indices, data) of S = sum_i S_i, whose row block i
  is S_i.

The stored isometries are the members of the adjoint pair (prepend /
chop) that satisfy the defining relations

    sum_j S_j S_j^* = 1,   S_i^* S_i = sum_j A_ij S_j S_j^*

exactly on levels <= N-1 of the truncation; their adjoints lower the
level by one.  Each S_j S_j^* is diagonal in the cylinder basis, and
each row of S_i collects the words of a single length-N prefix, so both
relations compressed to levels <= N-1 are diagonal per length-N prefix:
``ck_residuals`` evaluates them in one pass over the entries of S,
after checking that pattern on the entries.

Commutator norms have a closed form.  Let E_n = range(P_n - P_{n-1}).
Since S_i^* maps V_n = range(P_n) into V_{n-1} (and V_0 into V_0), S_i
maps E_n into E_{n+1} for n >= 1, and (1 - P_0) S_i maps E_0 into E_1;
S_i^* S_i commutes with every P_n.  So P_{N-1}[D, S_i]P_{N-1} is the
orthogonal sum over n <= N-2 of the blocks (lambda_{n+1} - lambda_n)
times S_i (times (1 - P_0) S_i at n = 0) from E_n to E_{n+1}, each 0
or a partial isometry.  A block is nonzero exactly when more
length-(n+2) than length-(n+1) prefixes of the basis start with i, and
the norm is the largest |lambda_{n+1} - lambda_n| over those levels.
The Parry weight ratio mu(iw) / mu(w) = l_i / (l_{w_0} lambda) depends
on w_0 alone, so every letter has stabilization level k_i = 1.  The
restricted commutator is also available as a LinearOperator, normed by
spectral_norm: the reference the closed form is tested against.

Cylinder indicators are normalized to unit vectors; commutator norms
depend on this normalization choice.

The module also covers the dimension-sequence side: heat-trace partial
sums with certified geometric tail bounds, zeta-type partial sums with a
divergence diagnosis, eigenvalue schedules for filtered AF algebras with
the termwise summability comparison, and the folded spectrum of the
crossed product by Z (one sorted numpy record array of distinct values
and multiplicities) with its counting-function slope fit.

numpy and scipy are imported inside the functions that compute with
them, so that importing the package loads neither: the reference views
(``spectral_norm`` and the sparse views of a truncation) load both; the
truncation itself, the Perron-data grading, the crossed-product spectrum
and the slope fit load numpy only; the other dimension-sequence
functions load neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice, repeat

from .errors import (
    EnumerationBudgetExceeded,
    InsufficientSpectrum,
    InvalidParameter,
    InvalidTransitionMatrix,
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
    filtration_dims,
    perron_data,
    successor_arrays,
    word_budget,
    word_count_vectors,
    word_table,
)

# Largest smaller side decomposed densely by spectral_norm; above it,
# Lanczos.  Timed on truncation commutators (with 6 Lanczos vectors): on
# shifts with few letters Lanczos wins from dim ~150, on subdivided theta
# graphs (many letters, mostly one successor) dense wins up to dim ~280.
DENSE_NORM_CUTOFF = 256
# Lanczos vectors per ARPACK restart cycle: ARPACK's default.  The top
# singular value of a truncation commutator is a schedule step, repeated
# as often as the rank of its level's block (18 times at g=2, N=5 on
# letter 0 of a random schedule); with 6 vectors the tol=0 iteration
# stalled there and raised NormNotConverged after ~67 s, where 20
# converges in ~20 ms.
LANCZOS_NCV = 20
# Isometry entries per batch of the ck_residuals pass, at most: bounds its
# per-entry temporaries whatever the dimension.
ENTRY_BATCH = 1 << 16


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
    weights are derived from them and ``mu`` when used, O(N dim) in all,
    next to the CSR arrays of S = sum_i S_i, whose row block i is S_i,
    and the index of u among the length-N prefixes for each row (i,) + u.
    P_n X = Q_n (Q_n^T X) is a block sum and a broadcast, and
    D = lambda_N - sum_{n<N} (lambda_{n+1} - lambda_n) P_n.
    ``isometry``, ``projection`` and ``grading_matrix`` assemble scipy
    reference views on demand.  ``commutator_norm`` needs none of this:
    it reads the counts of the length-(n+1) prefixes by first letter.
    """

    def __init__(self, sft: SFTData, level: int, table: np.ndarray, mu: np.ndarray,
                 indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 tail: np.ndarray, starts: list, counts: list, twist: tuple | None):
        import numpy as np

        self.sft = sft
        self.level = level
        self._table = table  # the basis words, one row each
        self.mu = mu
        self._indptr, self._indices, self._data = indptr, indices, data  # CSR of S
        self._tail = tail  # row (i,) + u: the index of u among the length-N prefixes
        self._starts = starts  # block starts of the length-(n+1) prefixes
        self._counts = counts  # length-(n+1) prefixes per first letter
        self._sizes = [np.diff(s, append=len(table)) for s in starts]
        self.twist = twist
        self.dimension = len(table)

    @cached_property
    def words(self) -> list:
        """The basis words as tuples, in basis order."""
        return list(map(tuple, self._table.tolist()))

    def _weight(self, n: int) -> np.ndarray:
        """Column (dim, 1) of sqrt(mu(w) / mu(u)), u the length-(n+1)
        prefix of the basis word w."""
        import numpy as np

        block_mu = np.repeat(np.add.reduceat(self.mu, self._starts[n]), self._sizes[n])
        return np.sqrt(self.mu / block_mu)[:, None]

    def isometry(self, letter: int):
        """S_i as a new dim x dim CSR matrix: the rows of S in the block of
        the words starting with the letter, every other row empty."""
        import numpy as np
        import scipy.sparse as sp

        lo = self._starts[0][letter]
        a, b = self._indptr[[lo, lo + self._sizes[0][letter]]]
        return sp.csr_matrix((self._data[a:b].copy(), self._indices[a:b].copy(),
                              np.clip(self._indptr, a, b) - a),
                             shape=(self.dimension, self.dimension))

    def twisted_isometry(self, letter: int):
        """The letter's partial isometry conjugated by the twist unitary;
        for a letter permutation this is the isometry of the image letter."""
        return self.isometry(letter if self.twist is None else self.twist[letter])

    def prefix_factor(self, n: int):
        """Q_n as a sparse dim x #prefixes matrix with orthonormal columns."""
        import numpy as np
        import scipy.sparse as sp

        sizes = self._sizes[n]
        rows = np.arange(self.dimension)
        cols = np.repeat(np.arange(len(sizes)), sizes)
        return sp.csr_matrix((self._weight(n)[:, 0], (rows, cols)),
                             shape=(self.dimension, len(sizes)))

    def projection(self, n: int):
        """P_n = Q_n Q_n^T as a sparse matrix (a reference view)."""
        import scipy.sparse as sp

        if n < 0:
            return sp.csr_matrix((self.dimension, self.dimension))
        if n >= self.level:
            return sp.identity(self.dimension, format="csr")
        q = self.prefix_factor(n)
        return (q @ q.T).tocsr()

    def _schedule(self, eigenvalues) -> list:
        if eigenvalues is None:
            return list(range(self.level + 1))
        if len(eigenvalues) != self.level + 1:
            raise InvalidParameter("need one eigenvalue per level",
                                   witness=len(eigenvalues))
        return list(eigenvalues)

    def grading_matrix(self, eigenvalues=None):
        """D = sum_n lambda_n (P_n - P_{n-1}) as a sparse matrix (a reference
        view); default schedule lambda_n = n."""
        import scipy.sparse as sp

        lam = self._schedule(eigenvalues)
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
        return g * np.repeat(sums, self._sizes[n], axis=0)

    def _grading(self, eigenvalues):
        """The map x -> D x on (dim, k) blocks."""
        lam = self._schedule(eigenvalues)
        steps = [(n, lam[n + 1] - lam[n]) for n in range(self.level)
                 if lam[n + 1] != lam[n]]

        def grade(x):
            out = lam[-1] * x
            for n, step in steps:
                out -= step * self._project(n, x)
            return out
        return grade

    def ck_residuals(self) -> dict:
        """Frobenius norms (upper bounds for the operator norm) of both
        defining relations, compressed to levels <= N-1, from one pass
        over the entries of the stored S = sum_i S_i.

        ||P X P||_F = ||Q^T X Q||_F for Q = Q_{N-1}, whose columns (the
        length-N prefixes u, weights g_w on their words w) are orthonormal.
        The pass first checks on the entries the pattern it relies on:
        every entry (r, c) lies in the row r of a word i u (so in S_i),
        where u is the prefix of the column c, and no (row, column) pair
        repeats.  Then S_j S_j^* is diagonal with entries t_w (row sums of
        squares), S_i Q maps u to c_{iu} times the word i u (c the row sums
        of g-weighted entries), and both compressed relations are diagonal
        per prefix.  The unit-sum residual is the norm over u of
        sum_{w in u} g_w^2 (t_w - 1).  The words i u are the pairs with
        A_{i u_0} = 1, and the one surviving summand of
        sum_j A_ij S_j S_j^* on u is the range of S_{u_0}, with entry
        e_u = sum_{w in u} g_w^2 t_w; so the residual of letter i is the
        norm over the words i u of c_{iu}^2 - e_u.  A broken pattern
        raises RuntimeError.  The entries are read a block of rows at a
        time, at most ENTRY_BATCH of them under the pattern, so the
        per-entry temporaries stay bounded whatever the dimension.
        """
        import numpy as np

        size, dim = self.sft.alphabet_size, self.dimension
        top = self.level - 1
        starts = self._starts[top]
        g = self._weight(top)[:, 0]
        owner = np.repeat(np.arange(len(starts)), self._sizes[top])
        indptr, tail = self._indptr, self._tail
        sq, lifted = np.zeros(dim), np.zeros(dim)
        # a row of the pattern holds at most max-out-degree entries
        step = max(ENTRY_BATCH // max(self.sft.row_sums()), 1)
        for lo in range(0, dim, step):
            hi = min(lo + step, dim)
            a, b = indptr[[lo, hi]]
            rows = np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1]))
            cols, vals = self._indices[a:b], self._data[a:b]
            row_step, col_step = np.diff(rows), np.diff(cols)
            if not (np.all(tail[lo:hi][rows] == owner[cols])
                    and np.all((row_step > 0) | ((row_step == 0) & (col_step > 0)))):
                raise RuntimeError("isometry entries leave the cylinder pattern")
            sq[lo:hi] = np.bincount(rows, weights=vals * vals, minlength=hi - lo)
            lifted[lo:hi] = np.bincount(rows, weights=g[cols] * vals, minlength=hi - lo)
        g *= g
        unit = np.add.reduceat(g * (sq - 1), starts)
        ranges = np.add.reduceat(g * sq, starts)
        gap = lifted
        gap *= lifted
        gap -= ranges[tail]
        gap *= gap
        per_letter = np.sqrt(np.bincount(self._table[:, 0], weights=gap,
                                         minlength=size))
        return {"unit_sum": float(np.linalg.norm(unit)),
                "range_relation": [float(x) for x in per_letter]}

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
        """Operator norm of the restricted commutator and the weight depth.

        The norm is max |lambda_{n+1} - lambda_n| over the levels
        n <= N-2 where the letter starts more length-(n+2) than
        length-(n+1) prefixes, and 0.0 when there is no such level.
        """
        lam = self._schedule(eigenvalues)
        counts = [c[letter] for c in self._counts]
        steps = [abs(lam[n + 1] - lam[n]) for n in range(self.level - 1)
                 if counts[n + 1] > counts[n]]
        return float(max(steps, default=0.0)), self.weight_depth(letter)


def build_truncation(s: SFTData, level: int, twist: tuple | None = None,
                     budget: int | None = None,
                     perron: PerronData | None = None) -> SpectralTruncation:
    """Assemble the level-N cylinder basis, prefix blocks and isometries.

    ``perron`` is the SFT's Perron data when the caller already holds it.
    The basis is the word table of length N+1 (the word budget is checked
    before it is allocated).  S = sum_i S_i is assembled as CSR arrays
    directly: row (i,) + u holds the block of the words with length-N
    prefix u, and the index of u is laid out for all rows at once from
    the prefix counts by first letter.
    """
    import numpy as np

    if level < 2:
        raise TruncationTooSmall("truncation level must be >= 2", witness=level)
    if twist is not None:
        n = s.alphabet_size
        if sorted(twist) != list(range(n)):
            raise InvalidParameter("twist must permute the alphabet", witness=twist)
        image = [tuple(sorted(twist[j] for j in s.successors(i))) for i in range(n)]
        if any(image[i] != s.successors(twist[i]) for i in range(n)):
            raise InvalidParameter("twist must preserve the transition matrix",
                                   witness=twist)
        twist = tuple(twist)
    if perron is None:
        perron = perron_data(s)
    table = word_table(s, level + 1, budget)
    dim = len(table)
    left = np.array(perron.left)
    right = np.array(perron.right)
    lam = perron.value
    norm = float(left @ right)

    first = table[:, 0]
    last = table[:, -1]
    second_last = table[:, -2]
    mu = left[first] * right[last] * lam ** (-level) / norm

    # lexicographic order: a prefix block starts where any of its letters changes
    starts, counts = [], []
    changed = np.zeros(dim, dtype=bool)
    changed[0] = True
    for n in range(level):
        changed[1:] |= table[1:, n] != table[:-1, n]
        block = np.flatnonzero(changed)
        starts.append(block)
        counts.append(np.bincount(first[block], minlength=s.alphabet_size))

    # S_i sends the basis word c = u b (u of length N, u_0 a successor of
    # i) to the word (i,) + u.  Lexicographically, the rows (i,) + u run
    # through the pairs (i, u_0) with A[i][u_0] = 1 in order and, within a
    # pair, through the length-N prefixes u starting with u_0; row
    # (i,) + u holds u's block of columns.
    top_starts, top_by_first = starts[-1], counts[-1]
    top_first = np.cumsum(top_by_first) - top_by_first
    index = np.int32 if dim < 2 ** 31 else np.int64  # as scipy picks for CSR
    _, pair_next = successor_arrays(s)
    tail = _ranges(top_first[pair_next], top_by_first[pair_next], index)
    if len(tail) != dim:
        raise RuntimeError("isometry rows leave the cylinder pattern")
    row_sizes = np.diff(top_starts, append=dim)[tail]
    indptr = np.zeros(dim + 1, dtype=index)
    indptr[1:] = np.cumsum(row_sizes)
    cols = _ranges(top_starts[tail], row_sizes, index)
    # On mu^(1/2)-normalized cylinders the conformal weight cancels the
    # measure ratio, so the raising isometry prepends the letter with
    # coefficient 1; compressing the top level to its length-(N+1) prefix
    # contributes sqrt(mu(iw) / mu(i w_0..w_{N-1})).
    li = np.repeat(left[first], row_sizes)
    mu_iw = li * right[last[cols]] * lam ** (-(level + 1)) / norm
    mu_tgt = li * right[second_last[cols]] * lam ** (-level) / norm
    return SpectralTruncation(s, level, table, mu, indptr, cols,
                              np.sqrt(mu_iw / mu_tgt), tail, starts, counts, twist)


def _ranges(starts, lengths, dtype=None):
    """The concatenated ranges starts[k] + [0, lengths[k])."""
    import numpy as np

    ends = np.cumsum(lengths)
    out = np.arange(lengths.sum(), dtype=dtype)
    out += np.repeat(np.asarray(starts - (ends - lengths), dtype=out.dtype), lengths)
    return out


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


class SFTGradings:
    """Gradings of the cylinder filtration of one SFT, lambda_n = n, at
    any number of levels, with a certified geometric bound on the
    eigenspace dimensions.

    Neither a level's dimension nor the bound depends on how many levels
    are asked for: the bound is computed once, the word counts are
    stepped once and only as far as the most levels asked for so far, and
    each call hands out a slice.  ``perron`` is the SFT's Perron data
    when the caller already holds it.
    """

    def __init__(self, s: SFTData, perron: PerronData | None = None):
        import numpy as np

        if perron is None:
            perron = perron_data(s)
        r = np.array(perron.right)
        degree, successors = successor_arrays(s)  # (A r)_i sums r over succ(i)
        ar = np.bincount(np.repeat(np.arange(len(degree)), degree),
                         weights=r[successors], minlength=len(degree))
        rho = perron.value * (1 + 1e-9)
        if np.any(ar > rho * r):
            # inflate until the entrywise certificate A r <= rho r holds
            rho = float(np.max(ar / r)) * (1 + 1e-12)
        self.growth_const = float(r.sum() / r.min())
        self.growth_ratio = rho
        self._dims: list = []  # dim V_n for the levels stepped so far
        self._counts = map(sum, word_count_vectors(s))

    def __call__(self, max_level: int) -> GradingOperator:
        """The grading of levels 0..max_level."""
        if max_level < 0:
            raise InvalidTransitionMatrix("level must be >= 0", witness=max_level)
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
    if not 0 < t < math.inf:  # NaN fails too
        raise InvalidParameter("heat parameter must be positive and finite",
                               witness=t)

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
    if not math.isfinite(s):
        raise InvalidParameter("zeta exponent must be finite", witness=s)
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
    partials = tuple(accumulate(terms))
    majorant_partials = tuple(accumulate(majorants))
    return AFSummabilityReport(a.p, a.q, tuple(terms), partials,
                               tuple(majorants), majorant_partials)


# A folded spectrum: one record per distinct eigenvalue, values strictly
# increasing.  Multiplicities are int64, so CrossedProductTriple bounds
# their total.
SPECTRUM_DTYPE = [("value", "float64"), ("multiplicity", "int64")]


@dataclass(frozen=True)
class CrossedProductTriple:
    """Base spectrum crossed with Fourier modes |k| <= M.

    The derived spectrum is the folded multiset
    { +-sqrt(lambda_j^2 + k^2) : 0 <= k <= M } with the base
    multiplicities, symmetric about zero by construction.  Multiplicities
    must be positive ints whose folded total, 2 (M + 1) sum_j mult_j,
    stays below 2**63 (the spectrum stores them as int64).
    """

    base: tuple  # (eigenvalue, multiplicity) pairs
    cutoff: int

    def __post_init__(self):
        if self.cutoff < 0:
            raise InvalidParameter("Fourier cutoff must be >= 0",
                                   witness=self.cutoff)
        total = 0
        for lam, mult in self.base:
            if not isinstance(mult, int):
                raise InvalidParameter("multiplicities must be ints",
                                       witness=(lam, mult))
            if mult < 1:
                raise InvalidParameter("multiplicities must be positive",
                                       witness=(lam, mult))
            total += mult
            if 2 * (self.cutoff + 1) * total >= 1 << 63:
                raise InvalidParameter("total multiplicity must stay below 2**63",
                                       witness=(lam, mult))

    def spectrum(self):
        return crossed_product_spectrum(self)


def crossed_product_spectrum(c: CrossedProductTriple):
    """The crossed-product operator's spectrum as a SPECTRUM_DTYPE array.

    The k >= 0 half is folded and then mirrored; a zero value (a zero
    base eigenvalue at k = 0) is its own mirror image and counts twice.
    Values are math.hypot(lambda, k): np.hypot can differ in the last
    bit, which would split or merge eigenvalues.
    """
    import numpy as np

    modes = c.cutoff + 1
    lams = chain.from_iterable(repeat(lam, modes) for lam, _ in c.base)
    ks = chain.from_iterable(repeat(range(modes), len(c.base)))
    half = _fold(np.fromiter(map(math.hypot, lams, ks), dtype=np.float64,
                             count=modes * len(c.base)),
                 np.repeat(np.array([m for _, m in c.base], dtype=np.int64), modes))
    if len(half) and half["value"][0] == 0:
        half["multiplicity"][0] *= 2
        negative = half[:0:-1].copy()
    else:
        negative = half[::-1].copy()
    negative["value"] *= -1
    return np.concatenate((negative, half))


def _fold(values, mults):
    """Distinct values in increasing order, each with the sum of its
    multiplicities, as a SPECTRUM_DTYPE array."""
    import numpy as np

    order = np.argsort(values, kind="stable")
    values, mults = values[order], mults[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(first)
    out = np.empty(len(starts), dtype=SPECTRUM_DTYPE)
    out["value"] = values[starts]
    out["multiplicity"] = np.add.reduceat(mults, starts)
    return out


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    window: tuple  # (low eigenvalue, high eigenvalue) of the fit window
    points: int


def summability_exponent_fit(spectrum, min_distinct: int = 50) -> SlopeFit:
    """Least-squares growth exponent of the eigenvalue counting function.

    ``spectrum`` is a SPECTRUM_DTYPE array (as crossed_product_spectrum
    returns) or any sequence of (value, multiplicity) pairs, in any order
    and with repeats.  The counting function N(L) = #{positive
    eigenvalues <= L} (with multiplicity) is fitted as
    log N ~ slope * log L over the middle two quartiles of the distinct
    positive values; the slope estimates the summability degree.
    """
    import numpy as np

    if not isinstance(spectrum, np.ndarray):
        spectrum = np.array(list(spectrum), dtype=SPECTRUM_DTYPE)
    positive = spectrum[spectrum["value"] > 0]
    folded = _fold(positive["value"], positive["multiplicity"])
    values = folded["value"]
    if len(values) < min_distinct:
        raise InsufficientSpectrum(
            f"need >= {min_distinct} distinct positive eigenvalues, got {len(values)}",
            witness=len(values))
    counts = np.cumsum(folded["multiplicity"])
    lo = len(values) // 4
    hi = (3 * len(values)) // 4
    xs = np.log(values[lo:hi])
    ys = np.log(counts[lo:hi].astype(float))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return SlopeFit(slope, (float(values[lo]), float(values[hi - 1])), hi - lo)


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
