"""Exact integer linear algebra and K-theory of Cuntz-Krieger algebras.

Everything in this module works over arbitrary-precision Python integers;
no floating point is used anywhere.  The Smith normal form drives the
K-group computation: for a 0/1 matrix A,

    K0 = Z^n / (1 - A^t) Z^n      (cokernel, read off invariant factors)
    K1 = ker(1 - A^t)             (free, rank = nullity)

The Smith reduction pivots on a minimal nonzero absolute value at every
step to keep intermediate entries small.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidTransitionMatrix
from .graphs import EdgeMatrix


def _as_rows(m) -> list[list[int]]:
    if isinstance(m, EdgeMatrix):
        return m.rows()
    return [[int(x) for x in row] for row in m]


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    bt = [[b[r][c] for r in range(k)] for c in range(m)]
    return [[sum(ar[i] * bc[i] for i in range(k)) for bc in bt] for ar in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def determinant(a: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def exact_rank(a: list[list[int]]) -> int:
    """Rank over the rationals, computed by fraction-free elimination."""
    if not a or not a[0]:
        return 0
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(cols):
        pivot = None
        for i in range(rank, rows):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, rows):
            for j in range(col + 1, cols):
                m[i][j] = (m[i][j] * m[rank][col] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == rows:
            break
    return rank


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = diag(invariant factors), with U, V unimodular.

    Invariant factors are nonnegative, zeros last, and each nonzero factor
    divides the next.
    """

    diagonal: tuple
    left: tuple       # U, rows x rows
    right: tuple      # V, cols x cols
    rows: int
    cols: int

    def nonzero_factors(self) -> list[int]:
        return [d for d in self.diagonal if d != 0]

    def rank(self) -> int:
        return len(self.nonzero_factors())

    def reconstruct_diagonal(self, m) -> list[list[int]]:
        """U * M * V, for checking the decomposition against its source."""
        u = [list(r) for r in self.left]
        v = [list(r) for r in self.right]
        return mat_mul(mat_mul(u, _as_rows(m)), v)


def _gcdex(x: int, y: int) -> tuple[int, int, int]:
    """g, a, b with a*x + b*y = g = gcd(x, y) >= 0."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(m) -> SmithDecomposition:
    """Smith normal form over Z with unimodular transform tracking.

    Pivots are chosen with minimal nonzero absolute value and entries are
    cleared with extended-gcd 2x2 transforms to control coefficient
    growth.  An empty matrix yields an empty decomposition.

    Exactness is unconditional (arbitrary-precision integers).  Like
    every elimination-based Smith reduction, worst-case intermediate
    entries can still grow quickly on dense random matrices beyond
    roughly 40x40; the incidence-style matrices this package produces
    (0/1 transitions and their 1 - A^t presentations) stay small.
    """
    a = [[int(x) for x in row] for row in _as_rows(m)]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def row_combine(i, j, p, q, r, s):
        # rows (i, j) <- (p*row_i + q*row_j, r*row_i + s*row_j); ps - qr = +-1
        a[i], a[j] = ([p * x + q * y for x, y in zip(a[i], a[j])],
                      [r * x + s * y for x, y in zip(a[i], a[j])])
        u[i], u[j] = ([p * x + q * y for x, y in zip(u[i], u[j])],
                      [r * x + s * y for x, y in zip(u[i], u[j])])

    def col_combine(i, j, p, q, r, s):
        # cols (i, j) <- (p*col_i + q*col_j, r*col_i + s*col_j)
        for mat in (a, v):
            for row in mat:
                x, y = row[i], row[j]
                row[i] = p * x + q * y
                row[j] = r * x + s * y

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            col_combine(i, j, 0, 1, 1, 0)

    t = 0
    while t < rows and t < cols:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best, pivot = x, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, rows):
                y = a[i][t]
                if not y:
                    continue
                x = a[t][t]
                if y % x == 0:
                    row_combine(t, i, 1, 0, -(y // x), 1)
                else:
                    g, bz_a, bz_b = _gcdex(x, y)
                    row_combine(t, i, bz_a, bz_b, -(y // g), x // g)
            for j in range(t + 1, cols):
                y = a[t][j]
                if not y:
                    continue
                x = a[t][t]
                if y % x == 0:
                    col_combine(t, j, 1, 0, -(y // x), 1)
                else:
                    g, bz_a, bz_b = _gcdex(x, y)
                    col_combine(t, j, bz_a, bz_b, -(y // g), x // g)
            if all(a[i][t] == 0 for i in range(t + 1, rows)):
                break  # column ops may have refilled the column; else done
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    i = 0
    while i + 1 < t:
        x, y = a[i][i], a[i + 1][i + 1]
        if y % x == 0:
            i += 1
            continue
        # fold (x, y) into (gcd, lcm): merge y into column i, then re-clear
        col_combine(i, i + 1, 1, 1, 0, 1)      # col_i += col_{i+1}
        g, bz_a, bz_b = _gcdex(x, y)
        row_combine(i, i + 1, bz_a, bz_b, -(y // g), x // g)
        rem = a[i][i + 1]                       # divisible by the new pivot g
        col_combine(i, i + 1, 1, 0, -(rem // g), 1)
        i = max(i - 1, 0)
    diag = tuple(a[i][i] for i in range(min(rows, cols)))
    return SmithDecomposition(diag, tuple(tuple(r) for r in u),
                              tuple(tuple(r) for r in v), rows, cols)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus invariant factors."""

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError(f"torsion factors must be >= 2, got {d}")
            if i and self.torsion[i] % self.torsion[i - 1] != 0:
                raise ValueError(f"torsion factors must form a divisibility chain: {self.torsion}")

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        return " + ".join(parts) if parts else "0"


def _check_zero_one_square(a) -> list[list[int]]:
    rows = _as_rows(a)
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise InvalidTransitionMatrix("matrix must be square", witness=tuple(row))
        if any(x not in (0, 1) for x in row):
            raise InvalidTransitionMatrix("matrix entries must be 0/1", witness=tuple(row))
    return rows


def ck_k_theory(a) -> tuple[AbelianGroup, AbelianGroup]:
    """K-groups of the Cuntz-Krieger algebra of a 0/1 matrix A.

    K0 is the cokernel of 1 - A^t presented by its invariant factors;
    K1 is free of rank equal to the nullity of 1 - A^t.
    """
    rows = _check_zero_one_square(a)
    n = len(rows)
    m = mat_sub(identity_matrix(n), transpose(rows))
    snf = smith_normal_form(m)
    zero_count = n - snf.rank()
    torsion = tuple(d for d in snf.nonzero_factors() if d > 1)
    return AbelianGroup(zero_count, torsion), AbelianGroup(zero_count)


def irreducibility_check(a) -> bool:
    """True iff the directed graph on matrix indices is strongly connected."""
    rows = _check_zero_one_square(a)
    n = len(rows)
    if n == 0:
        return False
    if n == 1:
        return rows[0][0] == 1

    def reach(start, adj):
        seen = {start}
        stack = [start]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    fwd = [[j for j in range(n) if rows[i][j]] for i in range(n)]
    bwd = [[j for j in range(n) if rows[j][i]] for i in range(n)]
    return len(reach(0, fwd)) == n and len(reach(0, bwd)) == n


def is_permutation_matrix(a) -> bool:
    rows = _check_zero_one_square(a)
    return all(sum(r) == 1 for r in rows) and all(sum(c) == 1 for c in zip(*rows))


class Verdict(Enum):
    STABLY_ISOMORPHIC = "StablyIsomorphic"
    INCONCLUSIVE = "Inconclusive"


def stable_iso_verdict(a, b) -> Verdict:
    """One-sided stable-isomorphism test for Cuntz-Krieger algebras.

    Returns STABLY_ISOMORPHIC when both matrices are irreducible, neither
    is a permutation matrix, and the K0 groups agree.  The criterion is
    sufficient only, so everything else is INCONCLUSIVE; non-isomorphism
    is never asserted.
    """
    for m in (a, b):
        _check_zero_one_square(m)
    if not (irreducibility_check(a) and irreducibility_check(b)):
        return Verdict.INCONCLUSIVE
    if is_permutation_matrix(a) or is_permutation_matrix(b):
        return Verdict.INCONCLUSIVE
    k0a, _ = ck_k_theory(a)
    k0b, _ = ck_k_theory(b)
    if k0a == k0b:
        return Verdict.STABLY_ISOMORPHIC
    return Verdict.INCONCLUSIVE
