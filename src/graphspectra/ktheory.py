"""Exact integer linear algebra and K-theory of Cuntz-Krieger algebras.

Everything in this module works over arbitrary-precision Python integers;
no floating point is used anywhere.  For a 0/1 matrix A,

    K0 = Z^n / (1 - A^t) Z^n      (cokernel, read off invariant factors)
    K1 = ker(1 - A^t)             (free, rank = nullity)

The functions of A (``ck_k_theory``, ``irreducibility_check``,
``is_permutation_matrix``, ``stable_iso_verdict``) take a
:class:`graphs.EdgeMatrix` as it is, or build one from a sequence of
rows with ``EdgeMatrix.from_rows``, and so share its one validation: an
entry other than 0/1 (a fraction included) or a ragged row raises
InvalidTransitionMatrix with the row as witness.  They then read its
successor and predecessor lists ``succ`` and ``pred``, never the dense
rows; 1 - A^t is built from the predecessors.

``ck_k_theory`` reduces 1 - A^t in two phases.  The unit-pivot phase
holds the matrix as sparse rows and columns and eliminates one +-1 entry
at a time, taking it from a shortest row and, within that row, from a
shortest column (an approximate Markowitz order).  Each elimination is
unimodular and contributes one invariant factor 1; the letters of a
chain (one successor each) carry no K-theory and all go here (Franks,
"Flow equivalence of shifts of finite type", 1984; the sparse phase of
Dumas-Saunders-Villard, "On efficient sparse integer matrix Smith normal
form computations", 2001).  What is left has no unit entry, and dense
``smith_normal_form`` runs on its nonzero rows and columns only.  For
every subdivided theta graph ``kato_graph(r)`` what is left is a zero
2x2 block, so Smith sees an empty matrix.

``smith_normal_form`` pivots on a minimal nonzero absolute value at every
step to keep intermediate entries small, and tracks its unimodular
transforms.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from heapq import heapify, heappop, heappush
from itertools import chain

from .graphs import EdgeMatrix


def _transition_matrix(a) -> EdgeMatrix:
    """``a`` itself when it is an EdgeMatrix; otherwise a sequence of
    rows, built into one by ``EdgeMatrix.from_rows`` (and so validated)
    once."""
    if isinstance(a, EdgeMatrix):
        return a
    rows = tuple(map(tuple, a))
    return EdgeMatrix.from_rows(rows, tuple(map(str, range(len(rows)))))


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    bt = [[b[r][c] for r in range(k)] for c in range(m)]
    return [[sum(ar[i] * bc[i] for i in range(k)) for bc in bt] for ar in a]


def _bareiss(a: list[list[int]]) -> tuple[int, int, int]:
    """(rank, row swaps, last pivot) of fraction-free (Bareiss) elimination
    over the rationals, pivoting on the first nonzero entry of each column.
    At full rank the last pivot is the determinant up to the swaps' sign."""
    if not a or not a[0]:
        return 0, 0, 1
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0])
    rank = swaps = 0
    prev = 1
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            swaps += 1
        for i in range(rank + 1, rows):
            for j in range(col + 1, cols):
                m[i][j] = (m[i][j] * m[rank][col] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == rows:
            break
    return rank, swaps, prev


def determinant(a: list[list[int]]) -> int:
    """Exact determinant of a square matrix by Bareiss elimination."""
    rank, swaps, pivot = _bareiss(a)
    if rank < len(a):
        return 0
    return -pivot if swaps % 2 else pivot


def exact_rank(a: list[list[int]]) -> int:
    """Rank over the rationals, computed by fraction-free elimination."""
    return _bareiss(a)[0]


class SmithDecomposition(namedtuple("SmithDecomposition", "diagonal left right rows cols")):
    """U * M * V = diag(invariant factors), with U, V unimodular: ``left``
    is U (rows x rows) and ``right`` is V (cols x cols).

    Invariant factors are nonnegative, zeros last, and each nonzero factor
    divides the next.
    """

    __slots__ = ()

    def nonzero_factors(self) -> list[int]:
        return [d for d in self.diagonal if d != 0]

    def rank(self) -> int:
        return len(self.nonzero_factors())

    def reconstruct_diagonal(self, m) -> list[list[int]]:
        """U * M * V, for checking the decomposition against its source."""
        u = [list(r) for r in self.left]
        v = [list(r) for r in self.right]
        return mat_mul(mat_mul(u, m), v)


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
    roughly 40x40.  ``ck_k_theory`` only hands it the remainder of 1 - A^t
    after the unit-pivot phase, so that caveat concerns remainders, not
    the number of letters.
    """
    a = [list(map(int, row)) for row in m]
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


class AbelianGroup(namedtuple("AbelianGroup", "rank torsion")):
    """Finitely generated abelian group: free rank plus invariant factors."""

    __slots__ = ()

    def __new__(cls, rank, torsion=()):
        for i, d in enumerate(torsion):
            if d < 2:
                raise ValueError(f"torsion factors must be >= 2, got {d}")
            if i and torsion[i] % torsion[i - 1] != 0:
                raise ValueError(f"torsion factors must form a divisibility chain: {torsion}")
        return super().__new__(cls, rank, torsion)

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        return " + ".join(parts) if parts else "0"


def ck_k_theory(a) -> tuple[AbelianGroup, AbelianGroup]:
    """K-groups of the Cuntz-Krieger algebra of a 0/1 matrix A, given as
    an EdgeMatrix or as rows.

    K0 is the cokernel of 1 - A^t presented by its invariant factors;
    K1 is free of rank equal to the nullity of 1 - A^t.  Unit pivots are
    eliminated sparsely first and Smith runs on the remainder only.
    """
    a = _transition_matrix(a)
    n = a.size
    # 1 - A^t as sparse rows: row j is +1 at j and -1 at each predecessor of j
    m = []
    for j, pred in enumerate(a.pred):
        row = {j: 1}
        row.update(dict.fromkeys(pred, -1))
        if row[j] == -1:  # a loop at j: 1 - 1 = 0
            del row[j]
        m.append(row)
    units = _eliminate_unit_pivots(m)
    live = [r for r in m if r]
    cols = sorted({j for r in live for j in r})
    snf = smith_normal_form([[r.get(j, 0) for j in cols] for r in live])
    free = n - units - snf.rank()
    torsion = tuple(d for d in snf.nonzero_factors() if d > 1)
    return AbelianGroup(free, torsion), AbelianGroup(free)


def _eliminate_unit_pivots(m: list[dict]) -> int:
    """Eliminate +-1 pivots of the sparse rows ``m`` in place; returns how
    many.

    A heap keyed by row length yields a shortest row, and the pivot is
    its unit entry in the shortest column; a row without a unit is passed
    over until a row operation changes it.  The other rows of that column
    are cleared by row operations; the pivot row and column then split
    off by column operations that touch nothing else, so the pivot row is
    emptied.  Every step is unimodular.  On return no entry is +-1, and
    eliminated rows are empty.
    """
    cols: dict = {}
    for i, row in enumerate(m):
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(m) if row]
    heapify(heap)
    units = 0
    while heap:
        length, p = heappop(heap)
        pivot_row = m[p]
        if length != len(pivot_row):
            continue  # stale: the row changed since this entry was pushed
        candidates = [j for j, v in pivot_row.items() if v == 1 or v == -1]
        if not candidates:
            continue
        q = min(candidates, key=lambda j: len(cols[j]))
        u = pivot_row[q]
        for i in cols[q] - {p}:
            row = m[i]
            c = -row[q] * u
            for j, v in pivot_row.items():
                value = row.get(j, 0) + c * v
                if value:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = value
                else:
                    del row[j]
                    cols[j].discard(i)
            heappush(heap, (len(row), i))
        for j in pivot_row:
            cols[j].discard(p)
        pivot_row.clear()
        units += 1
    return units


def irreducibility_check(a) -> bool:
    """True iff the directed graph on matrix indices is strongly connected."""
    return _transition_matrix(a).is_irreducible()


def is_permutation_matrix(a) -> bool:
    a = _transition_matrix(a)
    return all(len(js) == 1 for js in chain(a.succ, a.pred))


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
    return _stable_iso_verdict(_transition_matrix(a), None, b)


def _stable_iso_verdict(a: EdgeMatrix, k0_a, b) -> Verdict:
    """stable_iso_verdict for an EdgeMatrix a whose K0 is ``k0_a`` when
    already known (None: computed here if needed).  ``ktheory --compare``
    calls it with the K-groups it reports, so each matrix is validated
    and reduced once."""
    b = _transition_matrix(b)
    if not (a.is_irreducible() and b.is_irreducible()):
        return Verdict.INCONCLUSIVE
    if is_permutation_matrix(a) or is_permutation_matrix(b):
        return Verdict.INCONCLUSIVE
    if k0_a is None:
        k0_a = ck_k_theory(a)[0]
    if k0_a == ck_k_theory(b)[0]:
        return Verdict.STABLY_ISOMORPHIC
    return Verdict.INCONCLUSIVE
