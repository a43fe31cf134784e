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

``smith_normal_form`` returns the invariant factors alone.  Bareiss
elimination gives the rank r and a nonzero r x r minor D, which
d_1...d_r divides.  Elimination over Z/DZ keeps every entry below D
and keeps no transform.  Each diagonal entry e is read as gcd(e, D);
folded into a divisibility chain, the first r are d_1, ..., d_r (Cohen, "A
Course in Computational Algebraic Number Theory", 2.4; Hafner-McCurley,
1991).  A fresh ``ktheory`` on seeded random matrices of 250, 300 and
1000 letters (remainders 36 x 36, 44 x 44, 157 x 157) takes about
0.08 s, 0.09 s and 1.7 s on a 2-core host.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd

from .graphs import EdgeMatrix


def _transition_matrix(a) -> EdgeMatrix:
    """``a`` itself when it is an EdgeMatrix; otherwise a sequence of
    rows, built into one by ``EdgeMatrix.from_rows`` (and so validated)
    once."""
    if isinstance(a, EdgeMatrix):
        return a
    rows = tuple(map(tuple, a))
    return EdgeMatrix.from_rows(rows, tuple(map(str, range(len(rows)))))


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


class SmithDecomposition(namedtuple("SmithDecomposition", "diagonal rows cols")):
    """The invariant factors of a rows x cols integer matrix, as the
    min(rows, cols) diagonal entries of its Smith normal form.

    Invariant factors are nonnegative, zeros last, and each nonzero factor
    divides the next.
    """

    __slots__ = ()

    def nonzero_factors(self) -> list[int]:
        return [d for d in self.diagonal if d != 0]

    def rank(self) -> int:
        return len(self.nonzero_factors())


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


def _clear_column(a: list[list[int]], mod: int) -> bool:
    """Clear a[i][0] for i > 0 by unimodular row steps modulo ``mod``.
    When the pivot x = a[0][0] divides y = a[i][0], row i sheds y/x times
    row 0; otherwise the extended-gcd 2x2 step leaves gcd(x, y) < x at the
    pivot and may refill row 0.  True when such a step ran."""
    fell = False
    top = a[0]
    for i in range(1, len(a)):
        x, y = top[0], a[i][0]
        if not y:
            continue
        if y % x == 0:
            c = y // x
            a[i] = [(w - c * v) % mod for v, w in zip(top, a[i])]
        else:
            g, p, q = _gcdex(x, y)
            x, y = x // g, y // g
            top, a[i] = ([(p * v + q * w) % mod for v, w in zip(top, a[i])],
                         [(x * w - y * v) % mod for v, w in zip(top, a[i])])
            fell = True
    a[0] = top
    return fell


def smith_normal_form(m) -> SmithDecomposition:
    """Invariant factors of an integer matrix, by elimination modulo a
    nonzero maximal minor (see the module docstring).  An empty matrix
    yields an empty decomposition.

    Each pivot clears its column, then its row as a column of the
    transpose, which has the same invariant factors; a clearing that
    refills the other side lowers the pivot, so the rounds end.
    """
    a = [list(map(int, row)) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank, _, pivot = _bareiss(a)
    mod = abs(pivot)
    a = [[x % mod for x in row] for row in a]
    diagonal = []
    while any(map(any, a)):
        i = next(i for i, row in enumerate(a) if any(row))
        j = next(j for j, x in enumerate(a[i]) if x)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        _clear_column(a, mod)
        a = [list(col) for col in zip(*a)]
        while _clear_column(a, mod):
            a = [list(col) for col in zip(*a)]
        diagonal.append(a[0][0])
        a = [row[1:] for row in a[1:]]
    k = min(rows, cols)
    factors = [gcd(e, mod) for e in diagonal + [0] * (k - len(diagonal))]
    for i in range(k):  # fold into a chain: factors[i] becomes the gcd of the rest
        for j in range(i + 1, k):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return SmithDecomposition(tuple(factors[:rank]) + (0,) * (k - rank), rows, cols)


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
    eliminated sparsely first, and ``smith_normal_form`` reads the
    invariant factors of the remainder only, modulo one of its minors.
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
