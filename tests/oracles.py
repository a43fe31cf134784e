"""Reference oracles for the word layer and the level certificates.

``enumerate_words`` and ``cohomology_dims`` are the forms the word layer
had before it walked the word tree a level at a time: a depth-first
search that builds every word from its first letter, and a spanning
forest of the n-block graph over tuple slices of those words.

``commutator_norms`` and ``ck_residuals`` are the two-walk forms that
``triples.commutator_norms`` and ``triples.ck_residuals`` had before both
read one walk of path supports: each builds its own successor arrays
from the lists, steps its own frontier of (source, target, count) from
level 0, and converts the Perron vectors on every measure.
``ck_residuals`` weights each class by its path count and returns
Frobenius norms: an upper bound on the operator norms that
``triples.ck_residuals`` returns, not their value.

``smith_normal_form`` is the form ``ktheory.smith_normal_form`` had
before it worked modulo a Bareiss minor: dense elimination over Z that
pivots on a minimal nonzero absolute value and tracks the unimodular
transforms U and V, so that U * M * V = diag(invariant factors) can be
checked against M itself.

Apart from ``ck_residuals``, the library must return exactly what these
return.
"""

import math
from collections import namedtuple
from itertools import count, islice

import numpy as np

from graphspectra.graphs import _Rows, forest_size
from graphspectra.ktheory import _gcdex


def enumerate_words(s, n):
    """All admissible words of length n >= 1, depth first, in the order
    of the successor lists."""
    words = []
    stack = [(a,) for a in reversed(range(s.alphabet_size))]
    while stack:
        w = stack.pop()
        if len(w) == n:
            words.append(w)
            continue
        for b in reversed(s.succ[w[-1]]):
            stack.append(w + (b,))
    return words


def cohomology_dims(s):
    """Yield dim_n = |W_{n+1}| - (|W_n| - c_n) for n = 1, 2, ...: a
    spanning forest of the n-block graph, whose edges join w[:-1] to
    w[1:] for each word w of length n+1."""
    for n in count(1):
        words = enumerate_words(s, n + 1)
        yield len(words) - forest_size((w[:-1], w[1:]) for w in words)


def _schedule(level, eigenvalues):
    return list(range(level + 1)) if eigenvalues is None else list(eigenvalues)


def _measure(perron, level, heads, lasts):
    """mu of the words of length N+1 with these first and last letters."""
    left, right = np.array(perron.left), np.array(perron.right)
    return left[heads] * right[lasts] * perron.value ** (-level) / float(left @ right)


def _ranges(starts, lengths):
    """The concatenated ranges starts[k] + [0, lengths[k])."""
    ends = np.cumsum(lengths)
    out = np.arange(lengths.sum())
    out += np.repeat(np.asarray(starts - (ends - lengths), dtype=out.dtype), lengths)
    return out


def paths(s):
    """Yield, for k = 0, 1, ..., the sources, targets and numbers of the
    paths of k steps, ordered by source, then target."""
    n = s.alphabet_size
    a = _Rows(s.succ)
    source, target, count = np.arange(n), np.arange(n), np.ones(n)
    while True:
        yield source, target, count
        sizes = a.degree[target]
        key = np.repeat(source * n, sizes) + a.cols[_ranges(a.first[target], sizes)]
        key, merged = np.unique(key, return_inverse=True)
        count = np.bincount(merged, weights=np.repeat(count, sizes), minlength=len(key))
        source, target = np.divmod(key, n)


def commutator_norms(s, level, eigenvalues=None):
    """The per-letter commutator norms from the prefix counts of levels
    0..N-1, with every e_k held."""
    lam = _schedule(level, eigenvalues)
    a, ends = _Rows(s.succ), [np.ones(s.alphabet_size)]
    for _ in range(level):
        ends.append(a.times(ends[-1]) > 0)
    counts = [np.bincount(source, weights=count * ends[level - n][target],
                          minlength=s.alphabet_size)
              for n, (source, target, count) in zip(range(level), paths(s))]
    steps = np.array([float(abs(b - a)) for a, b in zip(lam, lam[1:level])])[:, None]
    counts = np.reshape(counts, (-1, s.alphabet_size))
    return np.where(counts[1:] > counts[:-1], steps, 0.0).max(axis=0, initial=0.0).tolist()


def ck_residuals(s, level, perron):
    """Both relations' Frobenius norms per class of letters, from a
    second walk to level N-1."""
    n = s.alphabet_size
    a = _Rows(s.succ)
    source, target, count = next(islice(paths(s), level - 1, None))
    keep = a.degree[target] > 0
    source, target, count = source[keep], target[keep], count[keep]

    def rows(heads, ends):  # entries of S in rows with these first and last letters
        row = np.repeat(np.arange(len(ends)), a.degree[ends])
        lasts = a.cols[_ranges(a.first[ends], a.degree[ends])]
        heads, ends = heads[row], ends[row]
        return row, lasts, np.sqrt(_measure(perron, level + 1, heads, lasts)
                                   / _measure(perron, level, heads, ends))

    word, lasts, _ = rows(source, target)
    block = np.searchsorted(word, np.arange(len(target)))
    mu = _measure(perron, level, source[word], lasts)
    g = np.sqrt(mu / np.add.reduceat(mu, block)[word])
    row, _, vals = rows(source[word], lasts)
    t = np.bincount(row, weights=vals * vals, minlength=len(word))
    unit = np.add.reduceat(g * g * (t - 1), block)
    ranges = np.add.reduceat(g * g * t, block)

    per_source = np.bincount(source, minlength=n)
    prefix = _ranges(np.searchsorted(source, a.cols), per_source[a.cols])
    letter = np.repeat(a.rows, per_source[a.cols])
    row, _, vals = rows(letter, target[prefix])
    lifted = np.bincount(row, weights=g[_ranges(block[prefix], a.degree[target[prefix]])]
                         * vals, minlength=len(prefix))
    gap = lifted * lifted - ranges[prefix]
    gap *= gap
    per_letter = np.sqrt(np.bincount(letter, weights=count[prefix] * gap, minlength=n))
    return {"unit_sum": math.sqrt(float(count @ (unit * unit))),
            "range_relation": [float(x) for x in per_letter]}


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    bt = [[b[r][c] for r in range(k)] for c in range(m)]
    return [[sum(ar[i] * bc[i] for i in range(k)) for bc in bt] for ar in a]


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
