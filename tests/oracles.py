"""Reference oracles for the word layer and the level certificates.

``enumerate_words`` and ``cohomology_dims`` are the forms the word layer
had before it walked the word tree a level at a time: a depth-first
search that builds every word from its first letter, and a spanning
forest of the n-block graph over tuple slices of those words.

``commutator_norms`` and ``ck_residuals`` are the two-walk forms that
``triples.commutator_norms`` and ``triples.ck_residuals`` had before both
read one frontier walk: each builds its own successor arrays from the
lists, steps its own frontier of (source, target, count) from level 0,
and converts the Perron vectors on every measure.

The library must return exactly what these return.
"""

import math
from itertools import count, islice

import numpy as np

from graphspectra.graphs import _Rows, forest_size


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
