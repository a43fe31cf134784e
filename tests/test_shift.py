import math
import tracemalloc
from itertools import chain, islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from graphspectra import graphs, io
from graphspectra.errors import (
    EnumerationBudgetExceeded,
    InvalidParameter,
    InvalidTransitionMatrix,
    NotAdmissible,
    RequiresIrreducible,
)
from graphspectra.graphs import directed_edge_matrix, kato_graph
from graphspectra.ktheory import exact_rank
from graphspectra.shift import (
    FiltrationDims,
    ParryMeasure,
    SFTData,
    alphabet_automorphisms,
    coboundary_matrix,
    cohomology_filtration_dims,
    count_words,
    enumerate_words,
    filtration_dims,
    from_edge_matrix,
    full_schottky_sft,
    parry_cylinder_measure,
    perron_data,
    word_count_vectors,
    word_table,
)

ONE_LETTER = SFTData.from_rows(((1,),), ("a",))


def test_word_enumeration_counts(schottky2, theta_sft):
    words = enumerate_words(schottky2, 2)
    assert len(words) == 12  # 4 * 3 by direct enumeration
    assert words == sorted(words)
    assert enumerate_words(schottky2, 1) == [(a,) for a in range(4)]
    assert len(enumerate_words(theta_sft, 3)) == 24  # 6 * 2 * 2


def test_enumeration_matches_matrix_power_counts(schottky2, theta_sft):
    for s in (schottky2, theta_sft):
        for n in range(1, 5):
            assert count_words(s, n) == len(enumerate_words(s, n))


def test_enumeration_budget(monkeypatch):
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", "5")
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_words(full_schottky_sft(2), 4)


def test_enumeration_budget_reads_the_asked_length_when_counts_can_fall(monkeypatch):
    """0 -> 1, 2 and 1, 2 -> 3, a sink: 4, 4, 2 and 0 words of lengths 1-4,
    so the two words of length 3 fit a budget that four of length 1 exceed."""
    s = SFTData.from_rows(((0, 1, 1, 0), (0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 0)),
                          tuple("abcd"))
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", "3")
    assert enumerate_words(s, 3) == [(0, 1, 3), (0, 2, 3)]
    with pytest.raises(EnumerationBudgetExceeded) as err:
        enumerate_words(s, 2)
    assert err.value.witness == 4


def test_enumeration_budget_env_override(monkeypatch):
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", "5")
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_words(full_schottky_sft(2), 4)
    monkeypatch.delenv("GRAPHSPECTRA_WORD_BUDGET")
    assert len(enumerate_words(full_schottky_sft(2), 4)) == 108


def funnel():
    """0 -> each of 1..300 -> each of 301..600, and only 301 -> 601, a
    sink: 602, 90,301, 90,300 and 300 words of lengths 1-4."""
    middle, last = range(1, 301), range(301, 601)
    succ = ((*middle,), *[(*last,)] * 300, (601,), *[()] * 300)
    return SFTData(succ, tuple(map(str, range(602))))


def test_enumeration_fits_the_budget_where_counts_fall_past_a_sink(monkeypatch):
    s = funnel()
    assert [count_words(s, n) for n in range(1, 5)] == [602, 90301, 90300, 300]
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", "1000")
    tracemalloc.start()
    try:
        words = enumerate_words(s, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words == oracles.enumerate_words(s, 4)
    assert len(words) == 300
    # the successor lists as 1-tuples take 0.8 MB; a length that kept every
    # word of 3 letters would hold 90,300 tuples, over 6 MB
    assert peak < 2_000_000
    with pytest.raises(EnumerationBudgetExceeded) as err:
        enumerate_words(s, 3)
    assert err.value.witness == 90300


@st.composite
def sink_source_shifts(draw):
    """0/1 matrices on 1-8 letters of random density, with up to two rows
    cleared (sinks) and up to two columns cleared (sources)."""
    k = draw(st.integers(1, 8))
    density = draw(st.floats(0.0, 1.0))
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=k * k, max_size=k * k))
    sinks = draw(st.sets(st.integers(0, k - 1), max_size=2))
    sources = draw(st.sets(st.integers(0, k - 1), max_size=2))
    rows = tuple(tuple(int(cells[i * k + j] < density and i not in sinks and j not in sources)
                       for j in range(k)) for i in range(k))
    return SFTData.from_rows(rows, tuple(f"l{i}" for i in range(k)))


ORACLE_WORDS = 20_000  # the most words the depth-first oracles build


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(s=sink_source_shifts(), n=st.integers(1, 7), level=st.integers(1, 6))
@example(s=funnel(), n=4, level=1)
def test_level_walks_match_the_depth_first_oracles(s, n, level):
    """enumerate_words returns the depth-first search's list, and the
    cohomology dims those of the forest on tuple slices."""
    counts = [sum(v) for v in islice(word_count_vectors(s), level + 1)]
    if count_words(s, n) <= ORACLE_WORDS:
        assert enumerate_words(s, n) == oracles.enumerate_words(s, n)
    while level and max(counts[1:level + 1]) > ORACLE_WORDS:
        level -= 1
    if level:
        dims = tuple(islice(oracles.cohomology_dims(s), level))
        assert cohomology_filtration_dims(s, level) == dims


@st.composite
def pruning_chain_shifts(draw):
    """0/1 matrices on 1-8 letters of random density, with up to two sinks,
    two sources and two isolated letters.  From 4 letters on, a letter
    with a loop sits between a path in from a source and a path out to a
    sink, one of them 3 letters or more: each letter of the path in is
    the only predecessor of the next, and each letter of the path out the
    only successor of the one before, so the pruning chain takes one
    path letter from each end per step, 3 steps or more."""
    k = draw(st.integers(1, 8))
    density = draw(st.floats(0.0, 1.0))
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=k * k, max_size=k * k))
    rows = [[int(cells[i * k + j] < density) for j in range(k)] for i in range(k)]
    sinks, sources, isolated = (draw(st.sets(st.integers(0, k - 1), max_size=2))
                                for _ in range(3))
    for i in range(k):
        for j in range(k):
            if {i} & (sinks | isolated) or {j} & (sources | isolated):
                rows[i][j] = 0
    if k >= 4:
        loop, *rest = draw(st.permutations(range(k)))
        long = draw(st.integers(3, k - 1))
        short = draw(st.integers(0, k - 1 - long))
        into, out = (long, short) if draw(st.booleans()) else (short, long)
        into, out = rest[:into], rest[into:into + out]
        for row in rows:
            for b in into:
                row[b] = 0
        for a in out:
            rows[a] = [0] * k
        rows[loop][loop] = 1
        for a, b in chain(zip(into, [*into[1:], loop]), zip([loop, *out], out)):
            rows[a][b] = 1
    return SFTData.from_rows(tuple(map(tuple, rows)), tuple(f"l{i}" for i in range(k)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(s=pruning_chain_shifts(), level=st.integers(1, 7))
def test_cohomology_dims_by_pruning_match_the_forest_oracle(s, level):
    """The dims from word counts and the pruning chain's i-counts equal
    those of the spanning forest on tuple slices of the words."""
    counts = [sum(v) for v in islice(word_count_vectors(s), level + 1)]
    while level and max(counts[1:level + 1]) > ORACLE_WORDS:
        level -= 1
    if level:
        dims = tuple(islice(oracles.cohomology_dims(s), level))
        assert cohomology_filtration_dims(s, level) == dims


def test_filtration_dims(schottky2):
    fd = filtration_dims(schottky2, 4)
    assert fd.dims == (4, 12, 36, 108, 324)
    assert fd.new_dims() == (4, 8, 24, 72, 216)
    # growth of the new levels: 2g(2g-1)^(n-1)(2g-2), geometric ratio 2g-1
    g = 2
    for n in range(1, 5):
        assert fd.new_dims()[n] == 2 * g * (2 * g - 1) ** (n - 1) * (2 * g - 2)


def per_letter_word_counts(s):
    """The word-count step as a sum over every letter's predecessors."""
    vec = (1,) * s.alphabet_size
    while True:
        yield vec
        vec = tuple(sum(vec[i] for i in pred) for pred in s.pred)


@st.composite
def zero_one_rows(draw):
    """0/1 matrices on 0-9 letters, from nearly empty to nearly full, so
    reducible shifts, letters without a predecessor, self-loops and chain
    letters fed by branch letters all occur."""
    n = draw(st.integers(0, 9))
    density = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))
    return tuple(tuple(int(cells[i * n + j] < density) for j in range(n))
                 for i in range(n))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=zero_one_rows())
# letter 0: a self-loop and two more predecessors; letter 1: its one
# predecessor is letter 0; letter 2: no predecessor, so the shift is reducible
@example(rows=((1, 1, 0), (1, 0, 0), (1, 0, 0)))
def test_word_count_gather_matches_the_per_letter_sum(rows):
    s = SFTData.from_rows(rows, tuple(map(str, range(len(rows)))))
    assert (list(islice(word_count_vectors(s), 12))
            == list(islice(per_letter_word_counts(s), 12)))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_word_count_gather_on_kato_graphs(r):
    s = from_edge_matrix(directed_edge_matrix(kato_graph(r)))
    assert sum(len(pred) > 1 for pred in s.pred) == 6  # the rest are chain letters
    assert (list(islice(word_count_vectors(s), 40))
            == list(islice(per_letter_word_counts(s), 40)))


@pytest.mark.parametrize("g", [2, 3])
def test_filtration_dims_closed_form_to_level_512(g):
    new = filtration_dims(full_schottky_sft(g), 512).new_dims()
    assert new == (2 * g,) + tuple(2 * g * (2 * g - 1) ** (n - 1) * (2 * g - 2)
                                   for n in range(1, 513))


def test_filtration_telescopes(theta_sft):
    fd = filtration_dims(theta_sft, 5)
    for n in range(6):
        assert sum(fd.new_dims()[:n + 1]) == fd.dims[n]


def test_one_letter_shift_dims():
    assert filtration_dims(ONE_LETTER, 5).dims == (1,) * 6


def test_perron_schottky(schottky2):
    pd = perron_data(schottky2)
    assert pd.value == pytest.approx(3.0, abs=1e-12)
    assert pd.exponent == pytest.approx(math.log(3), abs=1e-12)
    a = np.array(schottky2.matrix)
    r = np.array(pd.right)
    assert np.abs(a @ r - pd.value * r).max() / r.max() < 1e-12


def test_perron_theta(theta_sft):
    assert perron_data(theta_sft).value == pytest.approx(2.0, abs=1e-12)


def test_perron_one_letter():
    pd = perron_data(ONE_LETTER)
    assert pd.value == pytest.approx(1.0, abs=1e-14)
    assert pd.exponent == pytest.approx(0.0, abs=1e-14)


def test_perron_requires_irreducible():
    with pytest.raises(RequiresIrreducible):
        perron_data(SFTData.from_rows(((1, 1), (0, 1)), ("a", "b")))


@st.composite
def periodic_shifts(draw):
    """Irreducible 0/1 matrices on 1-8 letters of period p: a cycle through
    every letter, with position classes mod p (p divides the size), plus
    random edges from each class to the next.  p = size gives a bare
    cycle, p = 1 a random matrix around a Hamiltonian cycle."""
    k = draw(st.integers(1, 8))
    period = draw(st.sampled_from([p for p in range(1, k + 1) if k % p == 0]))
    cycle = draw(st.permutations(range(k)))
    position = {a: n for n, a in enumerate(cycle)}
    extra = draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                          min_size=k, max_size=k))
    matrix = tuple(
        tuple(int(position[j] == (position[i] + 1) % k
                  or (extra[i][j] and (position[j] - position[i] - 1) % period == 0))
              for j in range(k))
        for i in range(k))
    return SFTData.from_rows(matrix, tuple(f"l{i}" for i in range(k)))


def eig_perron(a):
    """Perron root and its eigenvector (sum 1) from numpy.linalg.eig: the
    eigenvalue of largest real part, which is the positive real root."""
    vals, vecs = np.linalg.eig(a)
    top = int(np.argmax(vals.real))
    vec = np.abs(vecs[:, top].real)
    return float(vals[top].real), vec / vec.sum()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(s=periodic_shifts())
def test_perron_matches_eig(s):
    assert s.is_irreducible()
    pd = perron_data(s)
    a = np.array(s.matrix, dtype=float)
    lam, right = eig_perron(a)
    _, left = eig_perron(a.T)
    assert pd.value == pytest.approx(lam, rel=1e-12)
    assert np.abs(np.array(pd.right) - right).max() < 1e-10
    assert np.abs(np.array(pd.left) - left).max() < 1e-10
    assert min(pd.left) > 0 and min(pd.right) > 0
    lo, hi = pd.bracket
    assert lo <= pd.value <= hi
    assert hi - lo <= 1e-12 * pd.value
    assert lo * (1 - 1e-14) <= lam <= hi * (1 + 1e-14)  # eig is exact to ~1e-16


def count_solves(monkeypatch, s):
    """Patch numpy.linalg.solve to count Noda solves per side, and return
    the counts and the set of system sizes.  Every solve is a contracted
    B x B system, whose side is that of the contraction solving it: a
    solve for the right vector contracts the rows of A (the successor
    lists), one for the left vector those of A^t."""
    counts, sizes, side = {"right": 0, "left": 0}, set(), []
    rows_of_a = list(chain.from_iterable(s.succ))
    contracted, solve = graphs._Rows.solve, np.linalg.solve

    def tagged(rows, sigma, v):
        side.append("right" if np.array_equal(rows.cols, rows_of_a) else "left")
        return contracted(rows, sigma, v)

    def counting(m, v):
        counts[side[-1]] += 1
        sizes.add(m.shape)
        return solve(m, v)
    monkeypatch.setattr(graphs._Rows, "solve", tagged)
    monkeypatch.setattr(np.linalg, "solve", counting)
    return counts, sizes


def test_perron_kato40_converges_in_few_solves(monkeypatch):
    s = from_edge_matrix(directed_edge_matrix(kato_graph(40)))
    a = np.array(s.matrix, dtype=float)
    assert not np.array_equal(a, a.T)
    counts, sizes = count_solves(monkeypatch, s)
    pd = perron_data(s)
    assert 1 <= counts["right"] <= 20 and 1 <= counts["left"] <= 20
    assert sizes == {(6, 6)}  # the 6 branch letters of every kato graph
    assert pd.value == pytest.approx(1.0084888420025415, rel=1e-12)
    lo, hi = pd.bracket
    assert lo <= pd.value <= hi and hi - lo <= 1e-12 * pd.value


def test_perron_exact_start_needs_no_solve(monkeypatch, schottky2, theta_sft):
    """A bare cycle and the one-letter shift have no branch letter (B = 0):
    like the full shifts they start on an exact eigenvector, and the
    contraction is never built."""
    cycle = SFTData.from_rows(((0, 1, 0), (0, 0, 1), (1, 0, 0)), ("a", "b", "c"))
    monkeypatch.setattr(graphs._Rows, "_contraction",
                        property(lambda rows: pytest.fail("contracted")))
    for s, lam in ((cycle, 1.0), (schottky2, 3.0), (theta_sft, 2.0), (ONE_LETTER, 1.0)):
        counts, _ = count_solves(monkeypatch, s)
        pd = perron_data(s)
        assert counts == {"right": 0, "left": 0}
        assert pd.value == lam and pd.bracket == (lam, lam)


def in_tree_shift():
    """Letters 0 and 1 branch; 2-4, 5 and 6-7 are chains feeding the chain
    letter 8 (an in-tree of depth 4 under 0), and 9 is a chain of one."""
    succ = {0: (2, 5, 6, 9), 1: (0, 1, 6), 2: (3,), 3: (4,), 4: (8,), 5: (8,),
            6: (7,), 7: (8,), 8: (0,), 9: (1,)}
    matrix = tuple(tuple(int(j in succ[i]) for j in range(10)) for i in range(10))
    return SFTData.from_rows(matrix, tuple(f"l{i}" for i in range(10)))


def transposed(s):
    return SFTData.from_rows(tuple(zip(*s.matrix)), s.labels)


def assert_matches_eig(s, pd):
    a = np.array(s.matrix, dtype=float)
    lam, right = eig_perron(a)
    _, left = eig_perron(a.T)
    assert pd.value == pytest.approx(lam, rel=1e-12)
    assert np.abs(np.array(pd.right) - right).max() < 1e-12
    assert np.abs(np.array(pd.left) - left).max() < 1e-12
    lo, hi = pd.bracket
    assert lo <= pd.value <= hi and hi - lo <= 1e-12 * pd.value


def test_perron_contracts_chains_feeding_in_trees(monkeypatch):
    s = in_tree_shift()
    assert s.succ_arrays.solve(3.0, np.ones(10)) == pytest.approx(
        np.linalg.solve(3.0 * np.eye(10) - np.array(s.matrix), np.ones(10)), rel=1e-14)
    counts, sizes = count_solves(monkeypatch, s)
    pd = perron_data(s)
    assert counts["right"] >= 1 and counts["left"] >= 1
    # out-degree other than 1: letters 0 and 1; in-degree other than 1:
    # 0, 1, 6 and 8
    assert sizes == {(2, 2), (4, 4)}
    assert_matches_eig(s, pd)


def test_perron_transposed_side_contracts_in_degree_one():
    """A^t of the in-tree shift has out-trees: chains on its right side
    branch apart, and its left side contracts the in-tree of A."""
    s = in_tree_shift()
    t = transposed(s)
    assert t.pred == s.succ
    pd, pt = perron_data(s), perron_data(t)
    assert_matches_eig(t, pt)
    assert pt.value == pytest.approx(pd.value, rel=1e-15)
    assert np.abs(np.array(pt.left) - pd.right).max() < 1e-15
    assert np.abs(np.array(pt.right) - pd.left).max() < 1e-15


def test_perron_singular_shift_is_not_a_linalg_error(monkeypatch):
    """A shift sigma singular to working precision is replaced by one just
    above it, and a reducible matrix is rejected before any solve."""
    s = from_edge_matrix(directed_edge_matrix(kato_graph(2)))
    expected = perron_data(s)
    solve = np.linalg.solve
    failed = []

    def singular_once(m, v):
        if not failed:
            failed.append(m[0, 0])
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(m, v)
    monkeypatch.setattr(np.linalg, "solve", singular_once)
    pd = perron_data(s)
    assert failed
    assert pd.value == pytest.approx(expected.value, rel=1e-12)
    assert np.abs(np.array(pd.right) - expected.right).max() < 1e-12
    monkeypatch.setattr(np.linalg, "solve", lambda m, v: pytest.fail("solved"))
    for rows in (((1, 1), (0, 1)), ((1, 0), (0, 1)), ((0, 1, 0), (1, 0, 0), (1, 1, 1))):
        with pytest.raises(RequiresIrreducible):
            perron_data(SFTData.from_rows(rows, tuple("abc"[:len(rows)])))


def test_perron_retry_rebuilds_the_contracted_system(monkeypatch):
    """The retry at sigma (1 + tol) solves a B x B system built anew at
    that sigma: its diagonal moves by the factor, and so does every chain
    weight sigma^-depth off it."""
    s = from_edge_matrix(directed_edge_matrix(kato_graph(2)))
    solve = np.linalg.solve
    systems = []

    def singular_once(m, v):
        systems.append(m.copy())
        if len(systems) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(m, v)
    monkeypatch.setattr(np.linalg, "solve", singular_once)
    perron_data(s, tol=1e-6)
    first, retry = systems[:2]
    assert first.shape == retry.shape == (6, 6)
    sigma = first[0, 0]
    assert np.array_equal(np.diag(first), np.full(6, sigma))
    assert np.diag(retry) == pytest.approx(sigma * (1 + 1e-6), rel=1e-15)
    off = first != 0
    np.fill_diagonal(off, False)
    assert off.any() and np.all(retry[off] != first[off])


def test_perron_memory_stays_linear_in_the_letters():
    s = from_edge_matrix(directed_edge_matrix(kato_graph(80)))  # 972 letters
    tracemalloc.start()
    try:
        pd = perron_data(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one dense 972 x 972 float array is 7.6 MB
    assert pd.value == pytest.approx(1.004287852947052, rel=1e-12)


def test_parry_weights(schottky2):
    assert parry_cylinder_measure(schottky2, (0,)) == pytest.approx(0.25, abs=1e-13)
    assert parry_cylinder_measure(schottky2, (0, 1)) == pytest.approx(1 / 12, abs=1e-13)
    with pytest.raises(NotAdmissible):
        parry_cylinder_measure(schottky2, (0, 2))  # letter 2 is the inverse of 0


def test_parry_one_letter_full_shift():
    pm = ParryMeasure(ONE_LETTER)
    assert pm.weight((0, 0, 0)) == pytest.approx(1.0, abs=1e-14)


def test_filtration_dims_validation():
    with pytest.raises(ValueError):
        FiltrationDims((4, 3))


def test_parry_additivity(schottky2, theta_sft):
    for s in (schottky2, theta_sft):
        pm = ParryMeasure(s)
        level1 = sum(pm.weight((a,)) for a in range(s.alphabet_size))
        assert level1 == pytest.approx(1.0, abs=1e-12)
        for w in enumerate_words(s, 2):
            extended = sum(pm.weight(w + (b,)) for b in s.succ[w[-1]])
            assert extended == pytest.approx(pm.weight(w), abs=1e-12)


def test_coboundary_matrix_shape(schottky2):
    m = coboundary_matrix(schottky2, 1)
    assert len(m) == 12 and len(m[0]) == 4
    # kernel of delta on V_0 is the constants: rank is alphabet size - 1
    assert exact_rank(m) == 3


def test_cohomology_dims_schottky(schottky2):
    assert cohomology_filtration_dims(schottky2, 3) == (9, 25, 73)


def test_cohomology_dims_theta(theta_sft):
    # dim V_1 - (6 - 1): the coboundary kernel on V_0 is the constants
    assert cohomology_filtration_dims(theta_sft, 1) == (7,)


def test_cohomology_one_letter():
    assert cohomology_filtration_dims(ONE_LETTER, 3) == (1, 1, 1)


def test_cohomology_rank_oracle_agreement(schottky2, theta_sft):
    # independent oracle: floating-point SVD rank of the same integer matrix
    for s in (schottky2, theta_sft):
        for n in (1, 2, 3):
            m = coboundary_matrix(s, n)
            assert exact_rank(m) == np.linalg.matrix_rank(np.array(m, dtype=float))


@st.composite
def irreducible_shifts(draw):
    """0/1 matrices on 1-5 letters containing a cycle through every letter,
    so irreducible; the other entries are random, so periodic ones (a bare
    cycle) and aperiodic ones both occur."""
    k = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                         min_size=k, max_size=k))
    cycle = draw(st.permutations(range(k)))
    succ = {a: b for a, b in zip(cycle, cycle[1:] + cycle[:1])}
    matrix = tuple(tuple(1 if succ[i] == j else x for j, x in enumerate(row))
                   for i, row in enumerate(rows))
    return SFTData.from_rows(matrix, tuple(f"l{i}" for i in range(k)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(s=irreducible_shifts())
def test_cohomology_closed_form_matches_exact_rank(s):
    assert s.is_irreducible()
    dims = cohomology_filtration_dims(s, 3)
    for n in (1, 2, 3):
        longer = enumerate_words(s, n + 1)
        assert dims[n - 1] == len(longer) - exact_rank(coboundary_matrix(s, n))


@st.composite
def block_shifts(draw):
    """0/1 matrices on 1-6 letters cut into 1-3 consecutive diagonal blocks
    with no entry below them, so a shift of two or more blocks is
    reducible.  A block may carry a cycle through its letters; the other
    entries are random with a random density, so sinks, sources, isolated
    letters, several components, essential reducible shifts and nilpotent
    ones (no words from some length on) all occur."""
    k = draw(st.integers(1, 6))
    cuts = sorted(draw(st.sets(st.integers(1, k - 1), max_size=2))) if k > 1 else []
    block = [b for b, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, k]))
             for _ in range(lo, hi)]
    density = draw(st.floats(0.0, 1.0))
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=k * k, max_size=k * k))
    rows = [[int(block[i] <= block[j] and cells[i * k + j] < density) for j in range(k)]
            for i in range(k)]
    for b in draw(st.sets(st.integers(0, len(cuts)))):  # blocks given a cycle
        letters = [i for i in range(k) if block[i] == b]
        for i, j in zip(letters, letters[1:] + letters[:1]):
            rows[i][j] = 1
    return SFTData.from_rows(tuple(map(tuple, rows)), tuple(f"l{i}" for i in range(k)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(s=block_shifts())
def test_cohomology_dims_match_exact_rank_on_every_shift(s):
    dims = cohomology_filtration_dims(s, 4)
    for n in (1, 2, 3, 4):
        if count_words(s, n + 1) <= 300:  # keeps the dense oracle small
            assert dims[n - 1] == count_words(s, n + 1) - exact_rank(coboundary_matrix(s, n))


def test_cohomology_monotone_on_catalog(schottky2, theta_sft, dumbbell_sft):
    # empirical observation on the catalog; report rather than assert
    for s in (schottky2, theta_sft, dumbbell_sft):
        dims = cohomology_filtration_dims(s, 4)
        if any(b < a for a, b in zip(dims, dims[1:])):
            print(f"note: cohomology dims not monotone: {dims}")


def test_automorphisms_schottky(schottky2):
    no_involution = SFTData.from_rows(schottky2.matrix, schottky2.labels)
    assert len(alphabet_automorphisms(no_involution)) == 8
    assert len(alphabet_automorphisms(schottky2)) == 8


def test_automorphisms_identity_matrix():
    s = SFTData.from_rows(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ("a", "b", "c"))
    assert len(alphabet_automorphisms(s)) == 6  # all of S_3


def test_automorphisms_theta(theta_sft):
    autos = alphabet_automorphisms(theta_sft)
    assert len(autos) == 12
    # every automorphism preserves admissibility of short words
    for sigma in autos:
        for w in enumerate_words(theta_sft, 4):
            assert theta_sft.is_admissible(tuple(sigma[a] for a in w))


def test_automorphisms_kato1():
    # 24 letters: the subdivided theta graph keeps the 12 symmetries of theta
    s = from_edge_matrix(directed_edge_matrix(kato_graph(1)))
    autos = alphabet_automorphisms(s)
    assert len(autos) == 12
    assert autos == sorted(autos)
    for sigma in autos:
        assert all(s.matrix[sigma[i]][sigma[j]] == s.matrix[i][j]
                   for i in range(24) for j in range(24))
        assert all(sigma[s.involution[i]] == s.involution[sigma[i]]
                   for i in range(24))


def test_automorphism_cap(monkeypatch):
    big = SFTData.from_rows(tuple(tuple(1 for _ in range(12)) for _ in range(12)),
                  tuple(str(i) for i in range(12)))
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", "1000")
    with pytest.raises(EnumerationBudgetExceeded):
        alphabet_automorphisms(big)


def test_word_table_takes_uint16_past_256_letters():
    s = from_edge_matrix(directed_edge_matrix(kato_graph(21)))
    assert s.alphabet_size == 264
    table = word_table(s, 3)
    assert table.dtype == np.uint16
    assert list(map(tuple, table.tolist())) == enumerate_words(s, 3)
    smaller = from_edge_matrix(directed_edge_matrix(kato_graph(20)))
    assert smaller.alphabet_size == 252
    assert word_table(smaller, 3).dtype == np.uint8


def test_word_table_checks_the_budget_before_allocating(monkeypatch):
    monkeypatch.delenv("GRAPHSPECTRA_WORD_BUDGET", raising=False)
    s = full_schottky_sft(2)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetExceeded) as err:
            word_table(s, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.witness == 2125764 == count_words(s, 13)
    assert peak < 1 << 20
    with pytest.raises(InvalidParameter):
        word_table(s, 0)


def test_kato1000_pipeline_runs_on_successor_lists(monkeypatch):
    """Edge matrix, K-theory, Perron data and six cohomology levels of
    kato_graph(1000), 12,012 letters, without the dense view: its
    144 M cells alone would dwarf the bound."""
    from graphspectra.ktheory import ck_k_theory

    def forbidden(self):
        raise AssertionError("dense transition-matrix rows")
    monkeypatch.setattr(graphs.EdgeMatrix, "matrix", property(forbidden))
    tracemalloc.start()
    try:
        s = from_edge_matrix(directed_edge_matrix(kato_graph(1000)))
        k0, k1 = ck_k_theory(s)
        lam = perron_data(s).value
        dims = cohomology_filtration_dims(s, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.alphabet_size == 12012
    assert (k0.rank, k0.torsion, k1.rank) == (2, (), 2)
    assert 1 < lam < 1.01
    assert dims == tuple(count_words(s, n + 1) - count_words(s, n) + 1
                         for n in range(1, 7))
    assert peak < 32 << 20


def test_matrix_rows_are_checked_whole_with_the_row_as_witness():
    accepted = SFTData.from_rows(((True, 1.0), (1, 0)), ("a", "b"))
    assert accepted.succ[0] == (0, 1) and accepted.pred[1] == (0,)
    for bad_row in ((1, 2), (1,), (1, 0.5), (1, None)):
        with pytest.raises(InvalidTransitionMatrix) as err:
            SFTData.from_rows(((1, 1), bad_row), ("a", "b"))
        assert err.value.witness == bad_row


def test_involution_validation():
    with pytest.raises(InvalidTransitionMatrix):
        SFTData.from_rows(((1, 1), (1, 1)), ("a", "b"), (0, 1))  # has fixed points
    with pytest.raises(InvalidTransitionMatrix):
        SFTData.from_rows(((1, 1), (1, 1)), ("a", "b"), (1, 1))  # not a permutation


def test_from_edge_matrix_needs_both_orientations_of_each_label():
    assert SFTData is graphs.EdgeMatrix
    em = io.load_matrix(Path(__file__).parent / "data" / "a1.csv")  # labels "0".."3"
    with pytest.raises(InvalidTransitionMatrix) as err:
        from_edge_matrix(em)
    assert err.value.witness == "0"
    s = from_edge_matrix(directed_edge_matrix(kato_graph(1)))
    assert all(s.labels[s.involution[i]][:-1] == label[:-1]
               for i, label in enumerate(s.labels))
    em = graphs.EdgeMatrix.from_rows(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ("e+", "e-", "f+"))
    with pytest.raises(InvalidTransitionMatrix) as err:
        from_edge_matrix(em)
    assert err.value.witness == "f+"
    s = from_edge_matrix(directed_edge_matrix(kato_graph(3)))
    flipped = [lab[:-1] + ("-" if lab.endswith("+") else "+") for lab in s.labels]
    assert s.involution == tuple(map(list(s.labels).index, flipped))
