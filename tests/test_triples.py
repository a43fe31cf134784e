import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from graphspectra import io, triples
from graphspectra.errors import (
    EnumerationBudgetExceeded,
    InsufficientSpectrum,
    InvalidInput,
    InvalidParameter,
    NormNotConverged,
    RequiresEvenTriple,
    SummabilityViolation,
    TruncationTooSmall,
)
from graphspectra.graphs import directed_edge_matrix, genus2_catalog, kato_graph
from graphspectra.shift import (
    PerronData,
    SFTData,
    alphabet_automorphisms,
    coboundary_matrix,
    cohomology_filtration_dims,
    count_words,
    enumerate_words,
    from_edge_matrix,
    full_schottky_sft,
    perron_data,
    word_table,
)
from graphspectra.triples import (
    DENSE_NORM_CUTOFF,
    AFTriple,
    CrossedProductTriple,
    EvenBlock,
    GradingOperator,
    SFTGradings,
    ZetaPartial,
    af_core_dims,
    af_summability_report,
    build_truncation,
    crossed_product_spectrum,
    even_double,
    grading_from_sft,
    jlo_phi0,
    spectral_norm,
    summability_exponent_fit,
    theta_trace,
    zeta_partial,
)

RESIDUAL_TOL = 1e-9


def test_truncation_too_small(schottky2):
    with pytest.raises(TruncationTooSmall):
        build_truncation(schottky2, 1)


@pytest.mark.parametrize("level", [4, 5])
def test_ck_relations_on_truncation(schottky2, level):
    t = build_truncation(schottky2, level)
    res = t.ck_residuals()
    assert res["unit_sum"] < RESIDUAL_TOL
    assert max(res["range_relation"]) < RESIDUAL_TOL


def test_ck_relations_theta(theta_sft):
    res = build_truncation(theta_sft, 4).ck_residuals()
    assert res["unit_sum"] < RESIDUAL_TOL
    assert max(res["range_relation"]) < RESIDUAL_TOL


def test_residuals_do_not_grow_with_level(schottky2):
    values = [build_truncation(schottky2, n).ck_residuals()["unit_sum"]
              for n in (3, 4, 5)]
    assert all(v < RESIDUAL_TOL for v in values)


def test_projections_are_nested_orthogonal(schottky2):
    t = build_truncation(schottky2, 3)
    for n in range(3):
        p = t.projection(n)
        q = t.projection(n + 1)
        assert abs((p @ p - p)).max() < 1e-12
        assert abs((q @ p - p)).max() < 1e-12


def reference_projection(t, n):
    """P_n assembled block by block from the basis words and measure: one
    dense block sqrt(mu_a mu_b) / mu(prefix) per length-(n+1) prefix."""
    if n >= t.level:
        return sp.identity(t.dimension, format="csr")
    blocks: dict = {}
    for k, w in enumerate(t.words):
        blocks.setdefault(w[:n + 1], []).append(k)
    rows, cols, vals = [], [], []
    for block in blocks.values():
        g = np.sqrt(t.mu[block] / t.mu[block].sum())
        rows.extend(np.repeat(block, len(block)))
        cols.extend(np.tile(block, len(block)))
        vals.extend(np.outer(g, g).ravel())
    return sp.csr_matrix((vals, (rows, cols)), shape=(t.dimension, t.dimension))


def reference_grading(t, eigenvalues):
    d = sp.csr_matrix((t.dimension, t.dimension))
    previous = sp.csr_matrix((t.dimension, t.dimension))
    for n, lam in enumerate(eigenvalues):
        current = reference_projection(t, n)
        d = d + lam * (current - previous)
        previous = current
    return d


def reference_ck_residuals(t):
    p = reference_projection(t, t.level - 1)
    isometries = [t.isometry(i) for i in range(t.sft.alphabet_size)]
    ranges = [s @ s.T for s in isometries]
    unit = sum(ranges) - sp.identity(t.dimension)
    per_letter = [s.T @ s - sum(ranges[j] for j in t.sft.succ[i])
                  for i, s in enumerate(isometries)]
    return [sp.linalg.norm(p @ x @ p) for x in (unit, *per_letter)]


# Row sums of A^2 are (3, 1, 2) but column sums are (3, 2, 1): a count by
# first letter and a count by last letter differ on this matrix.
NONSYMMETRIC = SFTData.from_rows(((1, 1, 0), (0, 0, 1), (1, 0, 0)), ("a", "b", "c"))

AGREEMENT_SHIFTS = {
    "schottky2": full_schottky_sft(2),
    "theta": from_edge_matrix(directed_edge_matrix(genus2_catalog()[1])),
    "nonsymmetric": NONSYMMETRIC,
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_SHIFTS))
@pytest.mark.parametrize("level", [2, 3, 4])  # schottky2 N=4: past the dense cutoff
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_factored_truncation_matches_assembled(name, level, data):
    s = AGREEMENT_SHIFTS[name]
    twist = data.draw(st.sampled_from([None, *alphabet_automorphisms(s)]))
    letter = data.draw(st.integers(0, s.alphabet_size - 1))
    schedule = data.draw(st.lists(st.floats(-4, 4), min_size=level + 1,
                                  max_size=level + 1))
    t = build_truncation(s, level, twist=twist)
    for n in range(level + 1):
        assert abs(t.projection(n) - reference_projection(t, n)).max() < 1e-15
    p = reference_projection(t, level - 1)
    d = reference_grading(t, schedule)
    s_hat = t.twisted_isometry(letter)
    assembled = (p @ (d @ s_hat - s_hat @ d) @ p).toarray()
    image = letter if twist is None else twist[letter]
    op = t.commutator(image, schedule)
    eye = np.eye(t.dimension)
    assert np.abs(op @ eye - assembled).max() < 1e-12
    assert np.abs(op.rmatmat(eye) - assembled.T).max() < 1e-12
    assert spectral_norm(op) == pytest.approx(np.linalg.norm(assembled, 2),
                                              rel=1e-12, abs=1e-12)
    assert t.commutator_norm(image, schedule)[0] == pytest.approx(
        np.linalg.norm(assembled, 2), abs=1e-12)
    res = t.ck_residuals()
    assert [res["unit_sum"], *res["range_relation"]] == pytest.approx(
        reference_ck_residuals(t), abs=1e-12)


CK_SHIFTS = {**AGREEMENT_SHIFTS,
             "kato5": from_edge_matrix(directed_edge_matrix(kato_graph(5)))}


def flat_residuals(t):
    res = t.ck_residuals()
    return [res["unit_sum"], *res["range_relation"]]


@pytest.mark.parametrize("name", sorted(CK_SHIFTS))
@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_ck_residuals_match_the_assembled_relations(name, level):
    s = CK_SHIFTS[name]
    twists = [None, alphabet_automorphisms(s)[-1]]
    for twist in twists:
        t = build_truncation(s, level, twist=twist)
        assert flat_residuals(t) == pytest.approx(reference_ck_residuals(t), abs=1e-12)


@pytest.mark.parametrize("name", ["schottky2", "kato5"])
def test_ck_residuals_see_a_perturbed_isometry_entry(name):
    """Scaling one letter's right Perron entry by 1 + 1e-6 scales the
    entries of S in the columns ending in it, which breaks both relations;
    the pass sees that, and agrees with the assembled reference."""
    s = CK_SHIFTS[name]
    perron = perron_data(s)
    assert max(flat_residuals(build_truncation(s, 4, perron=perron))) < 1e-12
    right = list(perron.right)
    right[1] *= 1 + 1e-6
    t = build_truncation(s, 4, perron=PerronData(perron.value, perron.left,
                                                 tuple(right), perron.bracket))
    residuals = flat_residuals(t)
    assert residuals[0] > 1e-9 and max(residuals[1:]) > 1e-9
    assert residuals == pytest.approx(reference_ck_residuals(t), abs=1e-12)


@pytest.mark.parametrize("name", sorted(CK_SHIFTS))
@pytest.mark.parametrize("length", range(1, 7))
def test_word_table_matches_enumerate_words(name, length):
    s = CK_SHIFTS[name]
    table = word_table(s, length)
    assert table.dtype == np.uint8
    assert table.shape == (count_words(s, length), length)
    assert list(map(tuple, table.tolist())) == enumerate_words(s, length)


def reference_isometries(s, level):
    """mu and the isometries as a dict-lookup builder assembles them: the
    basis from enumerate_words, the row of (i,) + w[:-1] looked up in a
    {word: index} dict, and COO entries converted to CSR."""
    words = enumerate_words(s, level + 1)
    index = {w: k for k, w in enumerate(words)}
    table = np.array(words)
    perron = perron_data(s)
    left, right = np.array(perron.left), np.array(perron.right)
    lam, norm = perron.value, float(left @ right)
    first, last, second_last = table[:, 0], table[:, -1], table[:, -2]
    mu = left[first] * right[last] * lam ** (-level) / norm
    follows = np.array(s.matrix, dtype=bool)
    isometries = []
    for i in range(s.alphabet_size):
        cols = np.flatnonzero(follows[i][first])
        rows = [index[(i,) + words[c][:-1]] for c in cols]
        li = left[i]
        mu_iw = li * right[last[cols]] * lam ** (-(level + 1)) / norm
        mu_tgt = li * right[second_last[cols]] * lam ** (-level) / norm
        isometries.append(sp.csr_matrix((np.sqrt(mu_iw / mu_tgt), (rows, cols)),
                                        shape=(len(words), len(words))))
    return mu, isometries


@pytest.mark.parametrize("name", sorted(CK_SHIFTS))
@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_isometries_match_the_dict_lookup_builder(name, level):
    s = CK_SHIFTS[name]
    mu, expected = reference_isometries(s, level)
    for twist in (None, alphabet_automorphisms(s)[-1]):
        t = build_truncation(s, level, twist=twist)
        assert t.mu.tobytes() == mu.tobytes()
        sigma = twist or tuple(range(s.alphabet_size))
        for letter in range(s.alphabet_size):
            for got, want in ((t.isometry(letter), expected[letter]),
                              (t.twisted_isometry(letter), expected[sigma[letter]])):
                assert np.array_equal(got.indices, want.indices)
                assert np.array_equal(got.indptr, want.indptr)
                assert got.data.tobytes() == want.data.tobytes()


def test_words_are_a_view_made_when_read(schottky2):
    t = build_truncation(schottky2, 3)
    assert "words" not in vars(t)
    assert t.words == enumerate_words(schottky2, 4)


@st.composite
def shifts_with_perron_data(draw):
    """A random 1-8-letter shift, reducible or not, some letters stripped
    of every successor or every predecessor, with random positive Perron
    data (so any shift builds), and a level N in 2..5, lowered while the
    basis holds more than 2,000 words."""
    n = draw(st.integers(1, 8))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    sinks = draw(st.sets(st.integers(0, n - 1), max_size=2))
    sources = draw(st.sets(st.integers(0, n - 1), max_size=2))
    rows = tuple(tuple(int(cells[i * n + j] and i not in sinks and j not in sources)
                       for j in range(n)) for i in range(n))
    s = SFTData.from_rows(rows, tuple(map(str, range(n))))
    side = st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n).map(tuple)
    value = draw(st.floats(1.0, 3.0))
    perron = PerronData(value, draw(side), draw(side), (value, value))
    level = draw(st.integers(2, 5))
    while level > 2 and count_words(s, level + 1) > 2000:
        level -= 1
    return s, perron, level


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=shifts_with_perron_data())
def test_class_passes_match_the_assembled_truncation(case):
    """The class pass against the relations assembled from the basis,
    also where a letter has no successor (its rows are empty: a sum over
    an empty segment must read 0) or no predecessor; and the commutator
    norms against the prefix counts of the basis, one schedule step at a
    time."""
    s, perron, level = case
    t = build_truncation(s, level, perron=perron)
    res = triples.ck_residuals(s, level, perron)
    assert [res["unit_sum"], *res["range_relation"]] == pytest.approx(
        reference_ck_residuals(t), abs=1e-12)
    by_first = [np.bincount(t._table[block, 0], minlength=s.alphabet_size)
                for block in t._starts]
    for n in range(level - 1):
        schedule = [0.0] * (n + 1) + [1.0] * (level - n)
        assert triples.commutator_norms(s, level, schedule) == [
            float(by_first[n + 1][i] > by_first[n][i]) for i in range(s.alphabet_size)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=shifts_with_perron_data(), data=st.data())
def test_commutator_norms_match_the_per_letter_max(case, data):
    """The masked max against the per-letter max over the schedule's
    steps, on the basis prefix counts, for float schedules and for int
    schedules past 2**53 (taking float of the max or the max of floats
    gives the same value, as float is monotone)."""
    s, perron, level = case
    t = build_truncation(s, level, perron=perron)
    counts = [np.bincount(t._table[block, 0], minlength=s.alphabet_size)
              for block in t._starts]
    lam = data.draw(st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=level + 1, max_size=level + 1),
        st.lists(st.integers(-2 ** 200, 2 ** 200), min_size=level + 1, max_size=level + 1)))
    assert triples.commutator_norms(s, level, lam) == [
        float(max((abs(lam[n + 1] - lam[n]) for n in range(level - 1)
                   if counts[n + 1][i] > counts[n][i]), default=0.0))
        for i in range(s.alphabet_size)]


@st.composite
def shifts_of_any_density(draw):
    """A random 1-8-letter shift whose transitions each hold with a drawn
    density from 1/8 to 1, so that sparse ones have letters that reach
    no infinite path, with random positive Perron data (so any shift
    builds)."""
    n = draw(st.integers(1, 8))
    density = draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(0, 7), min_size=n * n, max_size=n * n))
    rows = tuple(tuple(int(cells[i * n + j] < density) for j in range(n))
                 for i in range(n))
    side = st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n).map(tuple)
    value = draw(st.floats(1.0, 3.0))
    return (SFTData.from_rows(rows, tuple(map(str, range(n)))),
            PerronData(value, draw(side), draw(side), (value, value)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=shifts_of_any_density(), level=st.integers(2, 8), data=st.data())
def test_one_walk_equals_the_two_walk_oracles(case, level, data):
    """The commutator norms and CK residuals of the one frontier walk
    equal, bit for bit, those of the two walks they replaced (kept in
    tests/oracles.py), on random shifts, reducible or not, with random
    positive Perron data, and on the irreducible ones with their own
    Perron data too, for the default schedule and a random one."""
    s, perron = case
    schedule = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=level + 1,
                                  max_size=level + 1))
    for eigenvalues in (None, schedule):
        assert triples.commutator_norms(s, level, eigenvalues) == \
            oracles.commutator_norms(s, level, eigenvalues)
    for p in (perron, perron_data(s)) if s.is_irreducible() else (perron,):
        norms, residuals = triples.level_certificates(s, level, p)
        assert residuals == triples.ck_residuals(s, level, p) == \
            oracles.ck_residuals(s, level, p)
        assert norms == oracles.commutator_norms(s, level)


def test_zero_schedule_on_the_lanczos_branch_is_exactly_zero(schottky2):
    t = build_truncation(schottky2, 5)
    assert t.dimension > DENSE_NORM_CUTOFF
    norm, _ = t.commutator_norm(0, eigenvalues=[0] * 6)
    assert norm == 0.0
    assert spectral_norm(t.commutator(0, [0] * 6)) == 0.0


def test_lanczos_converges_on_a_highly_degenerate_top_singular_value(schottky2):
    t = build_truncation(schottky2, 5)
    schedule = [3.859368870607402, 2.979262123494415, -1.685558658024588,
                3.691823911600668, 0.31378775096648504, 1.4226438180047385]
    op = t.commutator(0, schedule)
    dense = np.linalg.norm(op @ np.eye(t.dimension), 2)
    assert t.dimension > DENSE_NORM_CUTOFF
    assert spectral_norm(op) == pytest.approx(dense, rel=1e-12)
    assert t.commutator_norm(0, schedule)[0] == pytest.approx(dense, rel=1e-12)


def test_truncation_stores_order_n_dim_entries():
    """The words and their prefix blocks only: no stored entries or row
    tails of S, at most 30 array bytes per basis vector at g=2 N=9 (70
    while S was held as CSR arrays); and at N=7 no dim x dim projection,
    and no dim-long index array per letter (kato5 has 72 letters)."""
    t = build_truncation(CK_SHIFTS["schottky2"], 9)

    def nbytes(value):
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, (list, tuple)):
            return sum(map(nbytes, value))
        return 0

    assert t.dimension == 78732
    assert sum(map(nbytes, vars(t).values())) <= 30 * t.dimension
    for name, dim in (("schottky2", 8748), ("kato5", 114)):
        s = CK_SHIFTS[name]
        t = build_truncation(s, 7)
        level = t.level
        max_degree = max(s.row_sums())

        def entries(value):
            if isinstance(value, np.ndarray):
                assert value.size <= (level + 1) * dim
                return value.size
            if sp.issparse(value):
                assert value.nnz <= max_degree * dim
                return value.nnz + len(value.indptr)
            if isinstance(value, (list, tuple)):
                return sum(entries(v) for v in value)
            return 1

        assert t.dimension == dim
        assert sum(entries(v) for v in vars(t).values()) <= 4 * (level + 1) * dim


def test_lanczos_non_convergence_is_a_documented_error(monkeypatch):
    def stalled(*args, **kwargs):
        raise spla.ArpackNoConvergence("stalled", [], [])
    monkeypatch.setattr(spla, "eigsh", stalled)
    shape = (DENSE_NORM_CUTOFF + 1, DENSE_NORM_CUTOFF + 8)
    m = np.random.default_rng(3).normal(size=shape)
    with pytest.raises(NormNotConverged) as err:
        spectral_norm(m)
    assert err.value.code == "NormNotConverged"
    assert err.value.witness == shape


@pytest.mark.parametrize("shape", [
    (DENSE_NORM_CUTOFF + 1, 1), (DENSE_NORM_CUTOFF + 1, 3),
    (3, DENSE_NORM_CUTOFF + 1),
    (DENSE_NORM_CUTOFF + 40, DENSE_NORM_CUTOFF + 1),
    (DENSE_NORM_CUTOFF + 1, DENSE_NORM_CUTOFF + 40),
], ids=["column", "tall-skinny", "wide-skinny", "tall", "wide"])
def test_spectral_norm_of_non_square_input(shape):
    m = np.random.default_rng(5).normal(size=shape)
    expected = np.linalg.norm(m, 2)
    for form in (m, sp.csr_matrix(m), spla.aslinearoperator(m)):
        assert spectral_norm(form) == pytest.approx(expected, rel=1e-12)


def test_arpack_breakdown_takes_the_norm_on_the_small_range(monkeypatch):
    def broken(*args, **kwargs):
        raise spla.ArpackError(-9)
    monkeypatch.setattr(spla, "eigsh", broken)
    n = DENSE_NORM_CUTOFF + 1
    m = np.zeros((n, n))
    m[10, 20], m[11, 21] = 3.0, 4.0  # Frobenius bound 5, norm 4
    assert spectral_norm(m) == pytest.approx(4.0, rel=1e-12)
    assert spectral_norm(np.zeros((n, n))) == 0.0
    with pytest.raises(NormNotConverged) as err:
        spectral_norm(np.random.default_rng(3).normal(size=(n, n)))
    assert err.value.witness == (n, n)


def test_identity_twist_is_noop(schottky2):
    t = build_truncation(schottky2, 3, twist=(0, 1, 2, 3))
    for i in range(4):
        assert (t.twisted_isometry(i) - t.isometry(i)).nnz == 0


def test_twist_relabels_isometries(schottky2):
    # swapping the two generators (and their inverses) preserves the matrix
    t = build_truncation(schottky2, 3, twist=(1, 0, 3, 2))
    assert (t.twisted_isometry(0) - t.isometry(1)).nnz == 0
    assert (t.twisted_isometry(2) - t.isometry(3)).nnz == 0


@pytest.mark.parametrize("name", sorted(CK_SHIFTS))
def test_growth_certificate_matches_the_dense_product(name):
    """A r summed over the successor lists gives the dense certificate,
    on the Perron vector and, through the inflation branch, on a vector
    that breaks A r <= rho r."""
    s = CK_SHIFTS[name]
    perron = perron_data(s)
    a = np.array(s.matrix, dtype=float)
    assert SFTGradings(s, perron).growth_ratio == perron.value * (1 + 1e-9)
    r = np.array(perron.right)
    r[0] *= 0.5
    skewed = PerronData(perron.value, perron.left, tuple(r), perron.bracket)
    assert np.any(a @ r > perron.value * (1 + 1e-9) * r)
    inflated = SFTGradings(s, skewed).growth_ratio
    assert inflated == pytest.approx(float(np.max((a @ r) / r)) * (1 + 1e-12),
                                     rel=1e-15)


def test_twist_must_preserve_matrix(theta_sft):
    bad = tuple(range(1, theta_sft.alphabet_size)) + (0,)
    if not all(theta_sft.matrix[bad[i]][bad[j]] == theta_sft.matrix[i][j]
               for i in range(6) for j in range(6)):
        with pytest.raises(InvalidParameter):
            build_truncation(theta_sft, 3, twist=bad)
    # swapping b and c keeps every out-degree (2, 1, 1) but sends the
    # transition a -> b to a -> c, which is not one
    swap = (0, 2, 1)
    assert [len(NONSYMMETRIC.succ[swap[i]]) for i in range(3)] == \
        NONSYMMETRIC.row_sums()
    with pytest.raises(InvalidParameter) as err:
        build_truncation(NONSYMMETRIC, 3, twist=swap)
    assert err.value.witness == swap
    assert "preserve the transition matrix" in str(err.value)


def test_twisted_commutator_matches_image_letter(schottky2):
    t = build_truncation(schottky2, 3, twist=(1, 0, 3, 2))
    d = t.grading_matrix()
    p = t.projection(t.level - 1)
    s_hat = t.twisted_isometry(0)
    twisted = spectral_norm(p @ (d @ s_hat - s_hat @ d) @ p)
    norm_1, _ = t.commutator_norm(1)
    assert twisted == pytest.approx(norm_1, abs=1e-12)


def test_commutator_stabilizes(schottky2):
    truncations = [build_truncation(schottky2, n) for n in (3, 4, 5)]
    values = [t.commutator_norm(0)[0] for t in truncations]
    assert abs(values[0] - values[1]) < 1e-12
    assert abs(values[1] - values[2]) < 1e-12
    assert truncations[2].dimension > DENSE_NORM_CUTOFF
    assert spectral_norm(truncations[2].commutator(0)) == pytest.approx(
        values[2], abs=1e-12)


def test_commutator_depth_and_zero_schedule(schottky2):
    t = build_truncation(schottky2, 3)
    norm, depth = t.commutator_norm(0)
    assert depth == 1
    assert norm > 0
    zero_norm, _ = t.commutator_norm(0, eigenvalues=[0, 0, 0, 0])
    assert zero_norm == 0


def test_commutator_theta_each_letter(theta_sft):
    small = build_truncation(theta_sft, 3)
    large = build_truncation(theta_sft, 5)
    for i in range(theta_sft.alphabet_size):
        a, _ = small.commutator_norm(i)
        b, _ = large.commutator_norm(i)
        assert math.isfinite(a)
        assert abs(a - b) < 1e-12


def test_theta_trace_value(schottky2):
    g = grading_from_sft(schottky2, 40)
    res = theta_trace(g, 1.0)
    assert res.converged and res.tail_bound < 1e-12
    assert res.partial == pytest.approx(7.3914, abs=1e-3)
    # direct-summation oracle over the first few terms
    oracle = sum(m * math.exp(-n * n) for n, m in enumerate((4, 8, 24, 72, 216, 648)))
    assert res.partial == pytest.approx(oracle, abs=1e-4)


def test_theta_trace_monotone_in_t(schottky2):
    g = grading_from_sft(schottky2, 40)
    values = [theta_trace(g, t).partial for t in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_theta_trace_large_t_limit(schottky2):
    g = grading_from_sft(schottky2, 20)
    assert theta_trace(g, 60.0).partial == pytest.approx(4.0, abs=1e-20)


def test_theta_trace_tail_bound_is_a_bound(schottky2):
    short = theta_trace(grading_from_sft(schottky2, 12), 1.0)
    long = theta_trace(grading_from_sft(schottky2, 24), 1.0)
    assert long.partial - short.partial <= short.tail_bound


def test_theta_trace_rejects_nonpositive_t(schottky2):
    with pytest.raises(InvalidParameter):
        theta_trace(grading_from_sft(schottky2, 5), 0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_theta_trace_rejects_non_finite_t(schottky2, t):
    with pytest.raises(InvalidParameter) as err:
        theta_trace(grading_from_sft(schottky2, 5), t)
    assert err.value.witness is t


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_zeta_partial_rejects_non_finite_s(schottky2, s):
    with pytest.raises(InvalidParameter) as err:
        zeta_partial(grading_from_sft(schottky2, 5), s)
    assert err.value.witness is s


def test_theta_trace_rank3():
    g = grading_from_sft(full_schottky_sft(3), 30)
    res = theta_trace(g, 1.0)
    assert res.converged and res.tail_bound < 1e-12


def test_theta_trace_multiplicities_past_float_range():
    # at level 511 the rank-3 multiplicities reach ~1e357, past float range
    g = grading_from_sft(full_schottky_sft(3), 511)
    assert g.new_dims[-1] > 10 ** 309
    res = theta_trace(g, 0.001)
    assert math.isfinite(res.partial) and res.partial > 0
    with pytest.raises(InvalidParameter):
        theta_trace(g, 0.00001)  # the partial sum itself leaves float range


def test_zeta_divergent_for_schottky(schottky2):
    g = grading_from_sft(schottky2, 48)
    for s in (0.5, 2.0, 20.0):
        assert zeta_partial(g, s).diagnosis == "Divergent"


def test_zeta_af_schedule_converges(schottky2, monkeypatch):
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", str(10**8))
    dims = tuple(level.total for level in af_core_dims(schottky2, 6))
    af = AFTriple(dims, 1.0, 3.0)
    z = zeta_partial(af.grading(), 1.0)  # s = p, s q = 3 > 2
    assert z.diagnosis == "Convergent"
    assert z.tail_bound < 1.0


def test_zeta_single_level():
    g = GradingOperator((5,), (2.0,))
    z = zeta_partial(g, 3.0)
    assert z.diagnosis == "Convergent"
    assert z.tail_bound == 0.0
    assert z.partial == pytest.approx(5 * (1 + 4) ** -1.5)


@pytest.mark.parametrize("dims, p, q", [
    ((4, 36, 324, 2916), 1.0, 3.0),
    ((2, 5, 9), 2.0, 1.5),
    (tuple(range(1, 25)), 2.0, 2.0),
])
def test_af_partials_end_at_the_zeta_partial(dims, p, q):
    """Both sums read one term generator and add left to right: the
    report's last partial is zeta_partial's, bit for bit."""
    a = AFTriple(dims, p, q)
    last = af_summability_report(a).partials[-1]
    assert last.hex() == zeta_partial(a.grading(), a.p).partial.hex()


def _cycle(n):
    """The shift of the n-cycle: letter i has the one successor i + 1 mod n."""
    return SFTData.from_rows(tuple(tuple(int(j == (i + 1) % n) for j in range(n))
                                   for i in range(n)), tuple(map(str, range(n))))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zeta_converges_on_a_permutation_shift(n):
    """Every level past 0 of a cycle is empty, so the growth ratio is 0 and
    the zeta sum is its level-0 term, with no tail, for every s."""
    g = grading_from_sft(_cycle(n), 48)
    assert g.new_dims == (n,) + (0,) * 48
    assert g.growth_ratio == 0.0
    assert g.growth_const >= n
    for s in (-1.0, 0.5, 2.0, 20.0):
        assert zeta_partial(g, s) == ZetaPartial(s, float(n), "Convergent", 0.0)
    assert theta_trace(g, 1.0).tail_bound == 0.0


RED9 = Path(__file__).parent / "data" / "red9.json"


@pytest.mark.parametrize("read, limited", [
    (lambda s: enumerate_words(s, 4), True),
    (lambda s: word_table(s, 4), True),
    (lambda s: coboundary_matrix(s, 3), True),
    (lambda s: cohomology_filtration_dims(io.load_sft(RED9), 8), False),
    (alphabet_automorphisms, True),
    (lambda s: build_truncation(s, 3), True),
    (lambda s: af_core_dims(s, 3), True),
], ids=["enumerate_words", "word_table", "coboundary_matrix",
        "cohomology_filtration_dims-red9", "alphabet_automorphisms",
        "build_truncation", "af_core_dims"])
def test_word_budget_readers_take_the_variable(schottky2, monkeypatch, read, limited):
    """Each reader of the word budget takes it from GRAPHSPECTRA_WORD_BUDGET:
    it runs under the default budget and refuses a budget of 5.  The
    cohomology dims are word counts, so red9 at level 8 runs under a
    budget of 5 too, and the variable is read only to be checked."""
    monkeypatch.delenv("GRAPHSPECTRA_WORD_BUDGET", raising=False)
    expected = read(schottky2)
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", "5")
    if limited:
        with pytest.raises(EnumerationBudgetExceeded):
            read(schottky2)
    else:
        assert read(schottky2) == expected
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", "-1")
    with pytest.raises(InvalidInput):
        read(schottky2)


def test_af_core_dims(schottky2):
    levels = af_core_dims(schottky2, 2)
    assert [(lvl.blocks, lvl.total) for lvl in levels] == [
        ((1, 1, 1, 1), 4),
        ((3, 3, 3, 3), 36),
        ((9, 9, 9, 9), 324),
    ]


@pytest.mark.parametrize("s", [full_schottky_sft(2), NONSYMMETRIC],
                         ids=["schottky2", "nonsymmetric"])
def test_af_core_dims_enumeration_oracle(s):
    # block c_i(n) counts length-n words the letter i can follow
    a = s.matrix
    letters = s.alphabet_size
    for n in (1, 2, 3):
        counts = [0] * letters
        for w in enumerate_words(s, n):
            for i in range(letters):
                if a[w[-1]][i]:
                    counts[i] += 1
        assert tuple(counts) == af_core_dims(s, n)[n].blocks


def test_af_triple_validation():
    with pytest.raises(SummabilityViolation):
        AFTriple((4, 36), 1.0, 1.5)  # q <= 2/p
    with pytest.raises(SummabilityViolation):
        AFTriple((4, 4), 1.0, 3.0)  # not strictly increasing


def test_af_triple_past_float_range_is_invalid():
    # the summability terms square the largest eigenvalue (dim A_N)^q
    dims = (4, 36, 324, 2916, 26244, 236196)
    assert af_summability_report(AFTriple(dims, 1.0, 28.6)).partials_ok
    for q in (29.0, 400.0):
        with pytest.raises(InvalidParameter) as err:
            AFTriple(dims, 1.0, q)
        assert err.value.witness == (1.0, q)
    with pytest.raises(InvalidParameter) as err:
        AFTriple((4, 36, 324), 0.1, 1e308)
    assert err.value.witness == (0.1, 1e308)


@pytest.mark.parametrize("p, q, witness", [
    (math.nan, 3.0, math.nan), (math.inf, 3.0, math.inf),
    (1.0, math.nan, (1.0, math.nan)), (1.0, math.inf, (1.0, math.inf))])
def test_af_triple_rejects_non_finite_p_and_q(p, q, witness):
    with pytest.raises(SummabilityViolation) as err:
        AFTriple((4, 36), p, q)
    assert repr(err.value.witness) == repr(witness)


def test_af_summability_schottky_core(schottky2, monkeypatch):
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", str(10**9))
    dims = tuple(level.total for level in af_core_dims(schottky2, 7))
    report = af_summability_report(AFTriple(dims, 1.0, 3.0))
    assert report.termwise_ok and report.partials_ok


def test_af_summability_minimal_growth():
    dims = tuple(range(1, 25))
    report = af_summability_report(AFTriple(dims, 2.0, 2.0))
    assert report.termwise_ok and report.partials_ok
    partials = report.partials
    assert all(b >= a for a, b in zip(partials, partials[1:]))
    assert partials[-1] <= sum(n ** -3.0 for n in range(1, 25))


def test_af_running_sums_add_left_to_right(schottky2):
    dims = tuple(level.total for level in af_core_dims(schottky2, 5))
    report = af_summability_report(AFTriple(dims, 1.0, 3.0))
    for sums, terms in ((report.partials, report.terms),
                        (report.majorant_partials, report.majorant_terms)):
        running, total = [], 0.0
        for term in terms:
            total += term
            running.append(total)
        assert sums == tuple(running) == tuple(np.cumsum(terms).tolist())


def test_af_summability_single_level():
    report = af_summability_report(AFTriple((3,), 1.0, 3.0))
    assert len(report.terms) == 1 and report.termwise_ok


def test_crossed_spectrum_zero_base():
    c = CrossedProductTriple(((0.0, 1),), 1)
    assert crossed_product_spectrum(c).tolist() == [(-1.0, 1), (0.0, 2), (1.0, 1)]


def test_crossed_spectrum_sqrt5_multiplicity():
    c = CrossedProductTriple(((1.0, 1), (2.0, 1)), 2)
    values = dict(crossed_product_spectrum(c))
    assert values[math.sqrt(5)] == 2
    assert values[-math.sqrt(5)] == 2


def test_crossed_spectrum_symmetric():
    c = CrossedProductTriple(((1.0, 2), (2.5, 1)), 3)
    spectrum = crossed_product_spectrum(c).tolist()
    negated = sorted((-v, m) for v, m in spectrum)
    assert negated == spectrum


def test_crossed_multiplicity_guard():
    """Multiplicities are stored as int64: a non-int, or a folded total
    2 (M + 1) sum mult of 2**63 or more, is refused before any work."""
    with pytest.raises(InvalidParameter) as err:
        CrossedProductTriple(((1.0, 1), (2.0, 1.5)), 3)
    assert err.value.witness == (2.0, 1.5)
    with pytest.raises(InvalidParameter) as err:
        CrossedProductTriple(((1.0, 2**61), (2.0, 2**61), (3.0, 1)), 0)
    assert err.value.witness == (2.0, 2**61)
    with pytest.raises(InvalidParameter):
        CrossedProductTriple(((1.0, 1),), 2**62)
    CrossedProductTriple(((1.0, 2**62 - 1),), 0)
    spectrum = CrossedProductTriple(((0.0, 2**60 - 1), (1.0, 1)), 1).spectrum()
    root2 = math.hypot(1, 1)
    assert spectrum.tolist() == [(-root2, 1), (-1.0, 2**60), (0.0, 2**61 - 2),
                                 (1.0, 2**60), (root2, 1)]


def test_crossed_base_must_be_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter) as err:
            CrossedProductTriple(((1.0, 1), (bad, 2)), 3)
        lam, mult = err.value.witness
        assert (math.isnan(lam) or lam == bad) and mult == 2


def test_crossed_list_pair_base_works_like_the_tuple_base():
    """Pairs are unpacked once, at construction: list pairs give the
    spectrum of the equal tuple pairs, and a bad list pair is the witness."""
    listed = CrossedProductTriple([[1.0, 1], [2.0, 1]], 3)
    tupled = CrossedProductTriple(((1.0, 1), (2.0, 1)), 3)
    assert crossed_product_spectrum(listed).tolist() == crossed_product_spectrum(tupled).tolist()
    assert summability_exponent_fit(listed, min_distinct=3) == summability_exponent_fit(
        tupled, min_distinct=3)
    with pytest.raises(InvalidParameter) as err:
        CrossedProductTriple([[1.0, 1], [2.0, 1.5]], 3)
    assert err.value.witness == (2.0, 1.5)


def test_crossed_array_base_is_checked_with_the_first_bad_pair_as_witness():
    """A SPECTRUM_DTYPE base is checked by the rules of a pair base, and
    the witness is the first bad record as a (float, int) pair; of two
    faults at one record the first in the order finite, positive, total
    is named, as the loop over pairs named it."""
    def array(pairs):
        return np.array(pairs, dtype=triples.SPECTRUM_DTYPE)

    cases = [
        ([(1.0, 1), (math.inf, 0), (2.0, -3)], "finite", (math.inf, 0)),
        ([(1.0, 1), (2.0, 0), (math.nan, 1)], "positive", (2.0, 0)),
        ([(1.0, 2**61), (2.0, 2**61), (math.inf, 1)], "2**63", (2.0, 2**61)),
        ([(1.0, 2**63 - 1), (2.0, 2**63 - 1)], "2**63", (1.0, 2**63 - 1)),
    ]
    for pairs, message, witness in cases:
        for base in (array(pairs), tuple(pairs)):
            with pytest.raises(InvalidParameter, match=message.replace("*", r"\*")) as err:
                CrossedProductTriple(base, 0)
            assert err.value.witness == witness
            assert [type(v) for v in err.value.witness] == [float, int]
    accepted = CrossedProductTriple(array([(0.0, 2**60 - 1), (1.0, 1)]), 1)
    assert accepted.spectrum().tolist() == CrossedProductTriple(
        ((0.0, 2**60 - 1), (1.0, 1)), 1).spectrum().tolist()
    # any other array is read as pairs: a float multiplicity is no int
    with pytest.raises(InvalidParameter, match="positive ints") as err:
        CrossedProductTriple(np.array([[1.0, 1.0], [2.0, 1.0]]), 3)
    assert err.value.witness == (1.0, 1.0)


def test_crossed_pair_base_keeps_the_type_checks_of_a_loop_over_pairs():
    """An eigenvalue that math.isfinite refuses (a str float() would parse)
    or a pair that does not unpack raises its own error, unless an earlier
    pair holds a fault, which is then the witness."""
    for bad in ("1e3", b"1", 10**400):
        with pytest.raises((TypeError, OverflowError)):
            CrossedProductTriple(((1.0, 1), (bad, 1)), 3)
        with pytest.raises(InvalidParameter) as err:
            CrossedProductTriple(((1.0, 0), (bad, 1)), 3)
        assert err.value.witness == (1.0, 0)
    with pytest.raises(ValueError, match="unpack"):
        CrossedProductTriple(((1.0, 1), (2.0, 1, 1)), 3)


def test_crossed_array_base_is_copied_and_compared_by_value():
    """Writes to an array base after construction change nothing, and a
    triple is equal to (and hashed as) the one with the equal pair base."""
    base = np.array([(1.0, 1), (2.5, 2), (-0.0, 1)], dtype=triples.SPECTRUM_DTYPE)
    c = CrossedProductTriple(base, 3)
    before = crossed_product_spectrum(c).tolist()
    base["value"][0] = math.nan
    base["multiplicity"][1] = 0
    assert crossed_product_spectrum(c).tolist() == before
    assert not c.base.flags.writeable
    pairs = CrossedProductTriple(((1.0, 1), (2.5, 2), (0.0, 1)), 3)
    assert c == pairs and hash(c) == hash(pairs) and len({c, pairs}) == 1
    assert c != CrossedProductTriple(((1.0, 1), (2.5, 2), (0.0, 1)), 4)
    assert c != CrossedProductTriple(((1.0, 1), (2.5, 2)), 3)


def test_crossed_grid_size_is_refused_before_allocating():
    limit = triples.CROSSED_MAX_POINTS
    assert limit == 1 << 24
    triples.check_crossed_size(limit)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameter) as err:
            CrossedProductTriple(((1.0, 1),), limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.witness == limit + 1
    assert peak < 1 << 20  # the grid alone would take 128 MB


def test_crossed_half_and_fit_peak_per_point():
    """At quadratic 1000 x 1000 nearly every value is distinct, so the
    folded half is as large as the grid; the fold and the fit each peak
    at no more than 40 B per grid point, the half's own 16 included."""
    c = CrossedProductTriple(tuple((float(j * j), 1) for j in range(1, 1001)), 999)
    points = len(c.base) * (c.cutoff + 1)
    tracemalloc.start()
    try:
        half = triples.crossed_product_half(c)
        half_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        summability_exponent_fit(half)
        fit_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(half) > 0.99 * points
    assert half_peak <= 40 * points
    assert fit_peak <= 40 * points


def test_crossed_empty_base_with_any_cutoff():
    c = CrossedProductTriple((), 10**21)
    assert len(c.spectrum()) == len(triples.crossed_product_half(c)) == 0


def test_slope_linear_base():
    base = tuple((float(j), 1) for j in range(1, 201))
    fit = summability_exponent_fit(crossed_product_spectrum(
        CrossedProductTriple(base, 200)))
    assert fit.slope == pytest.approx(2.0, abs=0.15)


def test_slope_quadratic_base():
    base = tuple((float(j * j), 1) for j in range(1, 41))
    fit = summability_exponent_fit(crossed_product_spectrum(
        CrossedProductTriple(base, 1600)))
    assert fit.slope == pytest.approx(1.5, abs=0.15)


def test_slope_zero_base():
    fit = summability_exponent_fit(crossed_product_spectrum(
        CrossedProductTriple(((0.0, 1),), 200)))
    assert fit.slope == pytest.approx(1.0, abs=0.1)


def test_slope_shift_by_one():
    base = tuple((float(j), 1) for j in range(1, 201))
    base_fit = summability_exponent_fit(base)
    crossed_fit = summability_exponent_fit(crossed_product_spectrum(
        CrossedProductTriple(base, 200)))
    assert crossed_fit.slope - base_fit.slope == pytest.approx(1.0, abs=0.15)


def test_slope_requires_enough_values():
    with pytest.raises(InsufficientSpectrum):
        summability_exponent_fit([(1.0, 5), (2.0, 5)])


def test_slope_of_a_window_without_spread_is_refused():
    """A window of one point, or of values whose logarithms are all
    equal, has no slope: InsufficientSpectrum, never inf or nan."""
    with pytest.raises(InsufficientSpectrum):
        summability_exponent_fit([(1.0, 5), (2.0, 5)], min_distinct=1)
    crowded = [(1.0, 1), (1e300, 1), (math.nextafter(1e300, math.inf), 1), (2e300, 1)]
    assert math.log(crowded[1][0]) == math.log(crowded[2][0])
    with pytest.raises(InsufficientSpectrum):
        summability_exponent_fit(crowded, min_distinct=4)


def test_jlo_square_block_vanishes(schottky2):
    t = build_truncation(schottky2, 3)
    assert jlo_phi0(even_double(t), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_jlo_dimension_mismatch():
    assert jlo_phi0(EvenBlock(3, 1), 0.33) == pytest.approx(2.0)
    assert jlo_phi0(EvenBlock(3, 1), 7.0) == pytest.approx(2.0)


def test_jlo_crossed_product_cancels():
    c = CrossedProductTriple(((1.0, 1), (2.0, 2)), 5)
    assert jlo_phi0(c, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_jlo_rejects_odd_input(schottky2):
    with pytest.raises(RequiresEvenTriple):
        jlo_phi0(build_truncation(schottky2, 2), 1.0)


def test_af_even_block():
    af = AFTriple((2, 5, 9), 1.0, 3.0, parity="even")
    block = af.even_block()
    assert block.plus_dim == block.minus_dim == 9
    assert jlo_phi0(block, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_even_couplings_repeat_each_nonzero_eigenvalue(schottky2):
    """|lambda_n| as a float, new_dims[n] times: for the truncation
    lambda_n = n with new dims (4, 8, 24, 72), where level 0 couples
    nothing; for the AF schedule (dim A_n)^3."""
    coupling = even_double(build_truncation(schottky2, 3)).coupling
    assert coupling == (1.0,) * 8 + (2.0,) * 24 + (3.0,) * 72
    block = AFTriple((2, 5, 9), 1.0, 3.0, parity="even").even_block().coupling
    assert block == (8.0,) * 2 + (125.0,) * 3 + (729.0,) * 4
    assert {type(x) for x in coupling + block} == {float}


def test_spectral_norm_matches_dense():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(40, 40))
    assert spectral_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0])


def test_crossed_cutoff_zero():
    c = CrossedProductTriple(((2.0, 1), (3.0, 2)), 0)
    assert crossed_product_spectrum(c).tolist() == [
        (-3.0, 2), (-2.0, 1), (2.0, 1), (3.0, 2)]
    with pytest.raises(InsufficientSpectrum):
        summability_exponent_fit(crossed_product_spectrum(c))


def test_rank3_truncation_relations():
    s3 = full_schottky_sft(3)
    res = build_truncation(s3, 3).ck_residuals()
    assert res["unit_sum"] < 1e-9
    assert max(res["range_relation"]) < 1e-9


def test_grading_operator_validation():
    with pytest.raises(InvalidParameter):
        GradingOperator((1, 2), (0.0,))
    with pytest.raises(InvalidParameter):
        GradingOperator((-1,), (0.0,))
