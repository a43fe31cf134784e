import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra import ktheory
from graphspectra.errors import InvalidTransitionMatrix
from graphspectra.graphs import (
    EdgeMatrix,
    cayley_schottky_matrix,
    directed_edge_matrix,
    genus2_catalog,
    kato_graph,
)
from graphspectra.ktheory import (
    AbelianGroup,
    Verdict,
    ck_k_theory,
    determinant,
    exact_rank,
    irreducibility_check,
    is_permutation_matrix,
    smith_normal_form,
    stable_iso_verdict,
)

import oracles
from conftest import DUMBBELL_REFERENCE, THETA_REFERENCE, rnd_matrix
from oracles import identity_matrix, mat_mul

SRC = Path(__file__).parents[1] / "src"


def one_minus_transpose(matrix):
    n = len(matrix)
    return [[int(i == j) - matrix[j][i] for j in range(n)] for i in range(n)]


def check_decomposition(m, snf):
    """The library's invariant factors form a chain of the matrix's rank,
    and equal the oracle's, whose U * M * V is that diagonal with U and V
    unimodular."""
    factors = snf.nonzero_factors()
    assert all(d > 0 for d in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert len(factors) == exact_rank(m)
    reference = oracles.smith_normal_form(m)
    assert snf.diagonal == reference.diagonal
    assert (snf.rows, snf.cols) == (reference.rows, reference.cols)
    recon = reference.reconstruct_diagonal(m)
    for i, row in enumerate(recon):
        for j, value in enumerate(row):
            expected = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
            assert value == expected
    # unimodularity of the transforms
    assert abs(determinant([list(r) for r in reference.left])) == 1
    assert abs(determinant([list(r) for r in reference.right])) == 1


def test_snf_identity():
    snf = smith_normal_form(identity_matrix(3))
    assert snf.diagonal == (1, 1, 1)
    check_decomposition(identity_matrix(3), snf)


def test_snf_diag_2_3():
    m = [[2, 0], [0, 3]]
    snf = smith_normal_form(m)
    # gcd/lcm oracle for a pair of coprime factors
    assert snf.diagonal == (gcd(2, 3), 2 * 3 // gcd(2, 3)) == (1, 6)
    check_decomposition(m, snf)


def test_snf_rank2_presentation_matrix():
    m = one_minus_transpose(cayley_schottky_matrix(2).matrix)
    snf = smith_normal_form(m)
    assert snf.diagonal == (1, 1, 0, 0)
    check_decomposition(m, snf)


def test_snf_empty():
    snf = smith_normal_form([])
    assert snf.diagonal == ()
    assert smith_normal_form([[], []]) == ((), 2, 0)


# A pivot x that divides the entry y must take the (1, 0) step: the
# extended-gcd step there (_gcdex(3, 3) is (3, 0, 1)) swaps the columns
# and refills the pivot column, and an elimination that always took it
# looped forever on this matrix.  It runs in a child, so a regression
# fails on the timeout instead of hanging the suite.
_CYCLING = [[-5, 6, 16, -28, 14, -1], [-3, 4, 11, -20, 10, 0]]


def test_snf_divisible_entry_does_not_cycle():
    assert ktheory._gcdex(3, 3) == (3, 0, 1)
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys\n"
         "from graphspectra.ktheory import smith_normal_form\n"
         "print(smith_normal_form(eval(sys.argv[1])).diagonal)", repr(_CYCLING)],
        env=environ, capture_output=True, text=True, timeout=30, check=True)
    assert result.stdout == "(1, 1)\n"
    check_decomposition(_CYCLING, smith_normal_form(_CYCLING))


def test_snf_idempotent_on_diagonal():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    snf = smith_normal_form(m)
    again = smith_normal_form([[snf.diagonal[i] if i == j else 0 for j in range(3)]
                               for i in range(3)])
    assert again.diagonal == snf.diagonal
    check_decomposition(m, snf)


def test_exact_rank_against_fraction_elimination():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert exact_rank(m) == _fraction_rank(m) == 2


def _fraction_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                factor = m[i][col] / m[rank][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("matrix", [
    cayley_schottky_matrix(2).matrix,
    THETA_REFERENCE,
    DUMBBELL_REFERENCE,
])
def test_k_groups_of_genus2_matrices(matrix):
    k0, k1 = ck_k_theory(matrix)
    assert k0 == AbelianGroup(2)
    assert k1 == AbelianGroup(2)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_k_groups_full_shift(n):
    # classical: the full n-shift algebra has K0 = Z/(n-1), K1 = 0
    k0, k1 = ck_k_theory([[1] * n for _ in range(n)])
    expected = AbelianGroup(0, (n - 1,)) if n > 2 else AbelianGroup(0)
    assert k0 == expected
    assert k1 == AbelianGroup(0)


def test_k_groups_zero_matrix():
    k0, k1 = ck_k_theory([[0]])
    assert k0 == AbelianGroup(0)
    assert k1 == AbelianGroup(0)
    assert str(k0) == "0"


def test_k_theory_rejects_bad_input():
    with pytest.raises(InvalidTransitionMatrix):
        ck_k_theory([[1, 0]])
    with pytest.raises(InvalidTransitionMatrix):
        ck_k_theory([[2, 0], [0, 1]])
    # a fractional entry is not truncated to 0 or 1
    good = [[1, 1], [1, 0]]
    for fn in (ck_k_theory, irreducibility_check, is_permutation_matrix,
               lambda a: stable_iso_verdict(a, good),
               lambda a: stable_iso_verdict(good, a)):
        for rows, witness in (([[1.5]], (1.5,)), ([[0.7, 1], [1, 0]], (0.7, 1))):
            with pytest.raises(InvalidTransitionMatrix) as err:
                fn(rows)
            assert err.value.witness == witness


def test_irreducibility():
    assert irreducibility_check(cayley_schottky_matrix(2).matrix)
    assert irreducibility_check(THETA_REFERENCE)
    assert not irreducibility_check([[1, 0], [0, 1]])
    assert not irreducibility_check([[0]])
    assert irreducibility_check([[1]])


def test_permutation_matrix_detection():
    assert is_permutation_matrix([[0, 1], [1, 0]])
    assert not is_permutation_matrix(cayley_schottky_matrix(2).matrix)


def test_stable_iso_verdicts():
    a1 = cayley_schottky_matrix(2).matrix
    assert stable_iso_verdict(a1, THETA_REFERENCE) is Verdict.STABLY_ISOMORPHIC
    assert stable_iso_verdict(a1, DUMBBELL_REFERENCE) is Verdict.STABLY_ISOMORPHIC
    identity = [[1, 0], [0, 1]]
    assert stable_iso_verdict(identity, a1) is Verdict.INCONCLUSIVE


def test_kato_family_stably_isomorphic():
    mats = [directed_edge_matrix(kato_graph(r)) for r in (1, 2)]
    assert stable_iso_verdict(mats[0], mats[1]) is Verdict.STABLY_ISOMORPHIC


def test_k0_free_rank_equals_k1_rank():
    for g in genus2_catalog():
        k0, k1 = ck_k_theory(directed_edge_matrix(g))
        assert k0.rank == k1.rank


def test_k_theory_invariant_under_permutation():
    a1 = [list(r) for r in cayley_schottky_matrix(2).matrix]
    perm = [2, 0, 3, 1]
    permuted = [[a1[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
    assert ck_k_theory(a1) == ck_k_theory(permuted)


def test_determinant_matches_factor_product():
    m = [[4, 2], [1, 3]]
    snf = smith_normal_form(m)
    product = 1
    for d in snf.diagonal:
        product *= d
    assert abs(determinant(m)) == product


def _leibniz(m):
    """The determinant as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(m[i][j] for i, j in enumerate(perm))
    return total


def test_determinant_and_rank_against_oracles():
    """Sparse entries force row swaps and rank deficiency, so the sign of
    the swaps and the zero below full rank are both exercised."""
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(0, 4)
        m = [[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == _leibniz(m)
        if n:
            assert exact_rank(m) == _fraction_rank(m)
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([]) == 1


def test_snf_medium_sparse_matrix():
    import random
    rng = random.Random(12)
    m = [[rng.randint(-3, 3) if rng.random() < 0.3 else 0 for _ in range(24)]
         for _ in range(24)]
    snf = smith_normal_form(m)
    check_decomposition(m, snf)
    product = 1
    for d in snf.diagonal:
        product *= d
    assert abs(determinant(m)) == product


def test_mat_mul_shapes():
    """The oracle's product, which its U * M * V check rests on."""
    a = [[1, 2], [3, 4]]
    b = [[1, 0], [0, 1]]
    assert mat_mul(a, b) == a
    assert mat_mul([[1, 2, 3]], [[1], [0], [2]]) == [[7]]
    assert mat_mul([[1], [2]], [[3, 4]]) == [[3, 4], [6, 8]]


@st.composite
def zero_one_matrices(draw, max_letters=10):
    """Random 0/1 matrices of <= max_letters letters: independent random
    entries, chain-heavy (most letters have exactly one successor, as in
    a subdivided graph), or all ones."""
    n = draw(st.integers(0, max_letters))
    shape = draw(st.sampled_from(["random", "chains", "ones"]))
    if shape == "ones":
        return [[1] * n for _ in range(n)]
    bit = st.integers(0, 1)
    if shape == "random":
        return [[draw(bit) for _ in range(n)] for _ in range(n)]
    rows = []
    for _ in range(n):
        if draw(st.integers(0, 3)):  # a chain letter: one successor
            successor = draw(st.integers(0, n - 1))
            rows.append([int(j == successor) for j in range(n)])
        else:
            rows.append([draw(bit) for _ in range(n)])
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=zero_one_matrices())
def test_k_groups_match_dense_smith(a):
    """ck_k_theory against the oracle's Smith form of all of 1 - A^t."""
    n = len(a)
    snf = oracles.smith_normal_form(one_minus_transpose(a))
    free = n - snf.rank()
    torsion = tuple(d for d in snf.nonzero_factors() if d > 1)
    assert ck_k_theory(a) == (AbelianGroup(free, torsion), AbelianGroup(free))
    if n > 2 and all(all(row) for row in a):
        assert ck_k_theory(a)[0] == AbelianGroup(0, (n - 1,))


@st.composite
def integer_matrices(draw):
    """Rectangular integer matrices from 0 x 0 to 8 x 8 (rows x 0 too):
    independent entries, sparse ones, or a product B * C through an inner
    dimension up to the smaller side, so that zero and rank-deficient
    matrices are common."""
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    shape = draw(st.sampled_from(["dense", "sparse", "product"]))
    if shape == "product":
        inner = draw(st.integers(0, min(rows, cols)))
        small = st.integers(-5, 5)
        b = [[draw(small) for _ in range(inner)] for _ in range(rows)]
        c = [[draw(small) for _ in range(cols)] for _ in range(inner)]
        return [[sum(b[i][t] * c[t][j] for t in range(inner)) for j in range(cols)]
                for i in range(rows)]
    entry = (st.integers(-30, 30) if shape == "dense"
             else st.sampled_from((0, 0, 0, 1, -1, 2, -3, 6)))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(m=integer_matrices())
def test_snf_matches_the_transform_tracking_oracle(m):
    snf = smith_normal_form(m)
    reference = oracles.smith_normal_form(m)
    assert snf.diagonal == reference.diagonal
    assert snf.rank() == exact_rank(m)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=integer_matrices())
def test_invariant_factors_divide_the_last_bareiss_pivot(m):
    """The premise of working modulo D: d_1 ... d_r divides the r x r
    minor that the last Bareiss pivot is, up to sign."""
    rank, _, pivot = ktheory._bareiss(m)
    factors = oracles.smith_normal_form(m).nonzero_factors()
    assert len(factors) == rank
    assert pivot != 0 and pivot % math.prod(factors) == 0


@pytest.mark.parametrize("n", [120, 200])
def test_k_groups_of_seeded_random_matrices_match_the_oracle(monkeypatch, n):
    """rnd 120 and rnd 200 leave remainders of 17 x 17 and 29 x 29 with
    no unit entry, and the transform-tracking Smith form of that
    remainder gives the same K-groups."""
    a = rnd_matrix(n)
    shapes = []

    def oracle(m):
        shapes.append((len(m), len(m[0]) if m else 0))
        return oracles.smith_normal_form(m)

    got = ck_k_theory(a)
    monkeypatch.setattr(ktheory, "smith_normal_form", oracle)
    assert ck_k_theory(a) == got
    assert shapes[0][0] > 10 and got[0].torsion


def test_kato20_smith_sees_at_most_a_2x2_remainder(monkeypatch):
    shapes = []

    def recording(m):
        shapes.append((len(m), len(m[0]) if m else 0))
        return smith_normal_form(m)

    monkeypatch.setattr(ktheory, "smith_normal_form", recording)
    k0, k1 = ck_k_theory(directed_edge_matrix(kato_graph(20)))
    assert (k0, k1) == (AbelianGroup(2), AbelianGroup(2))
    assert shapes and all(rows <= 2 and cols <= 2 for rows, cols in shapes)


def test_k_groups_of_kato80():
    em = directed_edge_matrix(kato_graph(80))
    assert em.size == 972
    assert ck_k_theory(em) == (AbelianGroup(2), AbelianGroup(2))


def _reaches_everything(rows) -> bool:
    """Strong connectivity from the transitive closure of the rows
    (Warshall), independent of the cached successor lists."""
    n = len(rows)
    reach = [[bool(x) for x in row] for row in rows]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [x or y for x, y in zip(reach[i], reach[k])]
    return n > 0 and all(all(row) for row in reach)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=zero_one_matrices(8))
def test_raw_rows_and_the_matrix_type_agree(a):
    n = len(a)
    em = EdgeMatrix.from_rows(tuple(map(tuple, a)), tuple(f"l{i}" for i in range(n)))
    for i in range(n):
        assert em.succ[i] == tuple(j for j in range(n) if a[i][j])
        assert em.pred[i] == tuple(j for j in range(n) if a[j][i])
    assert em.row_sums() == [sum(row) for row in a]
    assert ck_k_theory(a) == ck_k_theory(em)
    assert irreducibility_check(a) == irreducibility_check(em) == _reaches_everything(a)
    is_permutation = (all(sum(row) == 1 for row in a)
                      and all(sum(col) == 1 for col in zip(*a)))
    assert is_permutation_matrix(a) == is_permutation_matrix(em) == is_permutation
