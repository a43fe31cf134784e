import math

import numpy as np
import pytest

from graphspectra.errors import (
    EnumerationBudgetExceeded,
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
)

ONE_LETTER = SFTData(((1,),), ("a",))


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


def test_enumeration_budget():
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_words(full_schottky_sft(2), 4, budget=5)


def test_enumeration_budget_env_override(monkeypatch):
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", "5")
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_words(full_schottky_sft(2), 4)
    monkeypatch.delenv("GRAPHSPECTRA_WORD_BUDGET")
    assert len(enumerate_words(full_schottky_sft(2), 4)) == 108


def test_filtration_dims(schottky2):
    fd = filtration_dims(schottky2, 4)
    assert fd.dims == (4, 12, 36, 108, 324)
    assert fd.new_dims() == (4, 8, 24, 72, 216)
    # growth of the new levels: 2g(2g-1)^(n-1)(2g-2), geometric ratio 2g-1
    g = 2
    for n in range(1, 5):
        assert fd.new_dims()[n] == 2 * g * (2 * g - 1) ** (n - 1) * (2 * g - 2)


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
        perron_data(SFTData(((1, 1), (0, 1)), ("a", "b")))


def test_parry_weights(schottky2):
    assert parry_cylinder_measure(schottky2, (0,)) == pytest.approx(0.25, abs=1e-13)
    assert parry_cylinder_measure(schottky2, (0, 1)) == pytest.approx(1 / 12, abs=1e-13)
    with pytest.raises(NotAdmissible):
        parry_cylinder_measure(schottky2, (0, 2))  # letter 2 is the inverse of 0


def test_parry_one_letter_full_shift():
    pm = ParryMeasure(ONE_LETTER)
    assert pm.weight((0, 0, 0)) == pytest.approx(1.0, abs=1e-14)


def test_parry_level_weights(schottky2):
    pm = ParryMeasure(schottky2)
    weights = pm.level_weights(2)
    assert len(weights) == 12
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    assert weights[(0, 1)] == pytest.approx(1 / 12, abs=1e-13)


def test_filtration_dims_validation():
    with pytest.raises(ValueError):
        FiltrationDims((4, 3))


def test_parry_additivity(schottky2, theta_sft):
    for s in (schottky2, theta_sft):
        pm = ParryMeasure(s)
        level1 = sum(pm.weight((a,)) for a in range(s.alphabet_size))
        assert level1 == pytest.approx(1.0, abs=1e-12)
        for w in enumerate_words(s, 2):
            extended = sum(pm.weight(w + (b,)) for b in s.successors(w[-1]))
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


def test_cohomology_monotone_on_catalog(schottky2, theta_sft, dumbbell_sft):
    # empirical observation on the catalog; report rather than assert
    for s in (schottky2, theta_sft, dumbbell_sft):
        dims = cohomology_filtration_dims(s, 4)
        if any(b < a for a, b in zip(dims, dims[1:])):
            print(f"note: cohomology dims not monotone: {dims}")


def test_automorphisms_schottky(schottky2):
    no_involution = SFTData(schottky2.matrix, schottky2.labels)
    assert len(alphabet_automorphisms(no_involution)) == 8
    assert len(alphabet_automorphisms(schottky2)) == 8


def test_automorphisms_identity_matrix():
    s = SFTData(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ("a", "b", "c"))
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


def test_automorphism_cap():
    big = SFTData(tuple(tuple(1 for _ in range(12)) for _ in range(12)),
                  tuple(str(i) for i in range(12)))
    with pytest.raises(EnumerationBudgetExceeded):
        alphabet_automorphisms(big, budget=1000)


def test_involution_validation():
    with pytest.raises(InvalidTransitionMatrix):
        SFTData(((1, 1), (1, 1)), ("a", "b"), (0, 1))  # has fixed points
    with pytest.raises(InvalidTransitionMatrix):
        SFTData(((1, 1), (1, 1)), ("a", "b"), (1, 1))  # not a permutation
