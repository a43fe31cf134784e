"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Criterion 9 is split in two: the closed-form values, and the
enumeration-oracle equivalence of the closed form for g in {2, 3},
m <= 4 (each diagonal of the joint filtration has two boundary cells
whose increments exceed the interior one; see the formula docstring).
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from graphspectra import buildings, graphs, ktheory, shift, triples

A1 = graphs.cayley_schottky_matrix(2)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:2d}] FAIL {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"[criterion {number:2d}] FAIL {description} "
              f"(over budget: {elapsed:.2f}s >= {budget_seconds:g}s)")
        pytest.fail(f"criterion {number} exceeded its {budget_seconds:g}s budget")
    print(f"[criterion {number:2d}] PASS {description} "
          f"({elapsed:.2f}s < {budget_seconds:g}s)")


def test_criterion_01_catalog_k_theory():
    with criterion(1, "K-theory of the genus-2 catalog is (Z^2, Z^2)", 1.0):
        for g in graphs.genus2_catalog():
            k0, k1 = ktheory.ck_k_theory(graphs.directed_edge_matrix(g))
            assert k0 == ktheory.AbelianGroup(2)
            assert k1 == ktheory.AbelianGroup(2)


def test_criterion_02_stable_isomorphism_verdicts():
    with criterion(2, "stable-isomorphism verdicts for the catalog and the "
                      "subdivided family", 1.0):
        cat = [graphs.directed_edge_matrix(g) for g in graphs.genus2_catalog()]
        assert ktheory.stable_iso_verdict(cat[0], cat[1]) is ktheory.Verdict.STABLY_ISOMORPHIC
        assert ktheory.stable_iso_verdict(cat[0], cat[2]) is ktheory.Verdict.STABLY_ISOMORPHIC
        kato = [graphs.directed_edge_matrix(graphs.kato_graph(r))
                for r in range(1, 6)]
        for i in range(len(kato)):
            for j in range(i + 1, len(kato)):
                assert ktheory.stable_iso_verdict(kato[i], kato[j]) \
                    is ktheory.Verdict.STABLY_ISOMORPHIC


def test_criterion_03_ck_relation_residuals():
    with criterion(3, "defining relations hold on levels <= N-1 for N = 4..6",
                   5.0):
        s = shift.full_schottky_sft(2)
        for level in (4, 5, 6):
            res = triples.build_truncation(s, level).ck_residuals()
            assert res["unit_sum"] < 1e-9
            assert max(res["range_relation"]) < 1e-9


def test_criterion_04_commutator_stabilization():
    with criterion(4, "commutator norms agree at N and N+3 below 1e-12", 5.0):
        for s in (shift.full_schottky_sft(2),
                  shift.from_edge_matrix(
                      graphs.directed_edge_matrix(graphs.theta_graph()))):
            small = triples.build_truncation(s, 3)
            large = triples.build_truncation(s, 6)
            norm_small, depth = small.commutator_norm(0)
            norm_large, _ = large.commutator_norm(0)
            assert 3 >= depth + 2
            assert abs(norm_small - norm_large) < 1e-12
            assert abs(triples.spectral_norm(large.commutator(0))
                       - norm_large) < 1e-12


def test_criterion_05_theta_summability():
    with criterion(5, "heat trace converges with certified tail; "
                      "t=1 value 7.3914 +- 1e-3", 1.0):
        s = shift.full_schottky_sft(2)
        grading = triples.grading_from_sft(s, 40)
        for t in (0.5, 1.0, 2.0):
            res = triples.theta_trace(grading, t)
            assert res.converged and res.tail_bound < 1e-12
        assert triples.theta_trace(grading, 1.0).partial == pytest.approx(
            7.3914, abs=1e-3)


def test_criterion_06_not_finitely_summable():
    with criterion(6, "zeta partial sums diagnose Divergent for every s <= 20",
                   1.0):
        grading = triples.grading_from_sft(shift.full_schottky_sft(2), 48)
        for s in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            assert triples.zeta_partial(grading, s).diagnosis == "Divergent"


def test_criterion_07_af_summability(monkeypatch):
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", str(10 ** 9))
    with criterion(7, "filtered-core partial sums stay below the majorant "
                      "termwise (p=1, q=3)", 1.0):
        s = shift.full_schottky_sft(2)
        dims = tuple(level.total for level in triples.af_core_dims(s, 7))
        report = triples.af_summability_report(triples.AFTriple(dims, 1.0, 3.0))
        assert report.termwise_ok
        assert report.partials_ok


def test_criterion_08_crossed_product_degree_shift():
    with criterion(8, "crossed-product counting slope 2.0 +- 0.15 for the "
                      "linear base", 10.0):
        base = tuple((float(j), 1) for j in range(1, 201))
        spectrum = triples.crossed_product_spectrum(
            triples.CrossedProductTriple(base, 200))
        fit = triples.summability_exponent_fit(spectrum)
        assert abs(fit.slope - 2.0) < 0.15


def test_criterion_09_product_dims_formula():
    with criterion(9, "product-of-trees closed form gives 12, 48, 192", 10.0):
        assert buildings.product_grading_dims(2, 2).dims == (12, 48, 192)
        assert buildings.product_grading_dims(3, 1).dims == (30, 240)


def test_criterion_09_product_dims_oracle_equivalence():
    with criterion(9, "closed form equals the enumeration oracle for "
                      "g in {2,3}, m <= 4", 10.0):
        for g in (2, 3):
            formula = buildings.product_grading_dims(g, 4).dims
            oracle = buildings.product_grading_dims_oracle(g, 4)
            assert formula == oracle, (
                f"g={g}: closed form {formula} != enumerated {oracle}; the "
                "closed form must give each diagonal m - 1 interior cells "
                "and the two larger boundary increments that direct "
                "enumeration of corner-compatible word pairs counts.")


def test_criterion_10_buildings():
    with criterion(10, "family validates; cover is stable-pairs; valences "
                       "2(4q-1); links complete bipartite", 5.0):
        for q in (1, 2, 3, 4):
            p = buildings.family_presentation(q)
            assert buildings.validate_presentation(
                p, [buildings.family_link_graph(q)]).ok
            cover = buildings.four_fold_cover(p)
            assert buildings.stable_pairs_check(cover).ok
            bm = buildings.bm_group_data(cover)
            assert bm.valences == (2 * (4 * q - 1), 2 * (4 * q - 1))
            poly = buildings.polyhedron_from_presentation(p)
            assert all(link.is_complete_bipartite() for link in poly.links)


def test_criterion_11_exponent_equation():
    with criterion(11, "exponent roots: residual < 1e-12, closed form to "
                       "1e-10, square degenerate", 1.0):
        for r in range(5, 13):
            for q in (2, 3, 4):
                x = buildings.solve_tau([q] * r)
                assert abs(buildings.tau_lhs([q] * r, x) - 2) < 1e-12
                closed = (r - 2 + math.sqrt(r * r - 4 * r)) / 2
                assert x == pytest.approx(math.log(closed) / math.log(q),
                                          abs=1e-10)
        with pytest.raises(buildings.DegenerateEuclidean):
            buildings.solve_tau([2, 2, 2, 2])


def test_criterion_12_cohomology_ranks():
    with criterion(12, "cohomology dims by exact rank; oracle equivalence "
                       "for n <= 4", 5.0):
        s = shift.full_schottky_sft(2)
        dims = shift.cohomology_filtration_dims(s, 4)
        assert dims[0] == 9
        for n in (1, 2, 3, 4):
            m = shift.coboundary_matrix(s, n)
            exact = ktheory.exact_rank(m)
            floating = int(np.linalg.matrix_rank(np.array(m, dtype=float)))
            assert exact == floating
            assert dims[n - 1] == shift.count_words(s, n + 1) - exact


def test_criterion_13_property_suites():
    with criterion(13, "randomized property suites pass end-to-end", 60.0):
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             str(Path(__file__).parent / "test_properties.py")],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stdout + result.stderr
