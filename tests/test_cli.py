import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from graphspectra import buildings, cli, graphs, io, ktheory, shift, triples
from graphspectra.cli import execute, main, parse_invocation, render_plan
from graphspectra.errors import UsageError
from graphspectra.io import emit

from conftest import rnd_matrix

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"


def run_cli(argv, capsysbinary):
    code = main(argv)
    out = capsysbinary.readouterr().out
    return code, out


def test_ktheory_golden(capsysbinary):
    code, out = run_cli(["ktheory", "--matrix", str(DATA / "a1.json")], capsysbinary)
    assert code == 0
    assert json.loads(out) == {"k0": {"rank": 2, "torsion": []}, "k1": {"rank": 2}}
    assert out == (GOLDEN / "ktheory_a1.json").read_bytes()


def test_tau_golden(capsysbinary):
    code, out = run_cli(["tau", "--weights", "2,2,2,2,2"], capsysbinary)
    assert code == 0
    payload = json.loads(out)
    assert payload["x"] == pytest.approx(1.38848, abs=1e-5)
    assert out == (GOLDEN / "tau_pentagon.json").read_bytes()


def test_building_golden(capsysbinary):
    code, out = run_cli(["building", "--q", "1", "--cover", "--bm"], capsysbinary)
    assert code == 0
    assert json.loads(out)["bm"]["valences"] == [6, 6]
    assert out == (GOLDEN / "building_q1_cover_bm.json").read_bytes()


def test_building_all_checks_golden(capsysbinary):
    code, out = run_cli(["building", "--q", "4", "--cover", "--validate", "--links",
                         "--stable-pairs", "--bm"], capsysbinary)
    assert code == 0
    assert out == (GOLDEN / "building_q4_all.json").read_bytes()


def test_building_duplicate_continuation_golden(capsysbinary):
    code, out = run_cli(["building", "--file", str(DATA / "duplicate_continuation.json"),
                         "--validate", "--links"], capsysbinary)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "PresentationInvalid"
    assert out == (GOLDEN / "building_duplicate_continuation.json").read_bytes()


def test_goldens_bit_stable(capsysbinary):
    for argv in (["ktheory", "--matrix", str(DATA / "a1.json")],
                 ["tau", "--weights", "2,2,2,2,2"],
                 ["building", "--q", "1", "--cover", "--bm"]):
        _, first = run_cli(argv, capsysbinary)
        _, second = run_cli(argv, capsysbinary)
        assert first == second


def test_ktheory_csv_matrix(capsysbinary):
    code, out = run_cli(["ktheory", "--matrix", str(DATA / "a1.csv")], capsysbinary)
    assert code == 0
    assert json.loads(out)["k0"]["rank"] == 2


def test_ktheory_compare(capsysbinary):
    code, out = run_cli(["ktheory", "--matrix", str(DATA / "a1.json"),
                         "--compare", str(DATA / "theta_edge.json")], capsysbinary)
    assert code == 0
    assert json.loads(out)["verdict"] == "StablyIsomorphic"


def test_catalog_golden(capsysbinary):
    code, out = run_cli(["catalog"], capsysbinary)
    assert code == 0
    assert out == (GOLDEN / "catalog.json").read_bytes()


def test_ktheory_csv_compared_with_json_golden(capsysbinary):
    code, out = run_cli(["ktheory", "--matrix", str(DATA / "a1.csv"),
                         "--compare", str(DATA / "theta_edge.json")], capsysbinary)
    assert code == 0
    assert out == (GOLDEN / "ktheory_a1csv_vs_theta.json").read_bytes()


@pytest.mark.parametrize("subcommand", ["spectra", "cohomology"])
def test_unpaired_involution_letter_is_a_documented_error(subcommand, capsysbinary):
    # the pair [0, 1] leaves letter 2 without an inverse
    code, out = run_cli([subcommand, "--matrix", str(DATA / "unpaired_involution.json")],
                        capsysbinary)
    assert (code, json.loads(out)) == (2, {"error": {"code": "InvalidTransitionMatrix",
                                                     "witness": "(1, 0, None)"}})


def test_no_cli_path_builds_the_dense_matrix_view(monkeypatch, capsysbinary):
    argvs = [["catalog"],
             ["ktheory", "--matrix", str(DATA / "a1.json"),
              "--compare", str(DATA / "theta_edge.json")],
             ["spectra", "--matrix", str(DATA / "theta_edge.json"), "--levels", "4"],
             ["cohomology", "--matrix", str(DATA / "red9.json"), "--levels", "5"],
             ["af"]]
    expected = [run_cli(argv, capsysbinary) for argv in argvs]

    def forbidden(self):
        raise AssertionError("dense transition-matrix rows on a CLI path")
    monkeypatch.setattr(graphs.EdgeMatrix, "matrix", property(forbidden))
    assert [code for code, _ in expected] == [0] * len(argvs)
    assert [run_cli(argv, capsysbinary) for argv in argvs] == expected
    assert expected[0][1] == (GOLDEN / "catalog.json").read_bytes()
    assert expected[3][1] == (GOLDEN / "cohomology_red9_5.json").read_bytes()


def test_ktheory_compare_checks_and_reduces_each_matrix_once(capsysbinary, monkeypatch):
    calls = {"check": 0, "reduce": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # every EdgeMatrix is validated once, in __new__
    monkeypatch.setattr(graphs.EdgeMatrix, "__new__",
                        counted("check", graphs.EdgeMatrix.__new__))
    monkeypatch.setattr(ktheory, "ck_k_theory", counted("reduce", ktheory.ck_k_theory))
    code, out = run_cli(["ktheory", "--matrix", str(DATA / "a1.json"),
                         "--compare", str(DATA / "theta_edge.json")], capsysbinary)
    assert (code, json.loads(out)["verdict"]) == (0, "StablyIsomorphic")
    assert calls == {"check": 2, "reduce": 2}


def test_spectra_on_a_permutation_shift_converges(tmp_path, capsysbinary):
    """Past level 0 the 2-cycle has no words to add: its zeta sum converges
    and the heat trace has no tail."""
    path = tmp_path / "swap.json"
    path.write_text('{"matrix": [[0, 1], [1, 0]]}')
    code, out = run_cli(["spectra", "--matrix", str(path)], capsysbinary)
    assert code == 0
    report = json.loads(out)
    assert report["zeta"] == {"s": 2.0, "partial": 2.0, "diagnosis": "Convergent"}
    assert (report["theta"]["partial"], report["theta"]["tail_bound"]) == (2.0, 0.0)


def test_spectra_report(capsysbinary):
    code, out = run_cli(["spectra", "--genus", "2", "--levels", "3",
                         "--t", "1.0", "--s", "2.0"], capsysbinary)
    assert code == 0
    report = json.loads(out)
    assert report["lambda_max"] == pytest.approx(3.0)
    assert report["theta"]["partial"] == pytest.approx(7.3915, abs=1e-3)
    assert report["theta"]["tail_bound"] < 1e-12
    assert report["zeta"]["diagnosis"] == "Divergent"
    assert len(report["commutators"]) == 4
    assert report["ck_residuals"]["unit_sum"] < 1e-9


def test_spectra_with_twist(tmp_path):
    """spectra has no --twist: nothing in its report read the twist, so
    the option is a usage error, with empty stderr."""
    code, out, stderr, loaded = _fresh_run(
        tmp_path, ["spectra", "--genus", "2", "--levels", "3", "--twist", "1,0,3,2"])
    assert (code, stderr) == (64, b"")
    assert json.loads(out) == {"error": {"code": "UsageError",
                                         "witness": "unrecognized arguments: --twist 1,0,3,2"}}
    assert loaded["libraries"] == []


def test_spectra_matrix_input(capsysbinary):
    code, out = run_cli(["spectra", "--matrix", str(DATA / "theta_edge.json"),
                         "--levels", "3"], capsysbinary)
    assert code == 0
    assert json.loads(out)["lambda_max"] == pytest.approx(2.0)


def test_theta_sweep_csv_header(capsysbinary):
    code, out = run_cli(["spectra", "--genus", "2", "--levels", "3",
                         "--t", "0.5,1.0,2.0", "--format", "csv"], capsysbinary)
    assert code == 0
    assert out.decode().splitlines()[0] == "t,partial,tail_bound"
    assert len(out.decode().splitlines()) == 4


def test_af_report(capsysbinary):
    code, out = run_cli(["af", "--genus", "2", "--levels", "5",
                         "--p", "1.0", "--q", "3.0"], capsysbinary)
    assert code == 0
    report = json.loads(out)
    assert report["dims"][0] == 4
    assert report["termwise_ok"] and report["partials_ok"]


def test_crossed_report(capsysbinary):
    code, out = run_cli(["crossed", "--count", "80", "--cutoff", "80"], capsysbinary)
    assert code == 0
    assert json.loads(out)["slope"] == pytest.approx(2.0, abs=0.15)


def test_crossed_golden(capsysbinary):
    code, out = run_cli(["crossed", "--base", "quadratic", "--count", "500",
                         "--cutoff", "500"], capsysbinary)
    assert code == 0
    assert out == (GOLDEN / "crossed_quadratic_500.json").read_bytes()


def test_crossed_quadratic_12000_golden(capsysbinary):
    """Rows j^2 with j > 9741 have lambda^2 + 50^2 >= 2**53: the last
    2,259 rows take the math.hypot path."""
    code, out = run_cli(["crossed", "--base", "quadratic", "--count", "12000",
                         "--cutoff", "50"], capsysbinary)
    assert code == 0
    assert out == (GOLDEN / "crossed_quadratic_12000_50.json").read_bytes()


def test_crossed_takes_no_hypot_on_integer_rows(monkeypatch, capsysbinary):
    def forbidden(*args):
        raise AssertionError("math.hypot on an exact integer row")
    monkeypatch.setattr(math, "hypot", forbidden)
    code, out = run_cli(["crossed", "--base", "quadratic", "--count", "500",
                         "--cutoff", "500"], capsysbinary)
    assert code == 0
    assert out == (GOLDEN / "crossed_quadratic_500.json").read_bytes()


@pytest.mark.parametrize("argv, points", [
    (["--count", str(triples.CROSSED_MAX_POINTS + 1), "--cutoff", "0"],
     triples.CROSSED_MAX_POINTS + 1),
    (["--base", "zero", "--cutoff", str(triples.CROSSED_MAX_POINTS)],
     triples.CROSSED_MAX_POINTS + 1),
    (["--count", "100000", "--cutoff", "100000"], 100000 * 100001),
])
def test_crossed_oversized_grid_is_refused(argv, points, capsys):
    """Checked before the base tuple or the grid is built."""
    tracemalloc.start()
    try:
        code = main(["crossed", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert json.loads(captured.out) == {"error": {"code": "InvalidParameter",
                                                  "witness": str(points)}}
    assert peak < 1 << 20


def test_crossed_empty_base_is_insufficient(capsysbinary):
    code, out = run_cli(["crossed", "--count", "0", "--cutoff", str(10**21)],
                        capsysbinary)
    assert (code, json.loads(out)) == (2, {"error": {"code": "InsufficientSpectrum",
                                                     "witness": "0"}})


@pytest.mark.parametrize("argv, witness", [
    (["crossed", "--count", "-5"], "-5"),
    (["crossed", "--base", "zero", "--count", "-7", "--cutoff", "100"], "-7"),
    (["af", "--genus", "2", "--levels", "0"], "0"),
    (["af", "--genus", "2", "--levels", "-5"], "-5"),
    (["af", "--genus", "2", "--levels", "0", "--format", "csv"], "0"),
    (["af", "--genus", "2", "--levels", "-5", "--format", "csv"], "-5"),
], ids=["count-5", "zero-count-7", "levels0", "levels-5", "levels0-csv",
        "levels-5-csv"])
def test_negative_count_and_empty_af_schedule_are_refused(monkeypatch, capsys,
                                                          argv, witness):
    """A negative crossed count is not an empty base, and an af run needs
    a level: both are refused before the base is built or a level stepped."""
    def forbidden(*args):
        raise AssertionError("built before the option was checked")
    monkeypatch.setattr(cli, "_base_spectrum", forbidden)
    monkeypatch.setattr(triples, "af_core_dims", forbidden)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert json.loads(captured.out) == {"error": {"code": "InvalidParameter",
                                                  "witness": witness}}


def test_cohomology_report(capsysbinary):
    code, out = run_cli(["cohomology", "--genus", "2", "--levels", "2"], capsysbinary)
    assert code == 0
    assert json.loads(out)["dims"] == [9, 25]


def test_catalog_table(capsysbinary):
    code, out = run_cli(["catalog", "--format", "table"], capsysbinary)
    assert code == 0
    text = out.decode()
    assert "Z^2" in text
    assert "dumbbell" in text


def test_building_validate_links(capsysbinary):
    code, out = run_cli(["building", "--q", "1", "--validate", "--links"],
                        capsysbinary)
    assert code == 0
    report = json.loads(out)
    assert report["validation"]["ok"] is True
    assert report["polyhedron"]["vertices"] == 1
    assert report["polyhedron"]["links_complete_bipartite"] == [True]


def test_building_q32_all_checks_digest(capsysbinary):
    """Orbit and link order at a size the q = 4 golden cannot show: the
    stdout of every building check at q = 32 (16,384 cover words), pinned
    by its SHA-256."""
    code, out = run_cli(["building", "--q", "32", "--cover", "--validate",
                         "--links", "--stable-pairs", "--bm"], capsysbinary)
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == (
        "b8489048f8daa9f22ba0ff3cc834f81f10a1a7c80b3b2342cc8e28c327acc96c")


def test_building_q16_all_checks_digest(capsysbinary):
    """The stdout of every building check at q = 16 (4,096 cover words, the
    benchmark's building job), pinned by its SHA-256."""
    code, out = run_cli(["building", "--q", "16", "--cover", "--validate",
                         "--links", "--stable-pairs", "--bm"], capsysbinary)
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == (
        "cca1bf150a108769f6bb4441dd185eabace724fcacca89e02d4b580b12f0c808")


@pytest.mark.parametrize("argv, code, witness", [
    (["building", "--file", "empty_word.json"], "PresentationInvalid", "()"),
    (["spectra", "--genus", "2", "--levels", "3", "--t", "nan"],
     "InvalidParameter", "nan"),
    (["spectra", "--genus", "2", "--levels", "3", "--t", "1.0,inf"],
     "InvalidParameter", "inf"),
    (["spectra", "--genus", "2", "--levels", "3", "--s", "nan"],
     "InvalidParameter", "nan"),
    (["af", "--genus", "2", "--levels", "3", "--p", "nan"],
     "SummabilityViolation", "nan"),
    (["af", "--genus", "2", "--levels", "3", "--q", "nan"],
     "SummabilityViolation", "(1.0, nan)"),
    (["building", "--file", "repeated_letter.json"], "PresentationInvalid", "'a'"),
    (["building", "--file", "float_letter.json"], "PresentationInvalid", "2.0"),
    (["building", "--file", "float_lambda.json"], "PresentationInvalid",
     "basic bijection must be a bijection on the alphabet"),
], ids=["empty-word", "t-nan", "t-inf", "s-nan", "p-nan", "q-nan",
        "alphabet-repeats-a-letter", "word-letter-of-another-type",
        "lambda-letter-of-another-type"])
def test_bad_value_is_a_documented_error(tmp_path, monkeypatch, capsysbinary,
                                         argv, code, witness):
    (tmp_path / "empty_word.json").write_text(json.dumps(
        {"alphabet": ["a"], "lambda": [["a", "A"]], "words": [[]]}))
    (tmp_path / "repeated_letter.json").write_text(json.dumps(
        {"alphabet": ["a", "a"], "lambda": [["a", "A"], ["a", "B"]],
         "words": [["a", "a", "a"]]}))
    (tmp_path / "float_letter.json").write_text(json.dumps(
        {"alphabet": [1, 2], "lambda": [[1, 10], [2, 20]], "words": [[1, 2.0, 1]]}))
    (tmp_path / "float_lambda.json").write_text(json.dumps(
        {"alphabet": [1, 2], "lambda": [[1, 10], [2.0, 20]], "words": [[1, 2, 1]]}))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    assert json.loads(captured.out) == {"error": {"code": code, "witness": witness}}


def test_building_from_file(tmp_path, capsysbinary):
    code, out = run_cli(["building", "--q", "1"], capsysbinary)
    pres = json.loads(out)["presentation"]
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    code, out = run_cli(["building", "--file", str(path), "--validate"], capsysbinary)
    assert code == 0
    assert json.loads(out)["validation"]["rotation_closure"] is True


def test_building_file_validate_skips_incidence_scan(tmp_path, capsysbinary,
                                                     monkeypatch):
    """A --file presentation has no link graphs to compare with, so the
    incidence condition is neither checked nor reported."""
    code, out = run_cli(["building", "--q", "2"], capsysbinary)
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(json.loads(out)["presentation"]))

    def refused(*args):
        raise AssertionError("incidence scan")
    monkeypatch.setattr(buildings, "_incidence", refused)
    code, out = run_cli(["building", "--file", str(path), "--validate"], capsysbinary)
    assert code == 0
    assert json.loads(out)["validation"] == {
        "rotation_closure": True, "incidence": None,
        "unique_continuation": True, "ok": True}


def test_module_error_json(tmp_path, capsysbinary):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [[1, 0]]}))
    code, out = run_cli(["ktheory", "--matrix", str(bad)], capsysbinary)
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["code"] == "InvalidTransitionMatrix"
    assert "witness" in payload["error"]


@pytest.mark.parametrize("subcommand", ["spectra", "cohomology"])
def test_csv_and_json_matrix_errors_agree(tmp_path, capsysbinary, subcommand):
    (tmp_path / "bad.csv").write_text("1,2\n1,1\n")
    (tmp_path / "bad.json").write_text(json.dumps({"matrix": [[1, 2], [1, 1]]}))
    results = [run_cli([subcommand, "--matrix", str(tmp_path / name)], capsysbinary)
               for name in ("bad.csv", "bad.json")]
    assert results[0] == results[1]
    code, out = results[0]
    assert code == 2
    assert json.loads(out) == {"error": {"code": "InvalidTransitionMatrix",
                                         "witness": "(1, 2)"}}


@pytest.mark.parametrize("subcommand", ["ktheory", "spectra", "cohomology"])
@pytest.mark.parametrize("rows, witness", [
    ([[1, 2], [1, 1]], "(1, 2)"),
    ([[1, 0], [1]], "(1,)"),
], ids=["entry-not-0-1", "ragged"])
def test_matrix_error_witness_is_the_row_in_every_subcommand(
        tmp_path, capsysbinary, subcommand, rows, witness):
    (tmp_path / "bad.json").write_text(json.dumps({"matrix": rows}))
    code, out = run_cli([subcommand, "--matrix", str(tmp_path / "bad.json")],
                        capsysbinary)
    assert code == 2
    assert json.loads(out) == {"error": {"code": "InvalidTransitionMatrix",
                                         "witness": witness}}


@pytest.mark.parametrize("subcommand", ["ktheory", "spectra", "cohomology"])
def test_label_count_is_checked_in_every_subcommand(tmp_path, capsysbinary, subcommand):
    (tmp_path / "bad.json").write_text(json.dumps({"matrix": [[1, 1], [1, 1]],
                                                   "labels": ["a"]}))
    code, out = run_cli([subcommand, "--matrix", str(tmp_path / "bad.json")],
                        capsysbinary)
    assert code == 2
    assert json.loads(out) == {"error": {"code": "InvalidTransitionMatrix",
                                         "witness": "label count does not match matrix"}}


# Matrix files at the edge of what the dense text reader accepts, each
# with the verdict json.loads gives it: (exit code, error code, witness),
# "{path}" standing for the file's path, or None for the output of
# _GOOD_MATRIX.  Keyed by subcommand where ktheory and spectra differ.
_GOOD_MATRIX = '{"matrix": [[1, 1], [1, 0]]}'
_BOUNDARY = {
    "cell-float": ('{"matrix": [[1.0, 1], [1, 0]]}', (2, "InvalidInput", "[1.0, 1]")),
    "cell-true": ('{"matrix": [[true, 1], [1, 0]]}', (2, "InvalidInput", "[True, 1]")),
    "cell-2": ('{"matrix": [[1, 2], [1, 0]]}', (2, "InvalidTransitionMatrix", "(1, 2)")),
    "cell-minus-zero": ('{"matrix": [[1, 1], [1, -0]]}', None),
    "cell-01": ('{"matrix": [[1, 1], [1, 01]]}', (2, "InvalidInput", "{path}")),
    "cell-string": ('{"matrix": [[1, "1"], [1, 0]]}', (2, "InvalidInput", "[1, '1']")),
    "ragged-row": ('{"matrix": [[1, 1], [1]]}', (2, "InvalidTransitionMatrix", "(1,)")),
    "empty-row": ('{"matrix": [[1, 1], []]}', (2, "InvalidTransitionMatrix", "()")),
    "empty-matrix": ('{"matrix": []}', {
        "ktheory": (0, {"k0": {"rank": 0, "torsion": []}, "k1": {"rank": 0}}),
        "spectra": (2, "RequiresIrreducible", "transition matrix must be irreducible")}),
    "nested-array": ('{"matrix": [[1, [1]], [1, 0]]}', (2, "InvalidInput", "[1, [1]]")),
    "bom": ("\ufeff" + _GOOD_MATRIX, (2, "InvalidInput", "{path}")),
    "top-level-array": ("[[1, 1], [1, 0]]", (2, "InvalidInput", "{path}")),
    "trailing-text": (_GOOD_MATRIX + " x", (2, "InvalidInput", "{path}")),
    "trailing-comma": ('{"matrix": [[1, 1], [1, 0]],}', (2, "InvalidInput", "{path}")),
    "labels-first": ('{"labels": ["0", "1"], "matrix": [[1, 1], [1, 0]]}', None),
    "labels-first-short": ('{"labels": ["a"], "matrix": [[1, 1], [1, 0]]}',
                           (2, "InvalidTransitionMatrix", "label count does not match matrix")),
    "labels-not-array": ('{"matrix": [[1, 1], [1, 0]], "labels": "ab"}',
                         (2, "InvalidInput", "'labels'")),
    "missing-matrix": ('{"labels": ["a", "b"]}', (2, "InvalidInput", "'matrix'")),
    "later-matrix-bad": ('{"matrix": [[1, 1], [1, 0]], "matrix": [[1, 1], [2, 0]]}',
                         (2, "InvalidTransitionMatrix", "(2, 0)")),
    "later-matrix-good": ('{"matrix": [[1, 2], [1, 0]], "matrix": [[1, 1], [1, 0]]}', None),
}


@pytest.mark.parametrize("subcommand", ["ktheory", "spectra"])
@pytest.mark.parametrize("case", list(_BOUNDARY))
def test_matrix_file_boundary_keeps_the_json_verdict(tmp_path, capsysbinary, subcommand,
                                                     case):
    """A file the text reader does not accept in full is read by json.loads,
    so its exit code and error are those json.loads leads to."""
    text, verdict = _BOUNDARY[case]
    verdict = verdict.get(subcommand) if isinstance(verdict, dict) else verdict
    path = tmp_path / "m.json"
    path.write_bytes(text.encode())
    code, out = run_cli([subcommand, "--matrix", str(path)], capsysbinary)
    if verdict is None:
        (tmp_path / "good.json").write_text(_GOOD_MATRIX)
        assert (code, out) == run_cli([subcommand, "--matrix", str(tmp_path / "good.json")],
                                      capsysbinary)
    elif len(verdict) == 2:
        assert (code, json.loads(out)) == verdict
    else:
        exit_code, error, witness = verdict
        witness = witness.replace("{path}", repr(str(path)))
        assert (code, json.loads(out)) == (exit_code, {"error": {"code": error,
                                                                 "witness": witness}})


def test_level_below_range_is_an_invalid_parameter(capsys):
    code = main(["cohomology", "--genus", "2", "--levels", "0"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert json.loads(captured.out) == {"error": {"code": "InvalidParameter",
                                                  "witness": "0"}}


@pytest.mark.parametrize("name", ["numeric_letters.json", "no_superscripts.json"])
def test_building_without_superscript_classes(name, capsysbinary):
    path = str(DATA / name)
    code, out = run_cli(["building", "--file", path, "--stable-pairs"], capsysbinary)
    assert code == 0
    assert json.loads(out)["stable_pairs"] == {
        "ok": False,
        "witnesses": ["alphabet is not partitioned into superscript classes 1..4"]}
    code, out = run_cli(["building", "--file", path, "--bm"], capsysbinary)
    assert code == 2
    assert json.loads(out) == {"error": {
        "code": "NotBMReducible",
        "witness": "alphabet is not partitioned into superscript classes 1..4"}}


def test_bm_word_witnesses_render_as_words(tmp_path, capsysbinary):
    cover = buildings.four_fold_cover(buildings.family_presentation(1))
    first, *rest = cover.words
    swapped = [x for x in cover.alphabet if x.endswith("^3") and x not in first][0]
    first = tuple(swapped if x.endswith("^3") else x for x in first)
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({"alphabet": list(cover.alphabet),
                                "lambda": [list(pair) for pair in cover.lam],
                                "words": [list(w) for w in [first, *rest]]}))
    witnesses = buildings.stable_pairs_check(io.load_presentation(str(path))).witnesses
    assert witnesses and not isinstance(witnesses[0], str)
    code, out = run_cli(["building", "--file", str(path), "--bm"], capsysbinary)
    assert code == 2
    assert json.loads(out) == {"error": {"code": "NotBMReducible",
                                         "witness": repr(witnesses)}}


@pytest.mark.parametrize("weight", [10 ** 9, 10 ** 400], ids=["1e9", "1e400"])
def test_tau_with_a_weight_past_float_range(weight, capsysbinary):
    code, out = run_cli(["tau", "--weights", f"{weight},2,2,2,2"], capsysbinary)
    assert code == 0
    assert json.loads(out)["residual"] < 1e-12


def test_degenerate_tau_error(capsysbinary):
    code, out = run_cli(["tau", "--weights", "2,2,2,2"], capsysbinary)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "DegenerateEuclidean"


def test_usage_error_names_flag(capsysbinary):
    code, out = run_cli(["ktheory", "--matrix", str(DATA / "a1.json"),
                         "--no-such-flag"], capsysbinary)
    assert code == 64
    payload = json.loads(out)
    assert payload["error"]["code"] == "UsageError"
    assert "--no-such-flag" in payload["error"]["witness"]


def test_usage_error_missing_required(capsysbinary):
    code, out = run_cli(["ktheory"], capsysbinary)
    assert code == 64
    assert "--matrix" in json.loads(out)["error"]["witness"]


def test_parser_is_built_once_and_parses_afresh(capsysbinary):
    """The parser is cached per process, and one parse leaves nothing
    behind for the next: no option, and no change to a usage error."""
    assert cli._build_parser() is cli._build_parser()
    assert parse_invocation(["spectra", "--genus", "2"]).option("genus") == 2
    plan = parse_invocation(["spectra", "--matrix", "F"])
    assert dict(plan.options) == {"matrix": "F", "levels": 6, "t": "1.0", "s": 2.0}
    bad = ["spectra", "--genus", "two"]
    with pytest.raises(UsageError) as fresh:
        cli._build_parser.__wrapped__().parse_args(bad)
    code, out = run_cli(bad, capsysbinary)
    assert code == 64
    assert json.loads(out) == {"error": {"code": "UsageError",
                                         "witness": fresh.value.witness}}


def test_out_file(tmp_path, capsysbinary):
    target = tmp_path / "report.json"
    code, _ = run_cli(["tau", "--weights", "2,2,2,2,2", "--out", str(target)],
                      capsysbinary)
    assert code == 0
    assert json.loads(target.read_text())["x"] == pytest.approx(1.38848, abs=1e-5)


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["ktheory", "--matrix", "a1.json"],
    ["spectra", "--genus", "2", "--levels", "4", "--t", "0.5,1.0"],
    ["af", "--genus", "2", "--levels", "5", "--p", "1.0", "--q", "3.0"],
    ["crossed", "--base", "linear", "--count", "10", "--cutoff", "20"],
    ["cohomology", "--genus", "2", "--levels", "2"],
    ["building", "--q", "2", "--cover", "--bm", "--format", "table"],
    ["tau", "--weights", "2,3,4,5,6", "--format", "csv"],
])
def test_plan_round_trip(argv):
    plan = parse_invocation(argv)
    assert parse_invocation(render_plan(plan)) == plan


def test_unsupported_format():
    report = {"a": 1}
    with pytest.raises(Exception):
        emit(report, "yaml")


def test_execute_matches_cli(capsysbinary):
    plan = parse_invocation(["cohomology", "--genus", "2", "--levels", "1"])
    report, _ = execute(plan)
    assert report == {"dims": [9]}


def test_spectra_heat_trace_past_float_range(capsysbinary):
    # rank 3 climbs to 512 levels, whose multiplicities leave float range
    argv = ["spectra", "--genus", "3", "--levels", "2", "--t"]
    code = main(argv + ["0.001"])
    captured = capsysbinary.readouterr()
    assert code == 0 and captured.err == b""
    theta = json.loads(captured.out)["theta"]
    assert 0 < theta["partial"] < float("inf")
    code = main(argv + ["0.00001"])
    captured = capsysbinary.readouterr()
    assert code == 2 and captured.err == b""
    assert json.loads(captured.out)["error"] == {"code": "InvalidParameter",
                                                 "witness": "1e-05"}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_spectra_json_is_strict_when_the_tail_diverges(capsysbinary):
    code, out = run_cli(["spectra", "--genus", "2", "--levels", "3", "--t", "0.001"],
                        capsysbinary)
    assert code == 0
    theta = json.loads(out, parse_constant=_reject_constant)["theta"]
    assert theta["tail_bound"] == "Infinity"


def test_emit_names_every_non_finite_float():
    out = emit({"values": [float("inf"), float("-inf"), float("nan"), 1.5]}, "json")
    assert json.loads(out, parse_constant=_reject_constant) == {
        "values": ["Infinity", "-Infinity", "NaN", 1.5]}


def _count_calls(monkeypatch, name, *modules) -> list:
    """Record every call of shift.<name>, as seen from each module."""
    calls = []
    fn = getattr(shift, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_spectra_computes_perron_data_once(monkeypatch, capsysbinary):
    calls = _count_calls(monkeypatch, "perron_data", shift, triples)
    code, _ = run_cli(["spectra", "--genus", "2", "--levels", "3",
                       "--t", "0.01,0.05,0.2,1.0"], capsysbinary)
    assert code == 0
    assert len(calls) == 1


def _kato_file(tmp_path, r) -> str:
    """Matrix file of the edge shift of kato_graph(r)."""
    em = graphs.directed_edge_matrix(graphs.kato_graph(r))
    path = tmp_path / f"kato{r}.json"
    path.write_text(json.dumps({"matrix": [list(row) for row in em.matrix],
                                "labels": list(em.labels)}))
    return str(path)


def test_spectra_word_enumerations_do_not_grow_with_the_alphabet(
        tmp_path, monkeypatch, capsysbinary):
    """spectra lays out no basis: no word table at 24 or 72 letters."""
    calls = _count_calls(monkeypatch, "word_table", shift, triples)
    letters = []
    for r in (1, 5):
        code, out = run_cli(["spectra", "--matrix", _kato_file(tmp_path, r),
                             "--levels", "6"], capsysbinary)
        assert code == 0
        letters.append(len(json.loads(out)["commutators"]))
    assert letters == [24, 72]
    assert calls == []


def test_spectra_computes_one_grading_certificate(monkeypatch, capsysbinary):
    """The heat traces at every --t and the zeta sum share one growth
    certificate and one stepping of the word counts, out to the 512
    levels the doubling loop reaches at t = 0.001."""
    argv = ["spectra", "--genus", "2", "--levels", "3", "--t", "0.001,0.01,0.2,1.0"]
    expected = run_cli(argv, capsysbinary)
    made, stepped = [], []
    init, vectors = triples.SFTGradings.__init__, triples.word_count_vectors

    def counted_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    def counted_vectors(s):
        for vec in vectors(s):
            stepped.append(len(vec))
            yield vec

    def forbidden(*args, **kwargs):
        raise AssertionError("a grading built per level count")
    monkeypatch.setattr(triples.SFTGradings, "__init__", counted_init)
    monkeypatch.setattr(triples, "word_count_vectors", counted_vectors)
    monkeypatch.setattr(triples, "grading_from_sft", forbidden)
    assert run_cli(argv, capsysbinary) == expected
    assert expected[0] == 0
    assert json.loads(expected[1])["theta"][0]["tail_bound"] == "Infinity"
    assert len(made) == 1
    assert len(stepped) == 513


def _arrays(nested) -> list:
    """The numpy arrays in nested tuples and lists."""
    if hasattr(nested, "flags"):
        return [nested]
    return [array for part in nested for array in _arrays(part)]


@pytest.mark.parametrize("source, level", [
    (["--genus", "2"], 5),
    (["--matrix", str(DATA / "theta_edge.json")], 9),
    (["--matrix", str(DATA / "kato3.json")], 7),
], ids=["genus-2", "theta-edge", "kato3"])
def test_spectra_derives_each_shift_array_once(monkeypatch, capsysbinary, source, level):
    """One spectra run builds the successor arrays once and the
    predecessor arrays once, and both level certificates read one
    frontier walk of N-1 steps (N yields, level 0 needing none).  Every
    array the run shares through the SFT or the Perron data is
    read-only."""
    argv = ["spectra", *source, "--levels", str(level)]
    expected = run_cli(argv, capsysbinary)
    built, walks, perrons = [], [], []
    init, paths, perron_data = graphs._Rows.__init__, triples._paths, shift.perron_data

    def counted_init(rows, lists):
        built.append((rows, lists))
        init(rows, lists)

    def counted_paths(s):
        walks.append(0)
        for frontier in paths(s):
            walks[-1] += 1
            yield frontier

    def kept_perron(s):
        perrons.append(perron_data(s))
        return perrons[-1]
    monkeypatch.setattr(graphs._Rows, "__init__", counted_init)
    monkeypatch.setattr(triples, "_paths", counted_paths)
    monkeypatch.setattr(shift, "perron_data", kept_perron)
    assert run_cli(argv, capsysbinary) == expected
    assert expected[0] == 0
    s = shift.full_schottky_sft(2) if source[0] == "--genus" else io.load_sft(source[1])
    assert [lists for _, lists in built] == [s.succ, s.pred]
    assert walks == [level]
    # kato3 has chain letters, so its Perron solves build both contractions
    contracted = [vars(rows).get("_contraction", ()) for rows, _ in built]
    assert [bool(c) for c in contracted] == [source[-1].endswith("kato3.json")] * 2
    shared = _arrays([perrons[0].arrays[:2], contracted,
                      [(rows.degree, rows.first, rows.cols, rows.rows) for rows, _ in built]])
    for array in shared:
        with pytest.raises(ValueError):
            array[...] = 0


@pytest.mark.parametrize("levels", ["12", "20000", "1000000"])
def test_spectra_past_the_word_budget_is_a_documented_error(monkeypatch, capsysbinary,
                                                            levels):
    """The witness is the first word count past the budget (length 13):
    counts of the rank-2 shift never fall, so longer words are not counted."""
    monkeypatch.delenv("GRAPHSPECTRA_WORD_BUDGET", raising=False)
    code, out = run_cli(["spectra", "--genus", "2", "--levels", levels], capsysbinary)
    assert code == 2
    assert json.loads(out) == {"error": {"code": "EnumerationBudgetExceeded",
                                         "witness": "2125764"}}


@pytest.mark.parametrize("source, levels", [
    (["--genus", "2"], (30, 200, 645)),
    (["--matrix", str(DATA / "theta_edge.json")], (300, 1022)),
], ids=["genus-2", "theta-edge"])
def test_ck_residuals_stay_at_rounding_at_every_level(monkeypatch, capsysbinary,
                                                      source, levels):
    """The CK residuals are operator norms of diagonal relations, so they
    do not grow with the basis: with the word budget past float range,
    both stay within a few ulp of 0 up to the last level that runs."""
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", str(10 ** 400))
    for level in levels:
        code, out = run_cli(["spectra", *source, "--levels", str(level)], capsysbinary)
        assert code == 0
        residuals = json.loads(out)["ck_residuals"]
        assert max([residuals["unit_sum"], *residuals["range_relation"]]) <= 1e-15


@pytest.mark.parametrize("source, last, sha256", [
    (["--genus", "2"], 645,
     "9e5d4b7d1029a2944ccf0dc0b7c2b5b996848bdcc37df37ec535f100be880946"),
    (["--matrix", str(DATA / "theta_edge.json")], 1022,
     "5bf3208cdd4d31167b932f08e2fbc7ecac7855e5d2cab3fbe305d32a192e290b"),
], ids=["genus-2", "theta-edge"])
def test_spectra_past_float_range_is_a_documented_error(monkeypatch, capsysbinary,
                                                        source, last, sha256):
    """With the word budget past float range, the last level whose
    eigenspace dimensions all convert to float runs and prints these
    bytes; from the next level on, the level is refused as
    InvalidParameter, with nothing on stderr and before the grading is
    stepped."""
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", str(10 ** 400))
    code, out = run_cli(["spectra", *source, "--levels", str(last)], capsysbinary)
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == sha256

    def refused(*args, **kwargs):
        raise AssertionError("spectra worked past the float-range check")
    monkeypatch.setattr(triples, "SFTGradings", refused)
    for level in (last + 1, last + 60):
        main(["spectra", *source, "--levels", str(level)])
        captured = capsysbinary.readouterr()
        assert json.loads(captured.out) == {"error": {"code": "InvalidParameter",
                                                      "witness": str(level)}}
        assert captured.err == b""


def test_float_overflow_bound_is_the_least_int_float_refuses():
    float(triples._FLOAT_OVERFLOW - 1)
    with pytest.raises(OverflowError):
        float(triples._FLOAT_OVERFLOW)


@pytest.mark.parametrize("argv", [
    ["--levels", "11", "--t", "nan"],
    ["--levels", "11", "--t", "1.0,nan"],
    ["--levels", "11", "--s", "nan"],
    ["--levels", "12", "--s", "nan"],  # past the word budget as well
], ids=["t-nan", "second-t-nan", "s-nan", "s-nan-over-budget"])
def test_spectra_checks_t_and_s_before_any_work(monkeypatch, capsysbinary, argv):
    def refused(*args, **kwargs):
        raise AssertionError("spectra worked before checking --t and --s")
    monkeypatch.setattr(shift, "perron_data", refused)
    monkeypatch.setattr(triples, "build_truncation", refused)
    code, out = run_cli(["spectra", "--genus", "2", *argv], capsysbinary)
    assert code == 2
    assert json.loads(out) == {"error": {"code": "InvalidParameter", "witness": "nan"}}


def test_spectra_commutator_norms_take_no_operator_norm(tmp_path, monkeypatch,
                                                        capsysbinary):
    argvs = [["spectra", "--genus", "2", "--levels", "5"],
             ["spectra", "--matrix", _kato_file(tmp_path, 5)]]
    expected = [run_cli(argv, capsysbinary) for argv in argvs]

    def forbidden(*args, **kwargs):
        raise AssertionError("operator norm on the spectra path")
    monkeypatch.setattr(triples, "spectral_norm", forbidden)
    monkeypatch.setattr(triples.SpectralTruncation, "commutator", forbidden)
    assert [code for code, _ in expected] == [0, 0]
    assert [run_cli(argv, capsysbinary) for argv in argvs] == expected


def test_cohomology_takes_no_exact_rank(tmp_path, monkeypatch, capsysbinary):
    def forbidden(*args, **kwargs):
        raise AssertionError("coboundary matrix rank on the cohomology path")
    monkeypatch.setattr(ktheory, "exact_rank", forbidden)
    monkeypatch.setattr(shift, "coboundary_matrix", forbidden)
    # count(n) = 2g(2g-1)^(n-1) words, so dim = 2g(2g-2)(2g-1)^(n-1) + 1;
    # theta's 6 letters each have 2 successors
    for argv, dims in [
            (["--genus", "2", "--levels", "6"], [9, 25, 73, 217, 649, 1945]),
            (["--genus", "3", "--levels", "4"], [25, 121, 601, 3001]),
            (["--matrix", str(DATA / "theta_edge.json"), "--levels", "6"],
             [7, 13, 25, 49, 97, 193])]:
        code, out = run_cli(["cohomology", *argv], capsysbinary)
        assert (code, json.loads(out)) == (0, {"dims": dims})

    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", "100")
    code, out = run_cli(["cohomology", "--genus", "2", "--levels", "6"], capsysbinary)
    assert (code, json.loads(out)["dims"][-1]) == (0, 1945)

    # red8 is reducible but essential (every letter has a predecessor and a
    # successor) with one component, so its dims come from word counts alone;
    # red9 adds a sink letter, and its dims add one count vector per pruning
    # level, whatever the word budget (100 here; red9 has 166 words of length 4)
    with monkeypatch.context() as patch:
        patch.setattr(shift, "enumerate_words", forbidden)
        code, out = run_cli(["cohomology", "--matrix", str(DATA / "red8.json"),
                             "--levels", "50"], capsysbinary)
        red9 = [run_cli(["cohomology", "--matrix", str(DATA / "red9.json"), "--levels", level],
                        capsysbinary) for level in ("3", "11")]
    red8 = io.load_sft(DATA / "red8.json")
    counts = [shift.count_words(red8, n) for n in range(1, 52)]
    dims = json.loads(out)["dims"]
    assert code == 0
    assert dims == [b - a + 1 for a, b in zip(counts, counts[1:])]
    assert dims[:5] == [14, 37, 103, 295, 859]
    assert [code for code, _ in red9] == [0, 0]
    assert json.loads(red9[0][1]) == {"dims": [14, 38, 108]}
    assert hashlib.sha256(red9[1][1]).hexdigest() == (
        "177f2d933b1de8a343281601177a433f956ab0df8aa5a9f576bcc7234d3a1ae5")


def test_cohomology_red9_golden(capsysbinary):
    code, out = run_cli(["cohomology", "--matrix", str(DATA / "red9.json"), "--levels", "5"],
                        capsysbinary)
    assert code == 0
    assert out == (GOLDEN / "cohomology_red9_5.json").read_bytes()


# The word budget limits no cohomology level: red9's words of length n+1
# (9, 22, 59, 166, 471, 1359, ...) pass each of these budgets by level 8,
# and `cohomology --levels 1..8` prints the bytes of the default budget
RED9_BUDGETS = (5, 100, 1000)


@pytest.mark.parametrize("budget", RED9_BUDGETS)
def test_cohomology_red9_budget_table(budget, monkeypatch, capsysbinary):
    def dims_by_level():
        return [run_cli(["cohomology", "--matrix", str(DATA / "red9.json"),
                         "--levels", str(level)], capsysbinary) for level in range(1, 9)]
    monkeypatch.delenv("GRAPHSPECTRA_WORD_BUDGET", raising=False)
    expected = dims_by_level()
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", str(budget))
    assert dims_by_level() == expected
    assert {code for code, _ in expected} == {0}


@pytest.mark.parametrize("argv, golden", [
    (["spectra", "--levels", "7"], "spectra_kato3_7.json"),
    (["cohomology", "--levels", "12"], "cohomology_kato3_12.json"),
], ids=["spectra", "cohomology"])
def test_kato3_goldens(argv, golden, capsysbinary):
    """kato3 is 42 chain letters and 6 branch letters: the goldens whose
    word counts are mostly copied, not summed."""
    code, out = run_cli([*argv, "--matrix", str(DATA / "kato3.json")], capsysbinary)
    assert code == 0
    assert out == (GOLDEN / golden).read_bytes()


def test_cohomology_dims_past_the_digit_cap_are_an_error(monkeypatch, capsysbinary):
    # the g=2 dims 9, 25, 73, 217, 649, 1945 count 2, 2, 3, 3, 4, 4 digits
    # from their bit lengths: 14 through level 5, 18 through level 6
    monkeypatch.setattr(shift, "MAX_COHOMOLOGY_DIGITS", 15)
    code, out = run_cli(["cohomology", "--genus", "2", "--levels", "5"], capsysbinary)
    assert (code, json.loads(out)["dims"]) == (0, [9, 25, 73, 217, 649])
    code, out = run_cli(["cohomology", "--genus", "2", "--levels", "6"], capsysbinary)
    assert (code, json.loads(out)) == (2, {"error": {"code": "InvalidParameter",
                                                     "witness": "6"}})


# Runs the CLI on argv[2:] (or only imports it when there are none) and
# writes to argv[1] the numpy/scipy top-level modules loaded by then
# ("libraries"), the graphspectra submodules ("modules") and whether
# dataclasses, whose import and class building cost a cold start several
# milliseconds, is loaded ("dataclasses").
_PROBE = """
import json, sys
import graphspectra.cli
code = graphspectra.cli.main(sys.argv[2:]) if sys.argv[2:] else 0
with open(sys.argv[1], "w") as handle:
    json.dump({"libraries": sorted({m.split(".")[0] for m in sys.modules}
                                   & {"numpy", "scipy"}),
               "modules": sorted(m.split(".")[1] for m in sys.modules
                                 if m.startswith("graphspectra.")),
               "dataclasses": "dataclasses" in sys.modules}, handle)
sys.exit(code)
"""


def _fresh_run(tmp_path, argv, env=None):
    """(exit code, stdout, stderr, loaded) of the CLI in a fresh interpreter,
    since this process has imported numpy already; loaded holds the probe's
    "libraries" and "modules" lists, or is None when the CLI died before
    reporting them."""
    loaded = tmp_path / "loaded.json"
    environ = dict(os.environ, **(env or {}))
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _PROBE, str(loaded), *argv],
                            cwd=tmp_path, env=environ, capture_output=True)
    return (result.returncode, result.stdout, result.stderr,
            json.loads(loaded.read_text()) if loaded.exists() else None)


_FRONT = ["cli", "errors", "io"]
_KTHEORY = ["cli", "errors", "graphs", "io", "ktheory"]
_TRIPLES = ["cli", "errors", "graphs", "io", "shift", "triples"]
_BUILDINGS = ["buildings", "cli", "errors", "io"]


@pytest.mark.parametrize("argv, code, libraries, modules", [
    ([], 0, [], _FRONT),
    (["bogus"], 64, [], _FRONT),
    (["catalog"], 0, [], _KTHEORY),
    (["ktheory", "--matrix", str(DATA / "a1.json")], 0, [], _KTHEORY),
    (["af", "--genus", "2", "--levels", "6"], 0, [], _TRIPLES),
    (["af", "--genus", "2", "--levels", "7"], 2, [], _TRIPLES),  # word budget
    (["cohomology", "--genus", "2", "--levels", "3"], 0, [],
     ["cli", "errors", "graphs", "io", "shift"]),
    # red9 has a sink letter, so its dims also step one count vector per pruning level
    (["cohomology", "--matrix", str(DATA / "red9.json"), "--levels", "5"], 0, [],
     ["cli", "errors", "graphs", "io", "shift"]),
    (["building", "--q", "1", "--cover", "--bm"], 0, [], _BUILDINGS),
    (["tau", "--weights", "2,2,2,2,2"], 0, [], _BUILDINGS),
    (["crossed"], 0, ["numpy"], _TRIPLES),
    (["spectra", "--genus", "2", "--levels", "3"], 0, ["numpy"], _TRIPLES),
    (["spectra", "--matrix", str(DATA / "a1.json"), "--levels", "3"], 0, ["numpy"],
     _TRIPLES),
], ids=["import", "usage-error", "catalog", "ktheory", "af", "af-budget",
        "cohomology", "cohomology-red9", "building", "tau", "crossed", "spectra", "spectra-matrix"])
def test_cold_start_loads_numpy_and_scipy_only_where_used(tmp_path, argv, code,
                                                          libraries, modules):
    """Each subcommand imports only the graphspectra modules it runs,
    numpy (never scipy) only where it computes with it, and never
    dataclasses."""
    got_code, _, stderr, loaded = _fresh_run(tmp_path, argv)
    assert (got_code, stderr) == (code, b"")
    assert loaded == {"libraries": libraries, "modules": modules, "dataclasses": False}


# Runs the CLI on argv[1:] with its address space limited to 1 GiB, so a
# size check that comes after the allocation fails fast instead of taking
# the host's memory.
_LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import graphspectra.cli
sys.exit(graphspectra.cli.main(sys.argv[1:]))
"""


def _refused_at_once(tmp_path, argv, code):
    """The CLI on argv, under _LIMITED, exits 2 within 0.5 s with empty
    stderr and the error ``code`` with witness 1000000."""
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", _LIMITED, *argv],
                            cwd=tmp_path, env=environ, capture_output=True)
    assert time.perf_counter() - start < 0.5
    assert (result.returncode, result.stderr) == (2, b"")
    assert json.loads(result.stdout) == {"error": {"code": code, "witness": "1000000"}}


@pytest.mark.parametrize("command", ["spectra", "cohomology", "af"])
def test_genus_past_the_transition_limit_is_refused_before_building(tmp_path, command):
    """g = 10^6 has 4 * 10^12 transitions, past MAX_SCHOTTKY_TRANSITIONS:
    each subcommand that builds the free shift exits 2 at once."""
    _refused_at_once(tmp_path, [command, "--genus", "1000000", "--levels", "1"],
                     "InvalidRank")


@pytest.mark.parametrize("options", [[], ["--cover", "--validate"]],
                         ids=["family", "cover"])
def test_q_past_the_family_word_limit_is_refused_before_building(tmp_path, options):
    """q = 10^6 has 4 * 10^12 family words, past MAX_FAMILY_WORDS: the
    building subcommand exits 2 at once, before any cover is made."""
    _refused_at_once(tmp_path, ["building", "--q", "1000000", *options],
                     "InvalidParameter")


def test_ktheory_of_a_seeded_random_300_letter_matrix(tmp_path):
    """rnd 300 leaves a 44 x 44 remainder with no unit entry.  Elimination
    over Z with unimodular transforms did not finish it in 300 s, its
    entries growing without bound; modulo a Bareiss minor a fresh run
    takes about 0.1 s and 16 MB.  Run under _LIMITED with a timeout, a
    regression fails instead of taking the host's memory or hanging."""
    a = rnd_matrix(300)
    (tmp_path / "rnd300.json").write_text(json.dumps({"matrix": a}))
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _LIMITED, "ktheory", "--matrix", "rnd300.json"],
        cwd=tmp_path, env=environ, capture_output=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, b"")
    torsion = [2, 1991738443227706789951085696472]
    assert json.loads(result.stdout) == {"k0": {"rank": 0, "torsion": torsion},
                                         "k1": {"rank": 0}}
    # |K0| = |det(1 - A^t)|, by Bareiss on the whole matrix
    n = len(a)
    one_minus_transpose = [[int(i == j) - a[j][i] for j in range(n)] for i in range(n)]
    assert math.prod(torsion) == abs(ktheory.determinant(one_minus_transpose))


# Runs the CLI on argv[1:] in a child, its stdout discarded, and prints
# the child's peak RSS in KiB: the wrapper's RUSAGE_CHILDREN counts that
# child alone, not the other children of the test process.
_PEAK = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "graphspectra.cli", *sys.argv[1:]],
               stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_spectra_at_level_11_peaks_under_100_mb(tmp_path):
    """The largest g=2 level within the default word budget (dim 708,588)
    lays out no basis: a fresh run peaks under 40 MB (about 30 MB on a
    2-core host).  It peaked at 78 MB with the basis as a word table, and
    at 153 MB while S was stored as CSR arrays; the test keeps its name
    from then."""
    environ = {k: v for k, v in os.environ.items() if k != "GRAPHSPECTRA_WORD_BUDGET"}
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PEAK, "spectra", "--genus", "2", "--levels", "11"],
        cwd=tmp_path, env=environ, capture_output=True, text=True, check=True)
    assert int(result.stdout) < 40 << 10


def test_building_at_q64_peaks_under_90_mb(tmp_path):
    """A fresh q = 64 building run writes 20.6 MB of JSON.  The report is
    emitted as byte pieces written in turn, never as one text and its
    bytes copy: the run peaks at about 73 MB on a 2-core host, where
    joining the text first took it to 103-110 MB."""
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PEAK, "building", "--q", "64", "--cover", "--validate",
         "--links", "--stable-pairs", "--bm"],
        cwd=tmp_path, env=environ, capture_output=True, text=True, check=True)
    assert int(result.stdout) < 90 << 10


def test_spectra_at_level_11_allocates_nothing_of_size_dim(monkeypatch):
    """In process, the whole g=2 N=11 run (dim 708,588) peaks under 5 MB
    of traced allocations: the word table alone would take 8.5 MB."""
    monkeypatch.delenv("GRAPHSPECTRA_WORD_BUDGET", raising=False)
    plan = parse_invocation(["spectra", "--genus", "2", "--levels", "11"])
    tracemalloc.start()
    try:
        report, _ = execute(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["ck_residuals"]["unit_sum"] < 1e-9
    assert peak < 5 << 20


@pytest.mark.parametrize("argv, witness", [
    (["--genus", "2", "--q", "400"], "(1.0, 400.0)"),
    (["--genus", "2", "--q", "29"], "(1.0, 29.0)"),  # (dim A_6)^q fits, its square not
    (["--levels", "3", "--p", "0.1", "--q", "1e308"], "(0.1, 1e+308)"),
], ids=["q400", "q29", "q1e308"])
def test_af_eigenvalue_past_float_range_is_an_error(tmp_path, argv, witness):
    code, out, stderr, _ = _fresh_run(tmp_path, ["af", *argv])
    assert (code, stderr) == (2, b"")
    assert json.loads(out) == {"error": {"code": "InvalidParameter", "witness": witness}}


def test_cohomology_dim_past_the_digit_limit_is_an_error(tmp_path):
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits:
        pytest.skip("this interpreter has no int-to-str digit limit")
    limit = 10 ** digits
    # the first g=2 dim, 8 * 3^(n-1) + 1, with more digits than the interpreter prints
    level = next(n for n in itertools.count(1) if 8 * 3 ** (n - 1) + 1 >= limit)
    code, out, stderr, _ = _fresh_run(
        tmp_path, ["cohomology", "--genus", "2", "--levels", "100000"])
    assert (code, stderr) == (2, b"")
    assert json.loads(out) == {"error": {"code": "InvalidParameter",
                                         "witness": str(level)}}


BAD_FILES = {
    "nomatrix.json": '{"labels": ["a"]}',
    "cell.csv": "0,1\nx,0\n",
    "noalpha.json": '{"lambda": [], "words": []}',
    "broken.json": '{"matrix": ',
    "badinv.json": '{"matrix": [[1, 1], [1, 1]], "involution": [[0, 5]]}',
    "intmatrix.json": '{"matrix": 5}',
    "fraction.json": '{"matrix": [[0.5, 1], [1, 1.9]]}',
    "stringcell.json": '{"matrix": [[1, 1], [1, "1"]]}',
    "boolcell.json": '{"matrix": [[true, 1], [1, 1]]}',
    "nullcell.json": '{"matrix": [[1, 1], [null, 1]]}',
    "intlabels.json": '{"matrix": [[1, 1], [1, 1]], "labels": 5}',
    "intinv.json": '{"matrix": [[1, 1], [1, 1]], "involution": 5}',
    "badlambda.json": '{"alphabet": ["a"], "lambda": [["a"]], "words": []}',
    "intwords.json": '{"alphabet": ["a"], "lambda": [], "words": 5}',
    "intalpha.json": '{"alphabet": 7, "lambda": [], "words": []}',
    "listletter.json": '{"alphabet": [["a"], "b"], "lambda": [], "words": []}',
    "dictletter.json": '{"alphabet": [{"a": 1}, "b"], "lambda": [], "words": []}',
    "wordletter.json": '{"alphabet": ["a", "b"], "lambda": [], "words": [[["a"], "b", "a"]]}',
    "mixedletters.json": '{"alphabet": ["a", 1], "lambda": [], "words": [["a", 1]]}',
    "boolletter.json": '{"alphabet": [1, true], "lambda": [[1, 5], [true, 6]], '
                       '"words": [[1, true, 1]]}',
}


@pytest.mark.parametrize("argv, env, witness", [
    (["ktheory", "--matrix", "nomatrix.json"], {}, "'matrix'"),
    (["ktheory", "--matrix", "cell.csv"], {}, "['x', '0']"),
    (["ktheory", "--matrix", "missing.json"], {}, "'missing.json'"),
    (["ktheory", "--matrix", "missing.csv"], {}, "'missing.csv'"),
    (["ktheory", "--matrix", "broken.json"], {}, "'broken.json'"),
    (["cohomology", "--matrix", "badinv.json"], {}, "[0, 5]"),
    (["building", "--file", "noalpha.json"], {}, "'alphabet'"),
    (["tau", "--weights", "2,x"], {}, "'2,x'"),
    (["spectra", "--genus", "2", "--t", "abc"], {}, "'abc'"),
    (["af", "--genus", "2", "--levels", "6"], {"GRAPHSPECTRA_WORD_BUDGET": "abc"},
     "'abc'"),
    (["cohomology", "--genus", "2", "--levels", "2"], {"GRAPHSPECTRA_WORD_BUDGET": "abc"},
     "'abc'"),
    (["ktheory", "--matrix", "intmatrix.json"], {}, "'matrix'"),
    (["spectra", "--matrix", "intmatrix.json"], {}, "'matrix'"),
    (["ktheory", "--matrix", "fraction.json"], {}, "[0.5, 1]"),
    (["spectra", "--matrix", "fraction.json"], {}, "[0.5, 1]"),
    (["cohomology", "--matrix", "fraction.json"], {}, "[0.5, 1]"),
    (["ktheory", "--matrix", "stringcell.json"], {}, "[1, '1']"),
    (["cohomology", "--matrix", "boolcell.json"], {}, "[True, 1]"),
    (["spectra", "--matrix", "nullcell.json"], {}, "[None, 1]"),
    (["ktheory", "--matrix", "intlabels.json"], {}, "'labels'"),
    (["spectra", "--matrix", "intlabels.json"], {}, "'labels'"),
    (["spectra", "--matrix", "intinv.json"], {}, "'involution'"),
    (["building", "--file", "badlambda.json"], {}, "['a']"),
    (["building", "--file", "intwords.json"], {}, "'words'"),
    (["building", "--file", "intalpha.json"], {}, "'alphabet'"),
    (["building", "--file", "listletter.json"], {}, "['a']"),
    (["building", "--file", "dictletter.json"], {}, "{'a': 1}"),
    (["building", "--file", "wordletter.json"], {}, "['a']"),
    (["building", "--file", "mixedletters.json"], {}, "1"),
    (["building", "--file", "boolletter.json"], {}, "True"),
    (["tau", "--weights", "2,2,2,2,2", "--out", "nodir/x.json"], {},
     "'nodir/x.json'"),
    (["tau", "--weights", "2,2,2,2,2", "--out", "."], {}, "'.'"),
], ids=["json-without-matrix", "csv-cell", "missing-json", "missing-csv",
        "not-json", "involution-out-of-range", "presentation-without-alphabet",
        "tau-weights", "spectra-t", "word-budget-env",
        "cohomology-word-budget-env",
        "ktheory-matrix-not-array", "spectra-matrix-not-array",
        "ktheory-fractional-cell", "spectra-fractional-cell",
        "cohomology-fractional-cell", "ktheory-string-cell",
        "cohomology-boolean-cell", "spectra-null-cell",
        "ktheory-labels-not-array", "spectra-labels-not-array",
        "involution-not-array", "lambda-entry-not-pair", "words-not-array",
        "alphabet-not-array", "letter-is-list", "letter-is-dict",
        "word-letter-is-list", "letters-of-mixed-types", "letter-is-boolean",
        "out-in-missing-directory",
        "out-is-directory"])
def test_bad_input_is_a_documented_error(tmp_path, argv, env, witness):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, stderr, loaded = _fresh_run(tmp_path, argv, env)
    assert (code, stderr) == (2, b"")
    assert json.loads(out) == {"error": {"code": "InvalidInput", "witness": witness}}
    assert loaded["libraries"] == []


@pytest.mark.parametrize("subcommand", ["spectra", "cohomology"])
def test_negative_word_budget_is_a_documented_error(tmp_path, subcommand):
    """A negative budget is refused: by the level check of spectra, and by
    cohomology on the rank-2 shift, whose dims need no words listed."""
    code, out, stderr, _ = _fresh_run(tmp_path, [subcommand, "--genus", "2", "--levels", "3"],
                                      {"GRAPHSPECTRA_WORD_BUDGET": "-1"})
    assert (code, stderr) == (2, b"")
    assert json.loads(out) == {"error": {"code": "InvalidInput", "witness": "'-1'"}}
