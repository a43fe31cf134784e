import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphspectra import buildings, cli, graphs, io, ktheory, shift, triples
from graphspectra.cli import execute, main, parse_invocation, render_plan
from graphspectra.errors import UsageError
from graphspectra.io import emit

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


def test_ktheory_compare_checks_and_reduces_each_matrix_once(capsysbinary, monkeypatch):
    calls = {"check": 0, "reduce": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # EdgeMatrix.__post_init__ is the one 0/1-square validator
    monkeypatch.setattr(graphs.EdgeMatrix, "__post_init__",
                        counted("check", graphs.EdgeMatrix.__post_init__))
    monkeypatch.setattr(ktheory, "_k_groups", counted("reduce", ktheory._k_groups))
    code, out = run_cli(["ktheory", "--matrix", str(DATA / "a1.json"),
                         "--compare", str(DATA / "theta_edge.json")], capsysbinary)
    assert (code, json.loads(out)["verdict"]) == (0, "StablyIsomorphic")
    assert calls == {"check": 2, "reduce": 2}


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


def test_spectra_with_twist(capsysbinary):
    code, out = run_cli(["spectra", "--genus", "2", "--levels", "3",
                         "--twist", "1,0,3,2"], capsysbinary)
    assert code == 0
    report = json.loads(out)
    assert all(c["norm"] == pytest.approx(1.0, abs=1e-9)
               for c in report["commutators"])


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
], ids=["empty-word", "t-nan", "t-inf", "s-nan", "p-nan", "q-nan"])
def test_bad_value_is_a_documented_error(tmp_path, monkeypatch, capsysbinary,
                                         argv, code, witness):
    (tmp_path / "empty_word.json").write_text(json.dumps(
        {"alphabet": ["a"], "lambda": [["a", "A"]], "words": [[]]}))
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

    def refused(self):
        raise AssertionError("incidence scan")
    monkeypatch.setattr(buildings.PolygonalPresentation, "lam_map", refused)
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
    first, *rest = cover.orbits()
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
    calls = _count_calls(monkeypatch, "word_table", shift, triples)
    counts = {}
    for r in (1, 5):
        before = len(calls)
        code, out = run_cli(["spectra", "--matrix", _kato_file(tmp_path, r),
                             "--levels", "6"], capsysbinary)
        assert code == 0
        counts[len(json.loads(out)["commutators"])] = len(calls) - before
    assert sorted(counts) == [24, 72]
    assert counts[72] == counts[24] == 1


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


def test_spectra_past_the_word_budget_is_a_documented_error(monkeypatch, capsysbinary):
    monkeypatch.delenv("GRAPHSPECTRA_WORD_BUDGET", raising=False)
    code, out = run_cli(["spectra", "--genus", "2", "--levels", "12"], capsysbinary)
    assert code == 2
    assert json.loads(out) == {"error": {"code": "EnumerationBudgetExceeded",
                                         "witness": "2125764"}}


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

    # a reducible shift still takes the exact rank, within the word budget
    monkeypatch.undo()
    monkeypatch.setenv("GRAPHSPECTRA_WORD_BUDGET", "100")
    reducible = tmp_path / "reducible.json"  # full 2-shift feeding a loop
    reducible.write_text(json.dumps({"matrix": [[1, 1, 0], [1, 1, 1], [0, 0, 1]]}))
    code, out = run_cli(["cohomology", "--matrix", str(reducible), "--levels", "3"],
                        capsysbinary)
    assert (code, json.loads(out)) == (0, {"dims": [4, 7, 13]})
    code, out = run_cli(["cohomology", "--matrix", str(reducible), "--levels", "8"],
                        capsysbinary)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "EnumerationBudgetExceeded"


# Runs the CLI on argv[2:] (or only imports it when there are none) and
# writes the numpy/scipy top-level modules loaded by then to argv[1].
_PROBE = """
import json, sys
import graphspectra.cli
code = graphspectra.cli.main(sys.argv[2:]) if sys.argv[2:] else 0
with open(sys.argv[1], "w") as handle:
    json.dump(sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"}),
              handle)
sys.exit(code)
"""


def _fresh_run(tmp_path, argv, env=None):
    """(exit code, stdout, stderr, loaded numpy/scipy) of the CLI in a fresh
    interpreter, since this process has imported numpy already; loaded is
    None when the CLI died before reporting it."""
    loaded = tmp_path / "loaded.json"
    environ = dict(os.environ, **(env or {}))
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _PROBE, str(loaded), *argv],
                            cwd=tmp_path, env=environ, capture_output=True)
    return (result.returncode, result.stdout, result.stderr,
            json.loads(loaded.read_text()) if loaded.exists() else None)


@pytest.mark.parametrize("argv, code, libraries", [
    ([], 0, []),
    (["catalog"], 0, []),
    (["ktheory", "--matrix", str(DATA / "a1.json")], 0, []),
    (["af", "--genus", "2", "--levels", "6"], 0, []),
    (["af", "--genus", "2", "--levels", "7"], 2, []),  # word budget exceeded
    (["cohomology", "--genus", "2", "--levels", "3"], 0, []),
    (["building", "--q", "1", "--cover", "--bm"], 0, []),
    (["tau", "--weights", "2,2,2,2,2"], 0, []),
    (["crossed"], 0, ["numpy"]),
    (["spectra", "--genus", "2", "--levels", "3"], 0, ["numpy"]),
    (["spectra", "--matrix", str(DATA / "a1.json"), "--levels", "3"], 0, ["numpy"]),
], ids=["import", "catalog", "ktheory", "af", "af-budget", "cohomology",
        "building", "tau", "crossed", "spectra", "spectra-matrix"])
def test_cold_start_loads_numpy_and_scipy_only_where_used(tmp_path, argv, code,
                                                          libraries):
    got_code, _, stderr, loaded = _fresh_run(tmp_path, argv)
    assert (got_code, stderr) == (code, b"")
    assert loaded == libraries


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
    (["spectra", "--genus", "2", "--twist", "0,a"], {}, "'0,a'"),
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
    (["tau", "--weights", "2,2,2,2,2", "--out", "nodir/x.json"], {},
     "'nodir/x.json'"),
    (["tau", "--weights", "2,2,2,2,2", "--out", "."], {}, "'.'"),
], ids=["json-without-matrix", "csv-cell", "missing-json", "missing-csv",
        "not-json", "involution-out-of-range", "presentation-without-alphabet",
        "tau-weights", "spectra-t", "spectra-twist", "word-budget-env",
        "cohomology-word-budget-env",
        "ktheory-matrix-not-array", "spectra-matrix-not-array",
        "ktheory-fractional-cell", "spectra-fractional-cell",
        "cohomology-fractional-cell", "ktheory-string-cell",
        "cohomology-boolean-cell", "spectra-null-cell",
        "ktheory-labels-not-array", "spectra-labels-not-array",
        "involution-not-array", "lambda-entry-not-pair", "words-not-array",
        "alphabet-not-array", "letter-is-list", "letter-is-dict",
        "word-letter-is-list", "letters-of-mixed-types", "out-in-missing-directory",
        "out-is-directory"])
def test_bad_input_is_a_documented_error(tmp_path, argv, env, witness):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, stderr, loaded = _fresh_run(tmp_path, argv, env)
    assert (code, stderr) == (2, b"")
    assert json.loads(out) == {"error": {"code": "InvalidInput", "witness": witness}}
    assert loaded == []
