"""Output checks for every benchmark job.

A job passes when its exit status is the expected one, its output
parses, its relabeling-invariant quantities equal the values recorded
from the seed commit in ``reference.json``, the three golden commands
match ``tests/golden/`` byte for byte, and every floating-point
certificate the code ships holds.  Integers, strings and booleans must
match exactly; floats within REL_TOL relative, or ABS_TOL absolute for
values that are zero up to round-off (such as the commutator norm of a
letter whose weight ignores the next coordinate).  The certificates:

* CK residuals <= 1e-9,
* heat-trace tail bounds < 1e-12,
* two-sided Perron residual < 1e-12 (of a fresh ``perron_data`` call),
* tau residual < 1e-12.

Run ``python3 perfbench/checks.py record`` from the repository root to
rewrite ``reference.json`` from the current code with the identity
relabeling; only do that on the code the references must describe.
"""

from __future__ import annotations

import csv
import hashlib
import io as stdio
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
GOLDEN = Path("tests") / "golden"

REL_TOL = 1e-9
ABS_TOL = 1e-12
CK_RESIDUAL_MAX = 1e-9
TAIL_BOUND_MAX = 1e-12
PERRON_RESIDUAL_MAX = 1e-12
TAU_RESIDUAL_MAX = 1e-12


def _spectra(report: dict) -> dict:
    theta = report["theta"] if isinstance(report["theta"], list) else [report["theta"]]
    return {
        "lambda_max": report["lambda_max"],
        "delta_h": report["delta_h"],
        "theta": [[row["t"], row["partial"]] for row in theta],
        "zeta": report["zeta"],
        "norms_sorted": sorted(c["norm"] for c in report["commutators"]),
        "depths_sorted": sorted(c["k_i"] for c in report["commutators"]),
    }


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _digest(items: list) -> dict:
    """Count and sha256 of a list taken as a multiset."""
    text = "\n".join(sorted(json.dumps(item) for item in items))
    return {"count": len(items), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _building(report: dict) -> dict:
    out = {"cover": report["cover"],
           "alphabet": len(report["presentation"]["alphabet"]),
           "words": len(report["presentation"]["words"])}
    for key in ("validation", "polyhedron"):
        if key in report:
            out[key] = report[key]
    if "stable_pairs" in report:
        out["stable_pairs"] = {"ok": report["stable_pairs"]["ok"],
                               "witnesses": len(report["stable_pairs"]["witnesses"])}
    if "bm" in report:
        bm = report["bm"]
        out["bm"] = {"valences": bm["valences"],
                     "generators": [sorted(bm["horizontal_generators"]),
                                    sorted(bm["vertical_generators"])],
                     "relations": _digest(bm["relations"])}
    return out


def invariants(job, out: bytes) -> dict:
    """Relabeling-invariant content of a job's output."""
    text = out.decode()
    if job.fmt == "csv":
        rows = csv.DictReader(stdio.StringIO(text))
        return {"rows": [{k: _cell(v) for k, v in row.items()} for row in rows]}
    if job.fmt == "table":
        lines = [line.split() for line in text.splitlines()]
        return {"header": lines[0], "rows": [[_cell(v) for v in row] for row in lines[1:]]}
    report = json.loads(text)
    if "error" in report:
        return {"error": report["error"]["code"]}
    kind = job.subcommand
    if kind == "spectra":
        return _spectra(report)
    if kind == "building":
        return _building(report)
    if kind == "tau":
        return {"x": report["x"]}
    return report  # catalog, ktheory, cohomology, af, crossed, oracle


def certificate_problems(job, out: bytes, perron=None) -> list[str]:
    """Floating-point certificates of the output; ``perron`` is a callable
    returning the two-sided Perron residual and eigenvalue of the job's SFT."""
    if job.fmt != "json":
        return []
    report = json.loads(out)
    problems = []
    if job.subcommand == "spectra":
        ck = report["ck_residuals"]
        worst = max([ck["unit_sum"], *ck["range_relation"]])
        if not worst <= CK_RESIDUAL_MAX:
            problems.append(f"CK residual {worst:.3e} > {CK_RESIDUAL_MAX}")
        theta = report["theta"] if isinstance(report["theta"], list) else [report["theta"]]
        for row in theta:
            if not row["tail_bound"] < TAIL_BOUND_MAX:
                problems.append(f"theta tail bound {row['tail_bound']:.3e} at t={row['t']}")
        if perron is not None:
            residual, value = perron()
            if not residual < PERRON_RESIDUAL_MAX:
                problems.append(f"Perron residual {residual:.3e}")
            if _round12(value) != report["lambda_max"]:
                problems.append(f"lambda_max {report['lambda_max']} is not the "
                                f"certified Perron value {value!r}")
    if job.subcommand == "tau" and not report["residual"] < TAU_RESIDUAL_MAX:
        problems.append(f"tau residual {report['residual']:.3e}")
    return problems


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def perron_residual(sft, data) -> float:
    """Two-sided residual max(||A r - lam r||/||r||, ||A^t l - lam l||/||l||)
    of ``data``, the result of ``perron_data(sft)``, in the sup norm."""
    import numpy as np
    a = np.array(sft.matrix, dtype=float)
    worst = 0.0
    for vec, mat in ((np.array(data.right), a), (np.array(data.left), a.T)):
        worst = max(worst, float(np.abs(mat @ vec - data.value * vec).max()
                                 / np.abs(vec).max()))
    return worst


def compare(expected, actual, path="") -> list[str]:
    """Differences between a reference value and an observed one."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if expected is actual else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or not isinstance(expected, (int, float)):
            return [f"{path}: {actual!r} != {expected!r}"]
        scale = max(abs(expected), abs(actual))
        if abs(actual - expected) <= max(REL_TOL * scale, ABS_TOL):
            return []
        return [f"{path}: {actual!r} differs from {expected!r} by more than "
                f"{REL_TOL:g} relative and {ABS_TOL:g} absolute"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for k in expected for p in compare(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{path}[{i}]")]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check(job, out: bytes, exit_code: int, reference: dict, perron=None) -> list[str]:
    """Every problem with one job's result; an empty list is a pass."""
    if exit_code != job.exit_code:
        return [f"exit status {exit_code}, expected {job.exit_code}"]
    if job.golden is not None:
        golden = (GOLDEN / job.golden).read_bytes()
        if out != golden:
            return [f"output differs from {GOLDEN / job.golden}"]
    try:
        observed = invariants(job, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    if job.name not in reference:
        return [f"no reference for {job.name}"]
    problems = compare(reference[job.name], observed, job.name)
    return problems + certificate_problems(job, out, perron)


def _record() -> None:
    """Write reference.json from the current code, identity relabeling."""
    import os
    import tempfile
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, "src")
    os.environ["PYTHONPATH"] = str(Path("src").resolve())
    import jobs as jobmod
    import worker
    reference = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload, job_list in jobmod.WORKLOADS.items():
            paths = jobmod.write_inputs(workload, None, Path(tmp) / workload)
            for job in job_list:
                if workload in jobmod.IN_PROCESS:
                    out, code = worker.run_in_process(job, paths), 0
                else:
                    out, code, _ = worker.run_subprocess(job, paths, Path(tmp))
                if code != job.exit_code:
                    raise SystemExit(f"{job.name} exited {code}, expected {job.exit_code}")
                reference[job.name] = invariants(job, out)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit("usage: python3 perfbench/checks.py record")
    _record()
