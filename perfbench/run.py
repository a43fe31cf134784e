"""graphspectra benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src``.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
Set-up (interpreter start, ``import graphspectra``, writing the seeded
input files) is measured SETUP_SAMPLES times in fresh processes and
reported as the median ``setup_s``.  The workload process then runs at
least three passes over its job list, one job at a time, and stops
before a pass would end after ``--seconds``; ``wall_s`` and
``top_rung_s`` are medians over passes.  Every time is in reference
seconds (raw seconds scaled by the host's current speed, see
``speed.py``); the raw times are in the result file.  With ``--trace 1``
it runs one untraced and one traced pass and reports the per-layer
metrics of ``spans.LAYER_METRICS`` instead.

Every job's output is checked (see ``checks.py``).  Human-readable
metric lines come first; the last line of stdout is the JSON result.
A full record of the run goes to ``.perfbench/results/``.  BLAS and
OpenMP threads are pinned to 1 in every process the benchmark starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as jobmod
import spans
import speed
from baseline import summarize

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 170.0
THREAD_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
ROADMAP_IMPORT_S = (0.31, 0.31)


class BenchmarkError(Exception):
    pass


def _environment(root: Path) -> dict:
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    return env


def _worker(args, root: Path, workdir: Path, extra: list[str]) -> tuple[dict, object, float]:
    """Start a workload process; returns its JSON result, its resource
    usage and the monotonic time it was launched."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    out_path = workdir.with_suffix(".out")
    err_path = workdir.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(command, cwd=root, env=_environment(root),
                                stdout=out, stderr=err, start_new_session=True)
        deadline = launched + WORKER_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise BenchmarkError(f"workload process exceeded {WORKER_TIMEOUT_S} s")
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_text(), err_path.read_text()
    out_path.unlink()
    err_path.unlink()
    if proc.returncode != 0 or not stdout.strip():
        raise BenchmarkError(f"workload process exited {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1]), usage, launched


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(args, root: Path) -> dict:
    base = root / ".perfbench"
    run_dir = base / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    setup, raw_setup, imports = [], [], []
    after = speed.kernel_median_s(speed.SUBPROCESS_ENDS)
    for k in range(SETUP_SAMPLES):
        before = after
        probe, _, launched = _worker(args, root, run_dir / f"probe{k}", ["--setup-only"])
        after = speed.kernel_median_s(speed.SUBPROCESS_ENDS)
        raw_setup.append(probe["ready"] - launched)
        setup.append(speed.scaled(raw_setup[-1], before, after))
        imports.append(probe["package_import_s"])
    result, usage, _ = _worker(args, root, run_dir / "work", [])
    if not Path(result["graphspectra"]).is_relative_to(root / "src"):
        raise BenchmarkError(f"imported graphspectra from {result['graphspectra']}, "
                             f"not from {root / 'src'}")
    run_dir.rmdir()

    passes = result["passes"]
    in_process = args.workload in jobmod.IN_PROCESS
    rss_kb = usage.ru_maxrss if in_process else result["child_rss_kb"]
    attempted, failed = result["attempted"], result["failed"]
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "top_rung_s": (statistics.median(p["top_rung_s"] for p in passes), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(root),
        "source_sha256": _source_digest(root), "versions": result["versions"],
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "thread_pin": THREAD_PIN,
        "load": "closed loop, one client, one job at a time",
        "graphspectra": result["graphspectra"],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "fail_ratio": failed / attempted,
        "setup_samples_s": setup, "raw_setup_samples_s": raw_setup,
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "raw_top_rung_s": statistics.median(p["raw_top_rung_s"] for p in passes),
        "reference_kernel": {"nominal_s": speed.NOMINAL_S}, "passes": passes,
        "attempted": attempted, "failed": failed, "problems": result["problems"],
        "baseline_rows": [summarize("import graphspectra", "fresh interpreter",
                                    ROADMAP_IMPORT_S, imports)]
        + result.get("baseline_rows", []),
    }
    if args.trace:
        traced = result["traced"]
        record["traced"] = traced
        record["per_layer"] = traced["layers"]
    return record


def _save(root: Path, args, record: dict) -> Path:
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
                      f"-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path.relative_to(root)


def _show(args, record: dict) -> dict:
    """Print one workload's problems, baseline rows and metrics; returns
    the metrics of the result line."""
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for row in record["baseline_rows"]:
        print(f"baseline {row['path']} [{row['size']}]: median {row['median']:.4g} s "
              f"(q1 {row['q1']:.4g}, q3 {row['q3']:.4g}); ROADMAP {row['roadmap_s']}"
              + (" FLAGGED" if row["flagged"] else ""))
    if args.trace:
        metrics = {}
        for metric, unit, _, moves, on in spans.LAYER_METRICS:
            value = record["per_layer"][metric]
            metrics[metric] = {"value": value, "unit": unit}
            print(f"{metric:42s} {value:12.6g} {unit:5s} moves {moves} on {on}")
        return metrics
    shown = {**record["end_to_end"],
             "fail_ratio": {"value": record["fail_ratio"], "unit": "ratio"}}
    for metric, entry in shown.items():
        print(f"{metric:12s} {entry['value']:.6g} {entry['unit']}")
    return record["end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*jobmod.WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=jobmod.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in ("src/graphspectra/__init__.py", "tests/golden")
               if not (root / p).exists()]
    if missing:
        print(f"not a graphspectra checkout (missing {', '.join(missing)}); run from "
              "the repository root", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(jobmod.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            record = measure(one, root)
        except BenchmarkError as exc:
            print(f"benchmark failed on {name}: {exc}", file=sys.stderr)
            return 1
        path = _save(root, one, record)
        print(f"== {name} (results: {path})")
        shown = _show(one, record)
        metrics.update(shown if len(names) == 1
                       else {f"{name}.{k}": v for k, v in shown.items()})
        attempted += record["attempted"]
        failed += record["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
