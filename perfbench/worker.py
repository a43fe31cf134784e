"""The workload process: set up, run passes over the job list, check
every output, and (traced) record spans and per-layer metrics.

Started by ``run.py`` from the checkout root with ``PYTHONPATH=src`` and
BLAS/OpenMP threads pinned to 1.  One client, closed loop: each job
starts after the previous one ends.  ``--setup-only`` stops once the
first job could run and prints the time it got there.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import graphspectra  # noqa: E402

PACKAGE_IMPORT_S = time.perf_counter() - STARTED

import graphspectra.cli  # noqa: E402

IMPORT_S = time.perf_counter() - STARTED

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from graphspectra import buildings, cli, io, shift  # noqa: E402

import baseline  # noqa: E402
import checks  # noqa: E402
import jobs as jobmod  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
TRACEBACK = b"Traceback (most recent call last)"


def run_in_process(job, paths) -> bytes:
    """One job in this process: parse_invocation -> execute -> emit."""
    if job.name == jobmod.ORACLE:
        dims = buildings.product_grading_dims_oracle(2, 8)
        return (json.dumps({"dims": list(dims)}) + "\n").encode()
    plan = cli.parse_invocation(jobmod.bind(job, paths))
    report, rows = cli.execute(plan)
    return io.emit(report, plan.fmt, rows)


def run_subprocess(job, paths, workdir: Path, spans_file: Path | None = None):
    """One job as a fresh ``python -m graphspectra.cli`` process (the traced
    shim when ``spans_file`` is given); returns stdout, exit status and the
    child's resource usage.  stderr is kept in ``workdir/stderr``."""
    argv = jobmod.bind(job, paths)
    if spans_file is None:
        command = [sys.executable, "-m", "graphspectra.cli", *argv]
    else:
        command = [sys.executable, str(HERE / "clishim.py"), str(spans_file), job.name,
                   *argv]
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out_path.read_bytes(), proc.returncode, usage


class Workload:
    def __init__(self, name: str, seed: int, workdir: Path, sample_inside: bool = True):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.in_process = name in jobmod.IN_PROCESS
        self.sample_inside = sample_inside
        self.paths = jobmod.write_inputs(name, seed, workdir)
        self.reference = checks.load_reference()
        self.child_rss_kb = 0
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run_job(self, job, rec=None, spans_file=None):
        """Run and time one job; returns (speed.Meter, output or None,
        problems).  In-process jobs are recorded as a "job" span when
        ``rec`` is given; untraced in-process jobs sample the reference
        kernel inside the job too."""
        if not self.in_process:
            with speed.Meter(inside=False, ends=speed.SUBPROCESS_ENDS) as meter:
                out, code, usage = run_subprocess(job, self.paths, self.workdir, spans_file)
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
            stderr = (self.workdir / "stderr").read_bytes()
            problems = ["traceback on stderr"] if TRACEBACK in stderr else []
            return meter, out, problems + checks.check(
                job, out, code, self.reference, self._perron(job))
        if rec is not None:
            rec.job = job.name
            span = rec.open("job")
        with speed.Meter(inside=self.sample_inside) as meter:
            try:
                out, error = run_in_process(job, self.paths), None
            except Exception:  # a job that raises is a failed job, not a crash
                out, error = None, traceback.format_exc()
        if rec is not None:
            rec.close(span)
            rec.job = None
        if error is not None:
            return meter, None, [error]
        return meter, out, checks.check(job, out, 0, self.reference, self._perron(job))

    def _perron(self, job):
        """The Perron certificate of a spectra job's SFT, as a callable
        returning (two-sided residual, eigenvalue)."""
        if job.subcommand != "spectra":
            return None
        argv = jobmod.bind(job, self.paths)
        if "--matrix" in argv:
            sft = io.load_sft(argv[argv.index("--matrix") + 1])
        else:
            sft = shift.full_schottky_sft(int(argv[argv.index("--genus") + 1]))

        def certificate():
            data = shift.perron_data(sft)
            return checks.perron_residual(sft, data), data.value
        return certificate

    def run_pass(self, index: int, rec=None, spans_dir: Path | None = None) -> dict:
        """One pass over the job list; returns times (in reference seconds,
        see ``speed``, and raw) and outputs by job."""
        times, raw, outputs, failed = {}, {}, {}, []
        for job in jobmod.pass_order(self.name, self.seed, index):
            spans_file = None if spans_dir is None else spans_dir / f"{job.name}.json"
            meter, out, problems = self.run_job(job, rec, spans_file)
            self.attempted += 1
            if problems:
                failed.append(job.name)
                self.problems.append(f"pass {index} {job.name}: " + "; ".join(problems))
            times[job.name] = meter.scaled_s
            raw[job.name] = meter.raw_s
            outputs[job.name] = out
        self.failed += len(failed)
        top = next(j.name for j in jobmod.WORKLOADS[self.name] if j.top)
        return {"wall_s": sum(times.values()), "top_rung_s": times[top],
                "raw_wall_s": sum(raw.values()), "raw_top_rung_s": raw[top],
                "jobs": times, "raw_jobs": raw, "failed": failed, "outputs": outputs}


def _fresh_import_seconds(module: str, samples: int) -> list[float]:
    """Import time of ``module`` in fresh interpreters."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(samples)]


def _same_report(a: bytes | None, b: bytes | None) -> bool:
    """Equal bytes, or equal JSON up to float round-off (ARPACK's start
    vector depends on the process's call history)."""
    if a == b:
        return True
    if a is None or b is None:
        return False
    try:
        return not checks.compare(json.loads(a), json.loads(b))
    except ValueError:
        return False


def traced(work: Workload, untraced: dict) -> dict:
    """Traced pass after an untraced one: spans, per-layer metrics, the
    tracing overhead and the comparison of traced with untraced reports."""
    rec = spans.Recorder()
    restore = spans.install(rec)
    rec.job = "setup"
    jobmod.write_inputs(work.name, work.seed, work.workdir)
    rec.job = None
    if work.in_process:
        result = work.run_pass(1, rec=rec)
        all_spans = rec.spans
        import_samples = [IMPORT_S]
    else:
        spans_dir = work.workdir / "spans"
        spans_dir.mkdir(exist_ok=True)
        result = work.run_pass(1, spans_dir=spans_dir)
        all_spans = list(rec.spans)
        import_samples = []
        for job in jobmod.WORKLOADS[work.name]:
            shim = json.loads((spans_dir / f"{job.name}.json").read_text())
            offset = len(all_spans)
            for span in shim["spans"]:
                if span[spans.PARENT] is not None:
                    span[spans.PARENT] += offset
                all_spans.append(span)
            import_samples.append(shim["import_s"])
    restore()
    mismatches = sorted(name for name, out in result["outputs"].items()
                        if name not in result["failed"]
                        and not _same_report(untraced["outputs"][name], out))
    for name in mismatches:
        work.problems.append(f"traced report of {name} differs from the untraced one")
    work.failed += len(mismatches)
    extra = {
        "cli.import.s": statistics.median(import_samples),
        "cli.import_scipy.s": statistics.median(
            _fresh_import_seconds("scipy.sparse.linalg", 3)),
        "trace.overhead_s": result["wall_s"] - untraced["wall_s"],
    }
    return {"wall_s": result["wall_s"], "top_rung_s": result["top_rung_s"],
            "jobs": result["jobs"], "report_mismatches": mismatches,
            "byte_differing_reports": sorted(
                name for name, out in result["outputs"].items()
                if out != untraced["outputs"][name]),
            "spans": all_spans, "layers": spans.aggregate(all_spans, extra)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(jobmod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workdir = Path(args.workdir)
    # A traced run keeps the kernel out of the spans: it samples it only
    # between jobs, in its untraced pass too, so the overhead compares like
    # with like.
    work = Workload(args.workload, args.seed, workdir, sample_inside=not args.trace)
    ready = time.monotonic()
    imports = {"ready": ready, "import_s": IMPORT_S, "package_import_s": PACKAGE_IMPORT_S}
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps(imports))
        return 0

    # At least MIN_PASSES passes; then stop before a pass would end after
    # --seconds.  A traced run makes one untraced pass.
    passes = []
    measure_start = time.perf_counter()
    while True:
        passes.append(work.run_pass(len(passes)))
        elapsed = time.perf_counter() - measure_start
        if args.trace or (len(passes) >= MIN_PASSES
                          and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
            break
    result = {**imports, "passes": passes}
    if args.trace:
        result["traced"] = traced(work, passes[0])
        result["baseline_rows"] = baseline.rows(work.name)
    import numpy
    import scipy
    result.update({
        "attempted": work.attempted, "failed": work.failed, "problems": work.problems,
        "child_rss_kb": work.child_rss_kb,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "graphspectra": graphspectra.cli.__file__,
    })
    for p in passes:
        p.pop("outputs")
    shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
