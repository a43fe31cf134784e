"""Workloads of the benchmark and the seeded inputs they read.

A job is one CLI invocation (``argv`` for ``graphspectra``), or, for the
single library job, a named call into ``graphspectra.buildings``.  Every
matrix input is written to a file before the first job runs, after a
letter relabeling (a simultaneous row/column permutation) chosen by the
workload seed; the program only ever sees those files.  Output checks
compare relabeling-invariant quantities, so every seed passes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple          # CLI arguments; "{input}" names a generated file
    top: bool = False    # the workload's largest job (top_rung_s)
    exit_code: int = 0   # expected exit status of the cli workload's subprocess
    golden: str | None = None  # tests/golden file the output must equal

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1] if "--format" in self.argv \
            else "json"


def _job(name, command, **kw) -> Job:
    return Job(name, tuple(command.split()), **kw)


# The library job of the `exact` workload: not a CLI invocation.
ORACLE = "lib-product-dims-oracle-g2-m8"

WORKLOADS = {
    # Few letters, large basis: projection and isometry assembly, commutator
    # products and the Lanczos norm.  N=5 (dim 972) is the one job below
    # DENSE_NORM_CUTOFF, so both norm paths run.
    "truncation": (
        _job("spectra-g2-N5", "spectra --genus 2 --levels 5"),
        _job("spectra-g2-N6", "spectra --genus 2 --levels 6"),
        _job("spectra-g3-N4", "spectra --genus 3 --levels 4", top=True),
        _job("spectra-theta-N9", "spectra --matrix {theta} --levels 9"),
    ),
    # Many letters or levels, tiny basis: per-letter and per-level Python
    # loops (word counts, Perron iteration, CK residual sums, folding).
    "sequences": (
        _job("spectra-kato5-N6", "spectra --matrix {kato5} --levels 6"),
        _job("spectra-kato10-N6", "spectra --matrix {kato10} --levels 6", top=True),
        _job("spectra-g2-N3-heat", "spectra --genus 2 --levels 3 --t 0.01,0.05,0.2,1.0"),
        _job("crossed-quadratic-500",
             "crossed --base quadratic --count 500 --cutoff 500"),
    ),
    # Exact integer and set arithmetic, no floating-point linear algebra.
    # g=3 n=3 is the largest coboundary matrix (750x150).
    "exact": (
        _job("cohomology-g2-n4", "cohomology --genus 2 --levels 4"),
        _job("cohomology-theta-n6", "cohomology --matrix {theta} --levels 6"),
        _job("cohomology-g3-n3", "cohomology --genus 3 --levels 3", top=True),
        _job("ktheory-kato20-vs-kato10",
             "ktheory --matrix {kato20} --compare {kato10}"),
        _job("catalog", "catalog"),
        _job("building-q16-all",
             "building --q 16 --cover --validate --links --stable-pairs --bm"),
        _job("tau-11", "tau --weights 2,3,4,5,6,7,8,9,10,11,12"),
        Job(ORACLE, ("oracle",)),
    ),
    # One fresh `python -m graphspectra.cli` process per job: cold start
    # dominates, and the CSV/table formats and documented errors run here.
    "cli": (
        _job("cli-catalog", "catalog"),
        _job("cli-ktheory-a1", "ktheory --matrix {a1}", golden="ktheory_a1.json"),
        _job("cli-ktheory-a1csv-vs-theta",
             "ktheory --matrix {a1csv} --compare {theta}"),
        _job("cli-spectra-g2-N4", "spectra --genus 2 --levels 4 --t 0.5,1.0,2.0",
             top=True),
        _job("cli-af-g2-6", "af --genus 2 --levels 6"),
        _job("cli-af-g2-7-budget", "af --genus 2 --levels 7", exit_code=2),
        _job("cli-crossed-csv", "crossed --format csv"),
        _job("cli-cohomology-table", "cohomology --genus 2 --levels 3 --format table"),
        _job("cli-building-q1", "building --q 1 --cover --bm",
             golden="building_q1_cover_bm.json"),
        _job("cli-tau-pentagon", "tau --weights 2,2,2,2,2", golden="tau_pentagon.json"),
    ),
}

IN_PROCESS = ("truncation", "sequences", "exact")


def inputs_of(workload: str) -> list[str]:
    """Generated input names the workload's jobs refer to."""
    names = set()
    for job in WORKLOADS[workload]:
        for arg in job.argv:
            if arg.startswith("{"):
                names.add(arg.strip("{}").removesuffix("csv"))
    return sorted(names)


def _edge_matrix(name: str):
    from graphspectra import graphs
    if name == "theta":
        return graphs.directed_edge_matrix(graphs.theta_graph())
    if name == "a1":
        return graphs.cayley_schottky_matrix(2)
    return graphs.directed_edge_matrix(graphs.kato_graph(int(name.removeprefix("kato"))))


def relabeling(seed: int | None, name: str, size: int) -> list[int]:
    """Letter permutation of one input; the identity when seed is None."""
    perm = list(range(size))
    if seed is not None:
        random.Random(f"{seed}:{name}").shuffle(perm)
    return perm


def write_inputs(workload: str, seed: int | None, workdir: Path) -> dict:
    """Write the workload's matrix files; returns placeholder -> path."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in inputs_of(workload):
        em = _edge_matrix(name)
        perm = relabeling(seed, name, em.size)
        rows = [[em.matrix[i][j] for j in perm] for i in perm]
        labels = [em.labels[i] for i in perm]
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({"matrix": rows, "labels": labels}))
        paths[name] = str(path)
        if name == "a1":
            csv_path = workdir / "a1.csv"
            csv_path.write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
            paths["a1csv"] = str(csv_path)
    return paths


def bind(job: Job, paths: dict) -> list[str]:
    """The job's argv with generated file paths in place of placeholders."""
    return [paths[a.strip("{}")] if a.startswith("{") else a for a in job.argv]


def pass_order(workload: str, seed: int | None, pass_index: int) -> list[Job]:
    """Jobs of one pass in a seeded order."""
    jobs = list(WORKLOADS[workload])
    if seed is not None:
        random.Random(f"{seed}:order:{pass_index}").shuffle(jobs)
    return jobs
