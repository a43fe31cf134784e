"""Span recording around graphspectra's public functions, and the
per-layer metrics computed from the spans.

Tracing wraps module attributes and ``SpectralTruncation`` methods from
the benchmark's side; no file of the program changes.  A function is
attributed to its defining module even where another module bound it by
name (``perron_data`` inside ``triples``): every binding of the same
function object is replaced by one wrapper.

A span is ``[name, start, end, parent, job, counts]``; spans are kept in
memory and written out when the run ends.  The self time of a span is
its duration minus the part of its interval that its child spans cover.

Only the program's own calls are recorded: a wrapper called while the
recorder has no job (the benchmark's output checks) records nothing.
The counters a span carries are computed inside a ``trace.counter``
child span, so their work is not charged to the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import time

import checks

MODULES = ("graphs", "ktheory", "shift", "triples", "buildings", "io", "cli")

NAME, START, END, PARENT, JOB, COUNTS = range(6)
COUNTER = "trace.counter"


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: str | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()


def _shape(mat) -> tuple:
    if hasattr(mat, "shape"):
        return tuple(mat.shape)
    return (len(mat), len(mat[0]) if len(mat) else 0)


def _perron_residual(args, kwargs, result) -> dict:
    return {"residual_max": checks.perron_residual(args[0], result)}


def _truncation_nnz(args, kwargs, result) -> dict:
    nnz = sum(getattr(result.projection(n), "nnz", 0) for n in range(result.level + 1))
    nnz += sum(getattr(result.isometry(i), "nnz", 0)
               for i in range(result.sft.alphabet_size))
    return {"dim": result.dimension, "nnz": nnz}


def _spectral_norm_branch(args, kwargs, result) -> dict:
    from graphspectra import triples
    cutoff = getattr(triples, "DENSE_NORM_CUTOFF", 0)
    return {"dense_share": float(max(_shape(args[0])) <= cutoff)}


def _exact_rank_shape(args, kwargs, result) -> dict:
    rows, cols = _shape(args[0])
    return {"rows": rows, "cols": cols}


def _coboundary_entries(args, kwargs, result) -> dict:
    rows, cols = _shape(result)
    return {"entries": rows * cols}


def _grading_levels(args, kwargs, result) -> dict:
    return {"levels": args[1] if len(args) > 1 else kwargs["max_level"]}


# (module, attribute, counters computed from (args, kwargs, result))
TARGETS = (
    ("graphs", "kato_graph", None),
    ("graphs", "directed_edge_matrix", None),
    ("shift", "enumerate_words", lambda a, k, r: {"words": len(r)}),
    ("shift", "perron_data", _perron_residual),
    ("shift", "count_words", None),
    ("shift", "filtration_dims", None),
    ("shift", "coboundary_matrix", _coboundary_entries),
    ("triples", "build_truncation", _truncation_nnz),
    ("triples", "SpectralTruncation.ck_residuals", None),
    ("triples", "SpectralTruncation.commutator",
     lambda a, k, r: {"nnz": getattr(r, "nnz", 0)}),
    ("triples", "SpectralTruncation.weight_depth", None),
    ("triples", "spectral_norm", _spectral_norm_branch),
    ("triples", "grading_from_sft", _grading_levels),
    ("triples", "theta_trace", None),
    ("triples", "zeta_partial", None),
    ("triples", "crossed_product_spectrum", lambda a, k, r: {"points": len(r)}),
    ("triples", "summability_exponent_fit", None),
    ("ktheory", "exact_rank", _exact_rank_shape),
    ("ktheory", "smith_normal_form", None),
    ("ktheory", "ck_k_theory", None),
    ("ktheory", "stable_iso_verdict", None),
    ("buildings", "four_fold_cover", None),
    ("buildings", "validate_presentation", None),
    ("buildings", "polyhedron_from_presentation", None),
    ("buildings", "stable_pairs_check", None),
    ("buildings", "bm_group_data", None),
    ("buildings", "product_grading_dims_oracle", None),
    ("buildings", "solve_tau", None),
    ("io", "load_matrix_rows", None),
    ("io", "load_matrix", None),
    ("io", "load_sft", None),
    ("io", "load_presentation", None),
    ("io", "emit", lambda a, k, r: {"bytes": len(r)}),
    ("cli", "parse_invocation", None),
    ("cli", "execute", None),
    ("cli", "adaptive_theta", None),
)


def span_name(module: str, attr: str) -> str:
    """Span name of a target: the io loaders share one name, io.load."""
    leaf = attr.rsplit(".", 1)[-1]
    if module == "io" and leaf.startswith("load"):
        leaf = "load"
    return f"{module}.{leaf}"


def _wrap(rec: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if rec.job is None:
            return fn(*args, **kwargs)
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if counter is not None:
            work = rec.open(COUNTER)
            try:
                rec.spans[index][COUNTS].update(counter(args, kwargs, result))
            finally:
                rec.close(work)
        return result
    return traced


def install(rec: Recorder):
    """Wrap every target in every graphspectra namespace that binds it;
    returns a function that puts the originals back."""
    modules = {m: importlib.import_module(f"graphspectra.{m}") for m in MODULES}
    namespaces = [importlib.import_module("graphspectra"), *modules.values()]
    replaced = []
    for module, attr, counter in TARGETS:
        if "." in attr:
            cls_name, key = attr.split(".")
            cls = getattr(modules[module], cls_name)
            original = getattr(cls, key)
            owners = [(cls, key)]
        else:
            original = getattr(modules[module], attr)
            owners = [(ns, k) for ns in namespaces
                      for k, v in vars(ns).items() if v is original]
        wrapper = _wrap(rec, span_name(module, attr), original, counter)
        for owner, key in owners:
            setattr(owner, key, wrapper)
            replaced.append((owner, key, original))

    def restore():
        for owner, k, original in reversed(replaced):
            setattr(owner, k, original)
    return restore


def self_times(spans: list) -> list[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals clipped to it."""
    children: dict = {}
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][START]):
            lo = max(spans[child][START], reach)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


# Per-layer metrics: (name, unit, better, moves end-to-end metric(s), workload).
# A name ending in ".s" is the summed self time of that span name and
# ".calls" counts its spans; other suffixes aggregate the span counter of
# the same name (sum, or as noted in aggregate()).
LAYER_METRICS = (
    ("cli.import.s", "s", "lower", "setup_s,wall_s", "cli"),
    ("cli.import_scipy.s", "s", "lower", "setup_s,wall_s", "cli"),
    ("cli.adaptive_theta.s", "s", "lower", "wall_s", "sequences"),
    ("cli.adaptive_theta.useful_ratio", "ratio", "higher", "wall_s", "sequences"),
    ("io.load.s", "s", "lower", "wall_s", "exact,cli"),
    ("io.emit.s", "s", "lower", "wall_s", "exact,cli"),
    ("io.emit.bytes", "bytes", "lower", "wall_s", "exact,cli"),
    ("graphs.kato_graph.s", "s", "lower", "setup_s", "sequences,exact"),
    ("graphs.directed_edge_matrix.s", "s", "lower", "setup_s", "sequences,exact"),
    ("shift.enumerate_words.s", "s", "lower", "wall_s,peak_rss_mb", "truncation"),
    ("shift.enumerate_words.words", "count", "lower", "wall_s,peak_rss_mb", "truncation"),
    ("shift.perron_data.s", "s", "lower", "wall_s,top_rung_s", "sequences"),
    ("shift.perron_data.calls", "count", "lower", "wall_s,top_rung_s", "sequences"),
    ("shift.perron_data.residual_max", "1", "lower", "wall_s,top_rung_s", "sequences"),
    ("shift.count_words.s", "s", "lower", "top_rung_s", "sequences"),
    ("shift.count_words.calls", "count", "lower", "top_rung_s", "sequences"),
    ("shift.filtration_dims.s", "s", "lower", "top_rung_s", "sequences"),
    ("shift.coboundary_matrix.s", "s", "lower", "wall_s", "exact"),
    ("shift.coboundary_matrix.entries", "count", "lower", "wall_s", "exact"),
    ("triples.build_truncation.s", "s", "lower", "top_rung_s,peak_rss_mb", "truncation"),
    ("triples.build_truncation.dim", "count", "higher", "top_rung_s,peak_rss_mb",
     "truncation"),
    ("triples.build_truncation.nnz", "count", "lower", "top_rung_s,peak_rss_mb",
     "truncation"),
    ("triples.ck_residuals.s", "s", "lower", "top_rung_s", "sequences,truncation"),
    ("triples.commutator.s", "s", "lower", "top_rung_s,peak_rss_mb", "truncation"),
    ("triples.commutator.nnz", "count", "lower", "top_rung_s,peak_rss_mb", "truncation"),
    ("triples.spectral_norm.s", "s", "lower", "top_rung_s", "truncation"),
    ("triples.spectral_norm.dense_share", "ratio", "lower", "top_rung_s", "truncation"),
    ("triples.weight_depth.s", "s", "lower", "wall_s", "sequences"),
    ("triples.grading_from_sft.s", "s", "lower", "wall_s", "sequences"),
    ("triples.grading_from_sft.calls", "count", "lower", "wall_s", "sequences"),
    ("triples.theta_trace.s", "s", "lower", "wall_s", "sequences"),
    ("triples.zeta_partial.s", "s", "lower", "wall_s", "sequences"),
    ("triples.crossed_product_spectrum.s", "s", "lower", "wall_s,peak_rss_mb",
     "sequences"),
    ("triples.crossed_product_spectrum.points", "count", "lower", "wall_s,peak_rss_mb",
     "sequences"),
    ("triples.summability_exponent_fit.s", "s", "lower", "wall_s,peak_rss_mb",
     "sequences"),
    ("ktheory.exact_rank.s", "s", "lower", "top_rung_s", "exact"),
    ("ktheory.exact_rank.rows", "count", "lower", "top_rung_s", "exact"),
    ("ktheory.exact_rank.cols", "count", "lower", "top_rung_s", "exact"),
    ("ktheory.smith_normal_form.s", "s", "lower", "wall_s", "exact"),
    ("ktheory.ck_k_theory.s", "s", "lower", "wall_s", "exact"),
    ("ktheory.stable_iso_verdict.s", "s", "lower", "wall_s", "exact"),
    ("buildings.four_fold_cover.s", "s", "lower", "wall_s", "exact"),
    ("buildings.validate_presentation.s", "s", "lower", "wall_s", "exact"),
    ("buildings.polyhedron_from_presentation.s", "s", "lower", "wall_s", "exact"),
    ("buildings.stable_pairs_check.s", "s", "lower", "wall_s", "exact"),
    ("buildings.bm_group_data.s", "s", "lower", "wall_s", "exact"),
    ("buildings.product_grading_dims_oracle.s", "s", "lower", "wall_s", "exact"),
    ("buildings.solve_tau.s", "s", "lower", "wall_s", "exact"),
    ("trace.overhead_s", "s", "lower", "none (traced minus untraced wall_s)", "all"),
)


def aggregate(spans: list, extra: dict) -> dict:
    """Per-layer metric values from one pass's spans.

    ``extra`` supplies the metrics that are not span aggregates
    (``cli.import*.s`` and ``trace.overhead_s``).  Residuals aggregate by
    max, ``dense_share`` by mean; ``useful_ratio`` is the last
    grading_from_sft level count of each adaptive_theta span over the sum
    of all its tries.
    """
    selfs = self_times(spans)
    by_name: dict = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)
    values = {}
    for metric, *_ in LAYER_METRICS:
        if metric in extra:
            values[metric] = extra[metric]
            continue
        span, key = metric.rsplit(".", 1)
        hits = by_name.get(span, [])
        if key == "s":
            values[metric] = sum(selfs[i] for i in hits)
        elif key == "calls":
            values[metric] = len(hits)
        elif key == "useful_ratio":
            values[metric] = _useful_ratio(spans, hits)
        else:
            counts = [spans[i][COUNTS][key] for i in hits if key in spans[i][COUNTS]]
            if key == "residual_max":
                values[metric] = max(counts, default=0.0)
            elif key == "dense_share":
                values[metric] = sum(counts) / len(counts) if counts else 0.0
            else:
                values[metric] = sum(counts)
    return values


def _useful_ratio(spans: list, theta_spans: list) -> float:
    final = computed = 0
    for index in theta_spans:
        tries = [s[COUNTS]["levels"] for s in spans
                 if s[PARENT] == index and s[NAME] == "triples.grading_from_sft"]
        if tries:
            final += tries[-1]
            computed += sum(tries)
    return final / computed if computed else 0.0
