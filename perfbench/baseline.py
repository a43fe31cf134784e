"""The ROADMAP baseline-table rows, measured again as medians with quartiles.

Each row repeats one library call REPEATS times, with tracing off, and
reports the median and quartiles of its wall time next to the range the
ROADMAP table recorded (single runs: Python 3.11.7, numpy 2.4.6, scipy
1.17.1, 2 cores).  A row is flagged when that range lies farther from the
median than the row's own spread, q3 - q1.  The import row is measured
by ``run.py``: a bare ``import graphspectra`` at the start of each fresh
set-up process.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 3


def summarize(path: str, size: str, roadmap: tuple, samples: list) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    low, high = roadmap
    distance = max(low - median, median - high, 0.0)
    return {"path": path, "size": size, "roadmap_s": [low, high],
            "samples": samples, "median": median, "q1": q1, "q3": q3,
            "flagged": distance > q3 - q1}


def _timed(call) -> list[float]:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return samples


def rows(workload: str) -> list[dict]:
    from graphspectra import graphs, ktheory, shift, triples
    out = []
    if workload == "truncation":
        sft = shift.full_schottky_sft(2)
        for level, build_range, norm_range in ((6, (0.18, 0.28), (0.5, 0.5)),
                                               (7, (1.15, 1.15), (2.6, 4.1))):
            held = {}

            def build():
                held.clear()
                held["t"] = triples.build_truncation(sft, level)
            out.append(summarize("build_truncation", f"g=2 N={level}", build_range,
                                 _timed(build)))
            trunc = held.pop("t")
            out.append(summarize("commutator + spectral_norm", f"g=2 N={level} letter 0",
                                 norm_range,
                                 _timed(lambda: triples.spectral_norm(trunc.commutator(0)))))
            del trunc
    elif workload == "exact":
        sft = shift.full_schottky_sft(2)
        for n, roadmap in ((4, (0.18, 0.18)), (5, (6.4, 6.4))):
            mat = shift.coboundary_matrix(sft, n)
            out.append(summarize("exact_rank(coboundary_matrix)",
                                 f"g=2 n={n} ({len(mat)}x{len(mat[0])})", roadmap,
                                 _timed(lambda: ktheory.exact_rank(mat))))
    elif workload == "sequences":
        em = graphs.directed_edge_matrix(graphs.kato_graph(20))
        rows_a, sft = em.matrix, shift.from_edge_matrix(em)
        out.append(summarize("ck_k_theory", "kato r=20", (0.37, 0.37),
                             _timed(lambda: ktheory.ck_k_theory(rows_a))))
        out.append(summarize("perron_data", "kato r=20", (0.34, 0.34),
                             _timed(lambda: shift.perron_data(sft))))
        triple = triples.CrossedProductTriple(
            tuple((float(j * j), 1) for j in range(1, 1001)), 1000)
        spectrum = triple.spectrum()
        out.append(summarize("crossed_product_spectrum", "count = cutoff = 1000",
                             (1.7, 1.7), _timed(triple.spectrum)))
        out.append(summarize("summability_exponent_fit", "count = cutoff = 1000",
                             (0.4, 0.4),
                             _timed(lambda: triples.summability_exponent_fit(spectrum))))
    return out
