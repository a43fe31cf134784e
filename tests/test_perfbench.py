"""The benchmark under perfbench/ reaches into the package by name: it
wraps module functions in trace spans and calls the io loaders.  A
rename or deletion breaks only its traced mode, which its self-test
exercises, and its baseline rows, which the self-test does not run."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

from graphspectra import graphs, shift, triples

ROOT = Path(__file__).parents[1]


def test_perfbench_selftest_passes():
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr


def test_truncation_nnz_counter_reads_the_reference_views(monkeypatch):
    """The traced build_truncation span counts the nnz of every projection
    and isometry view; no other test calls that counter."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    t = triples.build_truncation(shift.full_schottky_sft(2), 3)
    assert spans._truncation_nnz((), {}, t) == {"dim": 108, "nnz": 4644}


def test_every_name_the_baseline_reaches_resolves():
    """``run.py --trace 1`` times perfbench/baseline.py; resolve what it
    reads without running its timings."""
    tree = ast.parse((ROOT / "perfbench" / "baseline.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "graphspectra" for alias in node.names}
    reached = {(node.value.id, node.attr) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules}
    # the scan sees the names the baseline rows call
    assert {("graphs", "directed_edge_matrix"), ("graphs", "kato_graph"),
            ("shift", "from_edge_matrix"), ("shift", "full_schottky_sft"),
            ("shift", "coboundary_matrix"), ("ktheory", "exact_rank"),
            ("ktheory", "ck_k_theory"), ("triples", "spectral_norm"),
            ("triples", "CrossedProductTriple"),
            ("triples", "summability_exponent_fit")} <= reached
    for module, attr in sorted(reached):
        assert hasattr(importlib.import_module(f"graphspectra.{module}"), attr), \
            f"{module}.{attr}"
    # attributes of the objects it builds
    em = graphs.directed_edge_matrix(graphs.kato_graph(1))
    assert em.matrix and shift.from_edge_matrix(em).size == em.size
    assert callable(triples.SpectralTruncation.commutator)
