"""Self-tests of the benchmark's checks, span arithmetic and job accounting.

    python3 perfbench/selftest.py      (from the repository root)
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = str(ROOT / "src")
os.chdir(ROOT)

import checks  # noqa: E402
import jobs as jobmod  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _job(name):
    return next(j for jobs in jobmod.WORKLOADS.values() for j in jobs if j.name == name)


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(dir=ROOT)
        self.paths = jobmod.write_inputs("cli", 7, Path(self.tmp.name))
        self.reference = checks.load_reference()

    def tearDown(self):
        self.tmp.cleanup()

    def _check(self, job, report: dict) -> list:
        from graphspectra import io
        return checks.check(job, io.emit(report, "json"), 0, self.reference)

    def test_integer_changed_is_rejected(self):
        job = _job("cli-ktheory-a1csv-vs-theta")
        report = json.loads(worker.run_in_process(job, self.paths))
        self.assertEqual(self._check(job, report), [])
        report["k0"]["rank"] += 1
        self.assertTrue(self._check(job, report))

    def test_commutator_norm_off_by_1e_6_is_rejected(self):
        job = _job("cli-spectra-g2-N4")
        report = json.loads(worker.run_in_process(job, self.paths))
        self.assertEqual(self._check(job, report), [])
        report["commutators"][0]["norm"] *= 1 + 1e-6
        self.assertTrue(self._check(job, report))

    def test_relabeled_inputs_pass(self):
        job = _job("cli-ktheory-a1")
        for seed in (None, 3):
            paths = jobmod.write_inputs("cli", seed, Path(self.tmp.name) / str(seed))
            out = worker.run_in_process(job, paths)
            self.assertEqual(checks.check(job, out, 0, self.reference), [])

    def test_expected_error_job_counts_as_a_success(self):
        job = _job("cli-af-g2-7-budget")
        work = worker.Workload("cli", 7, Path(self.tmp.name) / "work")
        saved = jobmod.WORKLOADS["cli"]
        jobmod.WORKLOADS["cli"] = (job, _job("cli-spectra-g2-N4"))
        try:
            result = work.run_pass(0)
        finally:
            jobmod.WORKLOADS["cli"] = saved
        self.assertEqual((work.attempted, work.failed), (2, 0))
        self.assertIn(b"EnumerationBudgetExceeded", result["outputs"][job.name])


class SpanTest(unittest.TestCase):
    def test_benchmark_json_lists_every_layer_metric(self):
        listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in listed],
                         [m[:3] for m in spans.LAYER_METRICS])

    def test_self_time_on_a_synthetic_tree(self):
        tree = [
            ["root", 0.0, 10.0, None, "j", {}],
            ["a", 1.0, 4.0, 0, "j", {}],
            ["b", 3.0, 6.0, 0, "j", {}],     # overlaps a: the union counts once
            ["a.child", 2.0, 3.0, 1, "j", {}],
            ["late", 9.0, 12.0, 0, "j", {}],  # clipped to the parent's end
        ]
        self.assertEqual(spans.self_times(tree), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_functions_are_attributed_to_their_defining_module(self):
        from graphspectra import shift, triples
        rec = spans.Recorder()
        restore = spans.install(rec)
        rec.job = "test"
        try:
            triples.grading_from_sft(shift.full_schottky_sft(2), 4)
        finally:
            restore()
        names = [s[spans.NAME] for s in rec.spans]
        self.assertEqual(names[0], "triples.grading_from_sft")
        self.assertIn("shift.perron_data", names)
        self.assertNotIn("triples.perron_data", names)
        perron = rec.spans[names.index("shift.perron_data")]
        self.assertEqual(perron[spans.PARENT], 0)
        self.assertLess(perron[spans.COUNTS]["residual_max"], 1e-12)
        self.assertIs(triples.perron_data, shift.perron_data)

    def test_traced_pass_counts_only_the_programs_calls(self):
        """The output checks call perron_data and io.load_sft too; a traced
        job records the program's own calls and none of the checks'."""
        import graphspectra
        from graphspectra import io, shift
        job = _job("spectra-kato5-N6")
        targets = (shift.perron_data, io.load_sft)
        calls = {fn.__name__: 0 for fn in targets}

        def counting(fn):
            def call(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return call
        namespaces = [graphspectra, *(getattr(graphspectra, m) for m in spans.MODULES)]
        bound = [(ns, key, value) for ns in namespaces
                 for key, value in vars(ns).items() if any(value is t for t in targets)]
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            work = worker.Workload("sequences", 7, Path(tmp))
            for ns, key, value in bound:
                setattr(ns, key, counting(value))
            try:
                worker.run_in_process(job, work.paths)
            finally:
                for ns, key, value in bound:
                    setattr(ns, key, value)
            rec = spans.Recorder()
            restore = spans.install(rec)
            try:
                _, _, problems = work.run_job(job, rec)
            finally:
                restore()
        self.assertEqual(problems, [])
        layers = spans.aggregate(rec.spans, {})
        self.assertGreater(calls["perron_data"], 0)
        self.assertEqual(layers["shift.perron_data.calls"], calls["perron_data"])
        self.assertEqual(sum(s[spans.NAME] == "io.load" for s in rec.spans),
                         calls["load_sft"])


if __name__ == "__main__":
    unittest.main()
