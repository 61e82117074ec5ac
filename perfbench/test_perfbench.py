"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The last test runs every workload twice, traced, for a warm-up pass and one
more pass each with the same seed (about twenty seconds) and requires the
count metrics and the surface digests to repeat exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_metrics_match_what_runs_report(self):
        e2e = [(m["name"], m["unit"]) for m in self.spec["end_to_end"]]
        self.assertEqual(e2e, [(n, run.UNITS[n]) for n in run.GATED])
        layers = [(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]]
        self.assertEqual(layers, list(tracing.PER_LAYER))
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOAD_NAMES))
        run.bootstrap()
        import workloads
        for w in self.spec["workloads"]:
            self.assertEqual(w["why"], workloads.WORKLOADS[w["name"]].why)

    def test_setup_bound_is_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class ProbeTest(unittest.TestCase):
    def test_scales_each_operation_by_the_probes_around_it(self):
        nominal = probe.NOMINAL_S
        # an operation between probes of twice the nominal time counts half
        self.assertAlmostEqual(probe.normalised([1.0], [2 * nominal, 2 * nominal]), 0.5)
        self.assertAlmostEqual(
            probe.normalised([1.0, 3.0], [nominal, 3 * nominal, nominal]), 0.5 + 1.5)

    def test_probe_times_the_kernel(self):
        self.assertGreater(probe.probe(), 0.0)


class TailTest(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        vals = list(range(1, 1001))
        self.assertEqual(tracing.tail(vals), (990, 99.0))
        self.assertEqual(tracing.tail(list(range(1, 41)))[1], 75.0)

    def test_few_samples_fall_back_to_max(self):
        self.assertEqual(tracing.tail([3.0, 1.0, 2.0]), (3.0, 100.0))


class SpanSummaryTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tr = tracing.Tracer()
        tr.names = [tracing.PASS_SPAN, "a", "b"]
        # pass [0, 10] > a [1, 6] > b [2, 4]; b [7, 8] directly under the pass
        tr.name_id = array("i", [0, 1, 2, 2])
        tr.parent = array("q", [-1, 0, 1, 0])
        tr.start = array("d", [0.0, 1.0, 2.0, 7.0])
        tr.end = array("d", [10.0, 6.0, 4.0, 8.0])
        s = tracing.SpanSummary(tr)
        self.assertEqual(s.self_s("a"), 3.0)
        self.assertEqual(s.self_s(tracing.PASS_SPAN), 4.0)
        self.assertEqual(s.calls("b"), 2)
        self.assertEqual(s.calls("b", parent="a"), 1)
        self.assertEqual(s.spans("b", in_pass=0), [2, 3])


class RepeatabilityTest(unittest.TestCase):
    def run_traced(self, workload: str, seed: int) -> dict:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], done.stdout)
        with open(os.path.join(run.WORKDIR, f"report-{workload}-trace1.json")) as f:
            return json.load(f)

    def test_counts_repeat_for_a_fixed_seed(self):
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                first = self.run_traced(workload, 7)
                again = self.run_traced(workload, 7)
                self.assertEqual(first["exact_counts"], again["exact_counts"])
                self.assertTrue(any(first["exact_counts"].values()))
                self.assertEqual(first["surface_digest"], again["surface_digest"])


if __name__ == "__main__":
    unittest.main()
