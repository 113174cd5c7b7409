#!/usr/bin/env python3
"""Smoke test of the repository benchmark: every workload, untraced and
traced, at smoke size (tiny divisors, well under a second of load).

    python3 perfbench/smoke_test.py

Checks the result format: the last stdout line is one JSON object with
exactly correct/attempted/failed/metrics, the run is correct with no failed
operation, and the metrics are exactly BENCHMARK.json's end-to-end list
(--trace 0) or per-layer list (--trace 1), each with its declared unit.
Takes about a minute, most of it the first build.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, seed=5):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("run.py failed:\n" + out.stderr[-3000:])
    return json.loads(out.stdout.splitlines()[-1]), out.stdout


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        result, stdout = run(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        self.assertIn("env nproc=", stdout)

    def test_every_workload(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_same_seed_same_inputs(self):
        digests = []
        for _ in range(2):
            _, stdout = run("table2", 0, seed=42)
            digests.append([l for l in stdout.splitlines()
                            if l.startswith("input ")])
        self.assertTrue(digests[0])
        self.assertEqual(digests[0], digests[1])


if __name__ == "__main__":
    unittest.main()
