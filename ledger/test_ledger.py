#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 ledger/test_ledger.py

They drive ledger/run.py with short runs (about two minutes in all on a
4-core box) and check that inputs are a pure function of the seed, that
every printed metric name matches BENCHMARK.json, and that the correctness
gate catches a deliberately corrupted distance.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("solve-rmat1", "solve-road", "serve-mixed")


def run(*extra, workload, seed=3, seconds=1, trace=0):
    cmd = [sys.executable, os.path.join(ROOT, "ledger", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class InputsAreAFunctionOfTheSeed(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = run("--dump-inputs", workload=workload, seed=5)
                b = run("--dump-inputs", workload=workload, seed=5)
                c = run("--dump-inputs", workload=workload, seed=6)
                for done in (a, b, c):
                    self.assertEqual(done.returncode, 0, done.stderr)
                self.assertTrue(a.stdout.strip())
                self.assertEqual(a.stdout, b.stdout)
                self.assertNotEqual(a.stdout, c.stdout)


class MetricNamesMatchBenchmarkJson(unittest.TestCase):
    def test_every_workload_prints_exactly_the_declared_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    done = run(workload=workload, trace=trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = result_of(done)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertNotEqual(m["value"], 0, name)


class GateCatchesACorruptedDistance(unittest.TestCase):
    def test_negative_control(self):
        for workload in ("solve-road", "serve-mixed"):
            with self.subTest(workload=workload):
                done = run("--corrupt", workload=workload)
                self.assertNotEqual(done.returncode, 0)
                self.assertIn("MISMATCH", done.stderr)
                result = result_of(done)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
