#!/usr/bin/env python3
"""Tests of the step benchmark itself (not of the library).

    python3 stepbench/test_stepbench.py

Builds the benchmark like run.py does, then checks that each oracle can
fail (stepbench_selftest), that a short run of every workload prints
every metric BENCHMARK.json names with its unit, and that the benchmark
exits non-zero without a result where the library sources are missing.
A short run still makes its minimum Driver::run() calls: about 15 s per
workload and mode.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark command, imported for its build)

BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run_bench(workload, trace, cwd=ROOT):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


class StepBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_oracles_can_fail(self):
        os.makedirs(run.WORK_DIR, exist_ok=True)
        out = subprocess.run(
            [os.path.join(run.BUILD_DIR, "stepbench_selftest"),
             "--work-dir=%s" % run.WORK_DIR],
            capture_output=True, text=True, timeout=600)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         list(run.WORKLOADS))

    def test_every_metric_is_reported(self):
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = run_bench(workload, trace)
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    result = json.loads(out.stdout.strip().split("\n")[-1])
                    self.assertEqual(set(result), run.RESULT_KEYS)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in BENCH[key]}
                    metrics = result["metrics"]
                    got = {name: m["unit"] for name, m in metrics.items()}
                    self.assertEqual(got, expected)
                    for name, m in metrics.items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_refuses_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            out = run_bench("gravity_bh", 0, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
