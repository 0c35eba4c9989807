#!/usr/bin/env python3
"""The benchmark's own test, at tiny input sizes.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Checks that every run prints every metric BENCHMARK.json names, with its
unit (end-to-end metrics untraced, per-layer metrics traced), that only the
layers a workload does not exercise are zero-filled, that each output check
fires on a corrupted input, and that the benchmark refuses to run without the
library sources. Builds through perfbench/run.py.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCALE = "0.05"


def run(workload, trace=0, corrupt="none", seed=7, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", SCALE, "--corrupt", corrupt]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def assert_metrics(self, proc, specs):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in specs}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, value in result["metrics"].items():
            self.assertEqual(value["unit"], expected[name], name)
            self.assertIsInstance(value["value"], (int, float), name)
        return result["metrics"]

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload, trace=0):
                metrics = self.assert_metrics(run(workload), self.spec["end_to_end"])
                for name, value in metrics.items():
                    self.assertGreater(value["value"], 0, f"{workload} {name}")
            with self.subTest(workload=workload, trace=1):
                self.assert_metrics(run(workload, trace=1), self.spec["per_layer"])

    def test_catalog_check_zero_fills_only_unexercised_layers(self):
        sys.path.insert(0, BENCH_DIR)
        import run as runner
        spec = {"end_to_end": [], "per_layer": [
            {"name": "net.read_ns_per_frame", "unit": "ns"},
            {"name": "fleet.decode_ms", "unit": "ms"}]}

        def checked(metrics):
            result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
            return runner.check_metrics(result, spec, "fleet_merge", trace=1)

        measured = {"fleet.decode_ms": {"value": 0.2, "unit": "ms"}}
        ok = checked(dict(measured))
        self.assertTrue(ok["correct"])
        self.assertEqual(ok["metrics"]["net.read_ns_per_frame"], {"value": 0, "unit": "ns"})
        self.assertFalse(checked({})["correct"])  # an exercised layer went missing
        self.assertFalse(checked({"fleet.decode_ms": {"value": 0.2, "unit": "us"}})["correct"])
        unknown = dict(measured, **{"fleet.other": {"value": 1, "unit": "ms"}})
        self.assertFalse(checked(unknown)["correct"])

    def test_same_seed_same_inputs(self):
        a = result_of(run("fleet_merge"))["metrics"]["state_bytes_per_conn"]["value"]
        b = result_of(run("fleet_merge"))["metrics"]["state_bytes_per_conn"]["value"]
        self.assertEqual(a, b)

    def test_dropped_pcap_frame_breaks_the_flow_check(self):
        proc = run("pcap_report", corrupt="drop-frame")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result_of(proc)["correct"])
        self.assertIn("never surfaced from the pcap", proc.stderr)

    def test_flipped_partial_is_rejected(self):
        proc = run("fleet_merge", trace=1, corrupt="flip-partial")
        self.assertNotEqual(proc.returncode, 0)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreater(result["metrics"]["fleet.rejected"]["value"], 0)
        self.assertIn("partials rejected", proc.stderr)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "pcap_report", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    unittest.main()
