#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of the repository.  Runs every workload of
`BENCHMARK.json` at a few thousand nodes, untraced and traced, and checks
that the result line names every end-to-end (untraced) or per-layer
(traced) metric exactly once with its unit, that no solve failed, and
that only `powerlaw_partition` partitions.  The Rust half of the
self-test (`cargo test --manifest-path perfbench/Cargo.toml`) checks the
stage rebuild and the traced searcher.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dupes = {k for k in keys if keys.count(k) > 1}
    if dupes:
        raise ValueError(f"repeated keys {sorted(dupes)}")
    return dict(pairs)


def run_tiny(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1], object_pairs_hook=no_duplicates)


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.results = {
            (w["name"], trace): run_tiny(w["name"], trace)
            for w in cls.spec["workloads"]
            for trace in (0, 1)
        }

    def check_metrics(self, trace, section):
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        for (workload, t), result in self.results.items():
            if t != trace:
                continue
            with self.subTest(workload=workload):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check_metrics(0, "end_to_end")

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check_metrics(1, "per_layer")

    def test_only_the_partition_workload_partitions(self):
        for (workload, trace), result in self.results.items():
            if trace == 1:
                partitions = result["metrics"]["partitions"]["value"]
                self.assertEqual(partitions > 0, workload == "powerlaw_partition", workload)


if __name__ == "__main__":
    unittest.main()
