"""Reduced-scale tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

The first test builds the program and the benchmark (release), which takes
about a minute on a cold target directory.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# Reduced scales. `serve` warms its caches before measuring, so it needs
# enough data and time for a flush or a compaction to cost block reads, or
# `sst_reads_per_op` is 0.
SMALL = {
    "dynamic": ["--seconds", "1", "--scale", "0.05"],
    "ingest": ["--seconds", "1", "--scale", "0.05"],
    "serve": ["--seconds", "8", "--scale", "0.5"],
}


def bench(workload, seed, trace):
    """Runs one reduced-scale workload; returns its result object."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + SMALL[workload]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsMatchSpec(unittest.TestCase):
    def check(self, workload, trace):
        result = bench(workload, 1, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        want = {m["name"]: m["unit"] for m in spec}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, f"{workload} {name} must never be 0")
        if trace:
            self.assertEqual(result["metrics"]["error_rate"]["value"], 0)

    def test_dynamic(self):
        self.check("dynamic", 0)
        self.check("dynamic", 1)

    def test_ingest(self):
        self.check("ingest", 0)
        self.check("ingest", 1)

    def test_serve(self):
        self.check("serve", 0)
        self.check("serve", 1)


class DynamicIsDeterministic(unittest.TestCase):
    """The I/O outcomes of `dynamic` repeat exactly for a seed."""

    def outcomes(self, seed):
        e2e = bench("dynamic", seed, 0)["metrics"]
        layers = bench("dynamic", seed, 1)["metrics"]
        return {
            "sst_reads_per_op": e2e["sst_reads_per_op"]["value"],
            "hit_rate": layers["hit_rate"]["value"],
            "write_amp": layers["write_amp"]["value"],
            "sim_throughput_ops": layers["sim_throughput_ops"]["value"],
        }

    def test_same_seed_same_outcomes_other_seed_differs(self):
        a, b, c = self.outcomes(7), self.outcomes(7), self.outcomes(8)
        self.assertEqual(a, b)
        for name in a:
            self.assertNotEqual(a[name], c[name], name)


class FailsWithoutTheProgram(unittest.TestCase):
    def test_benchmark_alone_exits_nonzero_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "dynamic", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
