#!/usr/bin/env python3
"""The benchmark's own tests: output format, determinism and seed sensitivity.

    python3 perfbench/test_perfbench.py [-k <pattern>]

Run from the root of a checkout; builds through run.py first. Each test runs
the benchmark for real (a few runs of about 15 s per workload).
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORK = os.path.join(
    os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
    "perfbench-test")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, seed, trace=0, cwd=ROOT, exact=True):
    """Runs one workload; returns (exit code, result JSON or None, exact)."""
    os.makedirs(WORK, exist_ok=True)
    exact_path = os.path.join(WORK, "exact-%s-%d-%d.json" % (workload, seed, trace))
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if exact:
        cmd += ["--exact-out", exact_path]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    figures = None
    if exact and proc.returncode == 0:
        with open(exact_path) as f:
            figures = json.load(f)
    return proc.returncode, result, figures


class PerfbenchTest(unittest.TestCase):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]

    def check_result(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(names))
        for m in result["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})

    def test_seed_determines_virtual_figures(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        layer = [m["name"] for m in self.spec["per_layer"]]
        for w in self.workloads:
            with self.subTest(workload=w):
                code, first, a = bench(w, seed=7)
                self.assertEqual(code, 0)
                self.check_result(first, e2e)
                for name, m in first["metrics"].items():
                    self.assertEqual(m["unit"], e2e[name]["unit"])
                    self.assertGreater(m["value"], 0, name)
                # Same seed, another process: identical virtual-time and
                # count figures for both input streams.
                code, _, b = bench(w, seed=7)
                self.assertEqual(code, 0)
                self.assertEqual(a, b)
                # The traced run reproduces them too (and checks so itself).
                code, traced, t = bench(w, seed=7, trace=1)
                self.assertEqual(code, 0)
                self.check_result(traced, layer)
                self.assertEqual(t["stream0"], a["stream0"])
                # Another seed gives other inputs, so other figures.
                code, _, c = bench(w, seed=8)
                self.assertEqual(code, 0)
                self.assertNotEqual(c["stream0"], a["stream0"])
                self.assertNotEqual(a["stream0"], a["stream1"])

    def test_fails_without_engine_sources(self):
        bare = os.path.join(WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in self.spec["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        proc = subprocess.run(
            [sys.executable, os.path.join(bare, "perfbench", "run.py"),
             "--workload", self.workloads[0], "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
