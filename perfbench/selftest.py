#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload the driver defines (those of BENCHMARK.json and
bh-native) at toy size through run.py, which builds the driver on first
use, and checks that:
  * with --trace 0 and --trace 1 the result line parses and carries exactly
    the end-to-end / per-layer metrics BENCHMARK.json names, each with its
    unit, and every one is also printed as a `metric NAME = VALUE UNIT` line;
  * a corrupted reference makes the run fail: fail_frac > 0, correct is
    false and the exit code is non-zero;
  * the driver's own flags reject nonsense with exit code 2.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

TOY = {
    "bh-native": ["--bodies", "256", "--nodes", "4", "--workers", "2",
                  "--steps", "2"],
    "em3d-native": ["--objects", "32", "--nodes", "4", "--workers", "2",
                    "--steps", "2"],
    "fmm-proc": ["--particles", "256", "--terms", "4", "--nodes", "4",
                 "--procs", "2", "--workers", "1"],
    "bh-sim": ["--bodies", "256", "--nodes", "4", "--steps", "2"],
}
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)")
assert {w["name"] for w in SPEC["workloads"]} <= set(TOY)


def run(workload, *extra, trace="0"):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", trace, *TOY.get(workload, []), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return done.returncode, done.stdout, done.stderr


def printed_metrics(stdout):
    found = {}
    for line in stdout.splitlines():
        m = METRIC_LINE.match(line)
        if m:
            found[m.group(1)] = (float(m.group(2)), m.group(3))
    return found


class Workloads(unittest.TestCase):
    def check_metrics(self, workload, trace, spec_key):
        code, out, err = run(workload, trace=trace)
        self.assertEqual(code, 0, f"{workload} trace={trace}:\n{out}\n{err}")
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want, f"{workload} trace={trace}")
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))
        printed = printed_metrics(out)
        for name, unit in want.items():
            self.assertIn(name, printed, f"{workload}: {name} not printed")
            self.assertEqual(printed[name][1], unit)
        self.assertIn("fail_frac", printed)
        self.assertTrue(any(l.startswith("manifest {") for l in
                            out.splitlines()))

    def test_end_to_end_metrics(self):
        for w in TOY:
            with self.subTest(workload=w):
                self.check_metrics(w, "0", "end_to_end")

    def test_per_layer_metrics(self):
        for w in TOY:
            with self.subTest(workload=w):
                self.check_metrics(w, "1", "per_layer")

    def test_corrupted_reference_fails(self):
        for w in TOY:
            with self.subTest(workload=w):
                code, out, _ = run(w, "--corrupt-reference")
                self.assertNotEqual(code, 0)
                result = json.loads(out.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(printed_metrics(out)["fail_frac"][0], 0)


class Flags(unittest.TestCase):
    def rejected(self, workload, *extra):
        code, out, err = run(workload, *extra)
        self.assertEqual(code, 2, f"{extra}: exit {code}\n{out}\n{err}")
        self.assertIn("dpa_perfbench:", err)
        self.assertNotIn('"correct"', out)

    def test_unknown_workload(self):
        self.rejected("bh-gpu")

    def test_non_positive_sizes(self):
        for flag in ("--bodies", "--nodes", "--steps", "--objects"):
            for value in ("0", "-4", "x"):
                with self.subTest(flag=flag, value=value):
                    self.rejected("bh-native", flag, value)

    def test_threads_above_cores_or_nodes(self):
        nproc = os.cpu_count() or 1
        self.rejected("bh-native", "--workers", str(nproc + 1))
        self.rejected("bh-native", "--nodes", "1", "--workers", "2")
        self.rejected("fmm-proc", "--procs", str(nproc + 1))
        self.rejected("fmm-proc", "--procs", "2", "--workers", str(nproc))

    def test_flags_that_do_not_apply(self):
        self.rejected("bh-sim", "--workers", "1")
        self.rejected("bh-native", "--procs", "1")
        self.rejected("bh-native", "--frobnicate", "1")
        self.rejected("bh-native", "--trace", "2")


if __name__ == "__main__":
    unittest.main()
