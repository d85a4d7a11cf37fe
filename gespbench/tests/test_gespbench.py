#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the solver).

    python3 gespbench/tests/test_gespbench.py

Builds the gespbench binary like run.py does, then checks that a seed
fixes the request sequence and the deterministic counts, that another seed
changes the sequence, that every metric the binary prints is named in
BENCHMARK.json (and vice versa), and that the benchmark refuses to run
without the solver sources. Takes about half a minute.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counts that depend only on the seed, never on timing.
DETERMINISTIC = ["symbolic.pairs", "symbolic.nsup", "core.delta_partial_frac",
                 "core.delta_full_frac", "core.delta_smw_frac",
                 "core.delta_dirty_frac"]

_exe = None


BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def exe():
    global _exe
    if _exe is None:
        _exe = run.build(BUILD)
    return _exe


def requests(workload, seed, count=12):
    out = subprocess.run([exe(), "--list-requests", str(count), "--workload",
                          workload, "--seed", str(seed)],
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def bench(workload, seed, trace, seconds=1):
    out = subprocess.run([exe(), "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, timeout=170)
    result = json.loads(out.stdout.splitlines()[-1])
    return out.returncode, result


class SeedTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = requests(w, 7)
                self.assertEqual(len(first), 12)
                self.assertEqual(first, requests(w, 7))

    def test_other_seed_other_requests(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(requests(w, 7), requests(w, 8))

    def test_deterministic_counts_repeat(self):
        for w in ("transient", "serve"):
            with self.subTest(workload=w):
                code1, r1 = bench(w, 5, 1)
                code2, r2 = bench(w, 5, 1)
                self.assertEqual((code1, code2), (0, 0))
                for m in DETERMINISTIC:
                    self.assertEqual(r1["metrics"][m]["value"],
                                     r2["metrics"][m]["value"], m)
                self.assertGreater(r1["metrics"]["symbolic.pairs"]["value"], 0)


class NameTest(unittest.TestCase):
    def test_spec_names(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names + WORKLOADS:
            self.assertRegex(n, NAME)

    def test_printed_metrics_match_spec(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                code, r = bench("serve", 3, trace)
                self.assertEqual(code, 0)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                spec = {m["name"]: m["unit"] for m in SPEC[section]}
                printed = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(printed, spec)


class ContractTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        exe()  # creates the build directory the scratch copy lives in
        with tempfile.TemporaryDirectory(dir=BUILD) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(BENCH, os.path.join(d, "gespbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=170,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
