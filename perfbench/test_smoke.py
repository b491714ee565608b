#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/test_smoke.py      # from the repository root, ~1 min

Runs every workload at the shortest length, untraced and traced, through
perfbench/run.py, and checks that every metric BENCHMARK.json declares is
printed with its unit, that no op failed, and that the traced run wrote its
spans. Also checks that run.py fails, without printing a result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class BenchmarkSmoke(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines[:-1])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        if trace:
            spans = next(l.split(" ", 2)[2] for l in lines
                         if l.startswith("context spans "))
            self.assertGreater((ROOT / spans).stat().st_size, 0)
        else:
            self.assertIn("metric ops_failed_ratio 0 ratio", lines)
            for m in declared:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   m["name"])

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "perfbench-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("city", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
