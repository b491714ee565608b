#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload city --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (the simulator library plus the perfbench binary, Release + LTO)
under .bench_build/perfbench; later calls rebuild only what changed. The
binary's own report lines pass through to stdout, and the last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end_to_end metrics of BENCHMARK.json (--trace 0) or
its per_layer metrics (--trace 1). Build output goes to stderr. Exits
non-zero, without a result line, when the sources are missing, the build
fails, or the binary does not produce every declared metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("city", "sweep", "backhaul", "capture")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found on PATH")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append([cmake, "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    declared = declared_metrics(args.trace)
    binary = build()
    work = BUILD / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=3 * args.seconds + 90)
    except subprocess.TimeoutExpired:
        fail("the benchmark binary did not finish in time")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"the benchmark binary printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"the benchmark binary's last line is not JSON "
             f"(exit {proc.returncode})")

    context = result.get("context", {})
    if context.get("g80211_build_type") != "release" or context.get("lto") != "on":
        fail("refusing to report from a non-Release (LTO) build")
    measured = result["metrics"]
    missing = [n for n, unit in declared.items()
               if n not in measured or measured[n]["unit"] != unit]
    if missing:
        fail("the benchmark binary did not report " + ", ".join(missing))

    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: measured[n] for n in declared},
    }))


if __name__ == "__main__":
    main()
