#!/usr/bin/env python3
"""tools/perf_ab.py against a stub benchmark runner.

The stub stands in for `perfbench/run.py`: run in a tree, it prints one
result line whose end-to-end metrics are the tree's `stub_speed` file times
a base value, with a small deterministic jitter, so each case knows which
side should win. The cases check:

  * a change 20% faster wins every pair and meets the claim rule, while a
    metric that did not move reads "unresolved";
  * equal trees read "unresolved" and a slower change "worse", including
    for a lower-is-better metric;
  * runs alternate between the trees, and which runs first alternates
    from pair to pair;
  * a runner that fails stops the script with exit status 2;
  * with --parent REV the parent is a `git worktree` of REV under the
    changed tree's .bench_build/perf_ab/ (skipped without git).

Usage: python3 tests/test_perf_ab.py    (registered with ctest as perf_ab)
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "perf_ab.py"

SPEC = {"end_to_end": [
    {"name": "sim_s_per_wall_s", "unit": "sim-s/s", "better": "higher"},
    {"name": "setup_s", "unit": "s", "better": "lower"},
]}

# Prints a result line for the tree it runs in and logs the tree's name to
# ../order.log. setup_s scales with `stub_setup` (default 1).
STUB = r'''
import json, sys
from pathlib import Path
here = Path.cwd()
log = here.parent / "order.log"
n = len(log.read_text().splitlines()) if log.exists() else 0
with log.open("a") as f:
    f.write(here.name + "\n")
if (here / "stub_fail").exists():
    sys.exit(3)
speed = float((here / "stub_speed").read_text())
setup_file = here / "stub_setup"
setup = float(setup_file.read_text()) if setup_file.exists() else 1.0
jitter = 1.0 + 0.01 * ((n * 7) % 5 - 2)
print("context line")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    "sim_s_per_wall_s": {"value": 1000.0 * speed * jitter, "unit": "sim-s/s"},
    "setup_s": {"value": 4e-5 * setup * jitter, "unit": "s"}}}))
'''

FAILURES = []


def check(name, ok, detail=""):
    print(("ok   " if ok else "FAIL ") + name)
    if not ok:
        FAILURES.append(name)
        if detail:
            print("     " + detail.replace("\n", "\n     "))


def make_tree(base, name, speed, setup=None):
    tree = base / name
    tree.mkdir()
    (tree / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (tree / "stub_speed").write_text(str(speed))
    if setup is not None:
        (tree / "stub_setup").write_text(str(setup))
    return tree


def run_tool(base, extra):
    stub = base / "stub.py"
    stub.write_text(STUB)
    out = base / "summary.json"
    cmd = [sys.executable, str(TOOL), "--workload", "sweep", "--seed", "1",
           "--seconds", "1", "--runner", f"{sys.executable} {stub}",
           "--json", str(out)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    summary = (json.loads(out.read_text())["summary"]
               if proc.returncode == 0 else [])
    return proc, {row["metric"]: row for row in summary}


def case(speeds, setups=(None, None), pairs=10):
    base = Path(tempfile.mkdtemp(prefix="perf_ab_"))
    try:
        parent = make_tree(base, "parent", speeds[0], setups[0])
        change = make_tree(base, "change", speeds[1], setups[1])
        proc, rows = run_tool(base, ["--parent-tree", str(parent), "--tree",
                                     str(change), "--pairs", str(pairs)])
        order = (base / "order.log").read_text().split()
        return proc, rows, order
    finally:
        shutil.rmtree(base)


def main():
    proc, rows, order = case((1.0, 1.2))
    check("faster change exits 0", proc.returncode == 0, proc.stderr)
    speed = rows.get("sim_s_per_wall_s", {})
    check("faster change wins 10/10", speed.get("wins") == 10, str(speed))
    check("faster change meets the claim rule",
          speed.get("verdict") == "claim holds", str(speed))
    check("ratio of medians near 1.2",
          abs(speed.get("ratio", 0) - 1.2) < 0.02, str(speed))
    check("an unmoved metric is unresolved",
          rows.get("setup_s", {}).get("verdict") == "unresolved",
          str(rows.get("setup_s")))
    check("runs alternate, each side first in every other pair",
          order == ["parent", "change", "change", "parent"] * 5, str(order))
    check("summary prints every metric",
          "sim_s_per_wall_s" in proc.stdout and "setup_s" in proc.stdout,
          proc.stdout)

    proc, rows, _ = case((1.0, 1.0))
    check("equal trees are unresolved",
          rows.get("sim_s_per_wall_s", {}).get("verdict") == "unresolved",
          str(rows.get("sim_s_per_wall_s")))

    proc, rows, _ = case((1.0, 0.8), setups=(1.0, 1.3))
    check("slower change is worse",
          rows.get("sim_s_per_wall_s", {}).get("verdict") == "worse",
          str(rows.get("sim_s_per_wall_s")))
    check("higher setup_s is worse (lower is better)",
          rows.get("setup_s", {}).get("verdict") == "worse"
          and rows["setup_s"]["wins"] == 0, str(rows.get("setup_s")))

    proc, rows, _ = case((1.0, 1.0), setups=(1.0, 0.7))
    check("lower setup_s meets the claim rule",
          rows.get("setup_s", {}).get("verdict") == "claim holds",
          str(rows.get("setup_s")))

    base = Path(tempfile.mkdtemp(prefix="perf_ab_"))
    try:
        parent = make_tree(base, "parent", 1.0)
        change = make_tree(base, "change", 1.0)
        (change / "stub_fail").write_text("")
        proc, _ = run_tool(base, ["--parent-tree", str(parent), "--tree",
                                  str(change), "--pairs", "2"])
        check("a failing runner exits 2", proc.returncode == 2,
              f"exit={proc.returncode}\n{proc.stderr}")
        check("the failure names the tree", str(change) in proc.stderr,
              proc.stderr)
    finally:
        shutil.rmtree(base)

    if shutil.which("git") is None:
        print("skip worktree case: git not found")
    else:
        base = Path(tempfile.mkdtemp(prefix="perf_ab_"))
        try:
            repo = make_tree(base, "repo", 1.0)
            git = ["git", "-c", "user.name=perf_ab", "-c",
                   "user.email=perf_ab@localhost", "-C", str(repo)]
            for args in (["init", "-q"], ["add", "-A"],
                         ["commit", "-q", "-m", "parent"]):
                subprocess.run(git + args, check=True)
            (repo / "stub_speed").write_text("1.3")  # the uncommitted change
            proc, rows = run_tool(base, ["--parent", "HEAD", "--tree",
                                         str(repo), "--pairs", "3"])
            check("worktree run exits 0", proc.returncode == 0, proc.stderr)
            worktrees = [p for p in
                         (repo / ".bench_build" / "perf_ab").iterdir()
                         if p.is_dir()]
            check("parent worktree under .bench_build/perf_ab",
                  len(worktrees) == 1
                  and (worktrees[0] / "stub_speed").read_text() == "1.0",
                  str(worktrees))
            check("worktree parent runs the committed tree",
                  abs(rows.get("sim_s_per_wall_s", {}).get("ratio", 0) - 1.3)
                  < 0.03, str(rows.get("sim_s_per_wall_s")))
        finally:
            shutil.rmtree(base)

    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
