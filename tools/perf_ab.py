#!/usr/bin/env python3
"""Alternating A/B runs of the repository benchmark: a parent tree against this one.

    python3 tools/perf_ab.py --parent HEAD~1 --workload sweep --seed 1 \\
        --seconds 25 --pairs 10

A speed claim compares two trees on one host by alternating runs, because
the host's speed drifts by more than most changes are worth. This script
runs that procedure. It checks out the parent revision with `git worktree`
under .bench_build/perf_ab/ (or takes an existing checkout with
--parent-tree), then runs `perfbench/run.py --trace 0` in the parent tree
and in this tree by turns, --pairs times, each tree building its own
perfbench. Which tree runs first alternates from pair to pair (parent
first in odd pairs), so a drift in the host's speed favours neither. It
edits nothing in either tree; the worktree stays for the next call
(remove it with `git worktree remove`).

For every end-to-end metric of this tree's BENCHMARK.json it prints each
side's median and quartiles, the ratio of the medians, how many pairs the
change won, and whether the claim rule holds: the change wins at least
nine pairs in ten, and its median beats the parent's by more than the
parent's interquartile range. A metric whose difference is smaller than
the spread reads "unresolved", not "unchanged". The claim rule is
ROADMAP.md's "Claiming a gain"; the script reports it and decides nothing.

--runner replaces `python3 perfbench/run.py` (it is run in each tree and
gets the same flags), so the script can be tested without the benchmark.
"""

import argparse
import json
import math
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(message):
    print(f"perf_ab: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args, cwd):
    proc = subprocess.run(["git", *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        fail(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def parent_worktree(tree, rev):
    """A detached worktree of `rev` under <tree>/.bench_build/perf_ab/."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=tree)
    path = tree / ".bench_build" / "perf_ab" / sha[:12]
    if not (path / ".git").exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        git("worktree", "add", "--detach", str(path), sha, cwd=tree)
    return path


def run_once(runner, tree, args):
    cmd = runner + ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail(f"{' '.join(cmd)} in {tree} exited {proc.returncode} "
             "without a result line")
    try:
        result = json.loads(lines[-1])
        return result, {k: v["value"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as err:
        fail(f"unreadable result line from {tree}: {err}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(metric, parent, change):
    """One summary row for a metric: medians, quartiles, wins, claim."""
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    gain = (c_med - p_med) if higher else (p_med - c_med)
    iqr = p_q3 - p_q1
    pairs = len(parent)
    if wins >= math.ceil(0.9 * pairs) and gain > iqr:
        state = "claim holds"
    elif -gain > iqr and pairs - wins >= math.ceil(0.9 * pairs):
        state = "worse"
    else:
        state = "unresolved"
    ratio = c_med / p_med if p_med else float("nan")
    return {"metric": metric["name"], "unit": metric["unit"],
            "parent": [p_med, p_q1, p_q3], "change": [c_med, c_q1, c_q3],
            "ratio": ratio, "wins": wins, "pairs": pairs,
            "difference": gain, "parent_iqr": iqr, "verdict": state}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", help="git revision to compare against")
    side.add_argument("--parent-tree", type=Path,
                      help="an existing checkout of the parent")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the changed tree (default: this checkout)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--runner", default=f"{sys.executable} perfbench/run.py",
                        help="benchmark command, run in each tree")
    parser.add_argument("--json", type=Path,
                        help="also write every run and the summary here")
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    tree = args.tree.resolve()
    spec_path = tree / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    metrics = json.loads(spec_path.read_text())["end_to_end"]
    parent_tree = (args.parent_tree.resolve() if args.parent_tree
                   else parent_worktree(tree, args.parent))
    runner = shlex.split(args.runner)

    runs = {"parent": [], "change": []}
    sides = (("parent", parent_tree), ("change", tree))
    for i in range(args.pairs):
        for name, where in sides if i % 2 == 0 else sides[::-1]:
            result, values = run_once(runner, where, args)
            runs[name].append({"attempted": result.get("attempted"),
                               "failed": result.get("failed"),
                               "metrics": values})
            shown = ", ".join(f"{m['name']}={values.get(m['name'])}"
                              for m in metrics[:1])
            print(f"pair {i + 1}/{args.pairs} {name}: {shown}", flush=True)

    rows = []
    for m in metrics:
        parent = [r["metrics"][m["name"]] for r in runs["parent"]
                  if m["name"] in r["metrics"]]
        change = [r["metrics"][m["name"]] for r in runs["change"]
                  if m["name"] in r["metrics"]]
        if len(parent) != args.pairs or len(change) != args.pairs:
            fail(f"metric {m['name']} missing from some runs")
        rows.append(verdict(m, parent, change))

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} alternating "
          f"{args.seconds} s pairs (parent {parent_tree})")
    print(f"{'metric':<18} {'parent median [q1-q3]':>34} "
          f"{'change median [q1-q3]':>34} {'ratio':>7} {'wins':>6}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['metric']:<18} {p[0]:>12.6g} [{p[1]:.6g}-{p[2]:.6g}] "
              f"{c[0]:>12.6g} [{c[1]:.6g}-{c[2]:.6g}] {r['ratio']:>7.3f} "
              f"{r['wins']:>2}/{r['pairs']:<3}  {r['verdict']}")
    for name in ("parent", "change"):
        failed = sum(r["failed"] or 0 for r in runs[name])
        attempted = sum(r["attempted"] or 0 for r in runs[name])
        print(f"{name}: {failed} of {attempted} operations failed")
    if args.json:
        args.json.write_text(json.dumps({"runs": runs, "summary": rows},
                                        indent=1) + "\n")


if __name__ == "__main__":
    main()
