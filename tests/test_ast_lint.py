#!/usr/bin/env python3
"""Self-test for tools/analyze/g80211_ast.py (the AST contract analyzer).

Exercises the fixture mini-repos under tools/analyze/testdata/: the
good/ tree must scan clean (exit 0), each seeded file under bad/ must
fail (exit 1) with exactly the expected rule IDs, the stale/ tree must
die with a configuration error (exit 2), and the NOLINT escape hatch
must silence every rule. Runs standalone (python3 tests/test_ast_lint.py)
and is registered with ctest as `ast_selftest`; the full-repo scan also
runs as the separate `ast_repo` test.
"""

import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
AST = REPO / "tools" / "analyze" / "g80211_ast.py"
TESTDATA = REPO / "tools" / "analyze" / "testdata"

ALL_RULES = {
    "callback-capture",
    "hot-path-alloc",
    "nondet-unordered-iter",
    "nondet-pointer-key",
    "shard-isolation",
    "event-path-throw",
}

FAILURES = []


def run(args):
    return subprocess.run([sys.executable, str(AST)] + args,
                          capture_output=True, text=True)


def tree(name, extra=None):
    """Arguments scanning fixture tree `name` with its own database."""
    base = TESTDATA / name
    return ["--root", str(base), "-p", str(base / "build"),
            "--no-cache"] + (extra or [])


def rules_in(output):
    return set(re.findall(r"\[([a-z-]+)\]", output))


def check(name, cond, detail=""):
    if cond:
        print(f"  ok  {name}")
    else:
        print(f"FAIL  {name}: {detail}")
        FAILURES.append(name)


def main():
    # 1. The good tree is clean: safe captures, arena allocation, ordered
    # iteration, value-type mailbox payloads, noexcept callbacks.
    p = run(tree("good"))
    check("good tree exits 0", p.returncode == 0,
          f"exit={p.returncode}\n{p.stdout}{p.stderr}")

    # 2. Each seeded bad fixture fails with exactly the expected rules.
    per_file = {
        "src/sim/capture_ref.cc": {"callback-capture"},
        "src/sim/hot_alloc.cc": {"hot-path-alloc"},
        "src/sim/unordered_iter.cc": {"nondet-unordered-iter"},
        "src/sim/pointer_key.cc": {"nondet-pointer-key"},
        "src/scenario/sharded_state.cc": {"shard-isolation"},
        "src/sim/event_throw.cc": {"event-path-throw"},
    }
    for rel, expected in per_file.items():
        p = run(tree("bad") + [rel])
        got = rules_in(p.stdout)
        check(f"{rel} exits 1", p.returncode == 1,
              f"exit={p.returncode}\n{p.stdout}{p.stderr}")
        check(f"{rel} flags exactly {sorted(expected)}", got == expected,
              f"got {sorted(got)}\n{p.stdout}")

    # 3. A full bad-tree scan surfaces every rule at once, and every
    # shape of nondet-unordered-iter is caught: range-for and iterator
    # loop over a member and over a local, and std::accumulate.
    p = run(tree("bad"))
    got = rules_in(p.stdout)
    check("bad tree exits 1", p.returncode == 1, f"exit={p.returncode}")
    check("bad tree covers all six rules", got == ALL_RULES,
          f"missing {sorted(ALL_RULES - got)}\n{p.stdout}")
    ui = [ln for ln in p.stdout.splitlines() if "nondet-unordered-iter" in ln]
    check("unordered_iter catches all five iteration shapes",
          len(ui) == 5, p.stdout)

    # 4. Findings carry stable path:line: [rule] shape (tooling greps it).
    check("output format is path:line: [rule]",
          all(re.match(r"^[\w/.-]+:\d+: \[[a-z-]+\] ", ln)
              for ln in p.stdout.splitlines()),
          p.stdout)

    # 5. Suppression: good/src/sim/suppressed.cc seeds real violations,
    # each silenced by an inline NOLINT(rule): reason — so it scans clean,
    # and stripping the NOLINT markers makes the findings come back.
    p = run(tree("good") + ["src/sim/suppressed.cc"])
    check("NOLINT-suppressed fixture exits 0", p.returncode == 0,
          f"exit={p.returncode}\n{p.stdout}{p.stderr}")
    src = (TESTDATA / "good" / "src" / "sim" / "suppressed.cc").read_text()
    stripped = re.sub(r"//\s*NOLINT(NEXTLINE)?\([^)]*\)[^\n]*", "", src)
    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td) / "good"
        for rel in ("src/sim", "build"):
            (tmp / rel).mkdir(parents=True)
        (tmp / "src/sim/suppressed.cc").write_text(stripped)
        (tmp / "build/compile_commands.json").write_text(
            '[{"directory": "..", "file": "src/sim/suppressed.cc", '
            '"command": "c++ -c src/sim/suppressed.cc"}]')
        p = run(["--root", str(tmp), "-p", str(tmp / "build"), "--no-cache",
                 "src/sim/suppressed.cc"])
        check("stripping NOLINT resurfaces the findings",
              p.returncode == 1 and rules_in(p.stdout),
              f"exit={p.returncode}\n{p.stdout}{p.stderr}")

    # 6. Configuration errors are distinct from findings: exit 2.
    p = run(tree("stale"))
    check("stale compile_commands.json exits 2", p.returncode == 2,
          f"exit={p.returncode}\n{p.stderr}")
    check("stale error names the orphaned TU and the fix",
          "stale" in p.stderr and "cmake" in p.stderr, p.stderr)

    p = run(["--root", str(TESTDATA / "good"),
             "-p", str(TESTDATA / "good" / "no_such_build")])
    check("missing compile_commands.json exits 2", p.returncode == 2,
          f"exit={p.returncode}\n{p.stderr}")
    check("missing-db error says how to regenerate",
          "cmake" in p.stderr, p.stderr)

    p = run(tree("good") + ["no/such/path.cc"])
    check("unknown path exits 2", p.returncode == 2,
          f"exit={p.returncode}\n{p.stderr}")

    # 7. The libclang frontend is a declared seam: without the clang
    # Python bindings it must fail loudly, never silently degrade.
    p = run(tree("good") + ["--frontend", "libclang"])
    check("libclang frontend fails loudly (exit 2)", p.returncode == 2,
          f"exit={p.returncode}\n{p.stderr}")

    # 8. --list-rules enumerates exactly the contract set.
    p = run(["--list-rules"])
    check("--list-rules lists all six rules",
          p.returncode == 0 and set(p.stdout.split()) == ALL_RULES,
          p.stdout)

    # 9. The AST cache is transparent: a cold run and a warm run over the
    # bad tree produce byte-identical findings.
    with tempfile.TemporaryDirectory() as td:
        base = TESTDATA / "bad"
        args = ["--root", str(base), "-p", str(base / "build"),
                "--cache-dir", str(Path(td) / "cache")]
        cold = run(args)
        warm = run(args)
        check("cache round-trip is transparent",
              cold.returncode == warm.returncode == 1
              and cold.stdout == warm.stdout,
              f"cold:\n{cold.stdout}\nwarm:\n{warm.stdout}")

    # 10. The real repository scans clean (also registered as `ast_repo`).
    if (REPO / "build" / "compile_commands.json").is_file():
        p = run(["--root", str(REPO), "-p", str(REPO / "build")])
        check("repository scans clean", p.returncode == 0,
              f"exit={p.returncode}\n{p.stdout}{p.stderr}")
    else:
        print("  --  repository scan skipped (no build/compile_commands.json;"
              " covered by the ast_repo ctest)")

    if FAILURES:
        print(f"\n{len(FAILURES)} failing check(s): {FAILURES}")
        return 1
    print("\nall AST analyzer self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
