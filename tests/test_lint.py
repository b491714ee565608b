#!/usr/bin/env python3
"""Self-test for tools/lint/g80211_lint.py.

Exercises the fixture tree under tools/lint/testdata/: the good/ tree
must scan clean (exit 0), each seeded file under bad/ must fail (exit 1)
with exactly the expected rule IDs, and a broken configuration must exit
2. Runs standalone (python3 tests/test_lint.py) and is registered with
ctest as `lint_selftest`.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
LINT = REPO / "tools" / "lint" / "g80211_lint.py"
TESTDATA = REPO / "tools" / "lint" / "testdata"
DEPS = TESTDATA / "deps.toml"

FAILURES = []


def run(args):
    return subprocess.run([sys.executable, str(LINT)] + args,
                          capture_output=True, text=True)


def rules_in(output):
    return set(re.findall(r"\[([a-z-]+)\]", output))


def check(name, cond, detail=""):
    if cond:
        print(f"  ok  {name}")
    else:
        print(f"FAIL  {name}: {detail}")
        FAILURES.append(name)


def main():
    # 1. The good tree is clean, self-containedness included.
    p = run(["--root", str(TESTDATA / "good"), "--deps", str(DEPS)])
    check("good tree exits 0", p.returncode == 0,
          f"exit={p.returncode}\n{p.stdout}{p.stderr}")

    # 2. Each seeded bad fixture fails with exactly the expected rules.
    per_file = {
        "src/sim/layering_violation.h": {"layering"},
        "src/sim/monitor_dependency.h": {"layering"},
        "src/mac/nested_dependency.h": {"layering"},
        "src/sim/relative_include.cc": {"layering"},
        "src/sim/random.cc": {"nondet-random"},
        "src/sim/wallclock.cc": {"nondet-wallclock"},
        "src/sim/steadyclock.cc": {"nondet-steadyclock"},
        "src/sim/bare_assert.cc": {"bare-assert"},
        "src/sim/packet_heap.cc": {"packet-arena"},
        "src/sim/guarded.h": {"pragma-once"},
        "src/sim/include_order.cc": {"include-order"},
    }
    for rel, expected in per_file.items():
        p = run(["--root", str(TESTDATA / "bad"), "--deps", str(DEPS),
                 "--no-self-contained", rel])
        got = rules_in(p.stdout)
        check(f"{rel} exits 1", p.returncode == 1,
              f"exit={p.returncode}\n{p.stdout}{p.stderr}")
        check(f"{rel} flags exactly {sorted(expected)}", got == expected,
              f"got {sorted(got)}\n{p.stdout}")

    # 2b. Nested layers resolve by longest prefix: a file *inside*
    # mac/ext may use its parent layer and scans clean.
    p = run(["--root", str(TESTDATA / "bad"), "--deps", str(DEPS),
             "--no-self-contained", "src/mac/ext/stub.h"])
    check("mac/ext/stub.h (nested layer) scans clean", p.returncode == 0,
          f"exit={p.returncode}\n{p.stdout}{p.stderr}")

    # 3. The compiler-backed rule, on its own fixture.
    p = run(["--root", str(TESTDATA / "bad"), "--deps", str(DEPS),
             "src/sim/not_self_contained.h"])
    check("not_self_contained.h exits 1", p.returncode == 1,
          f"exit={p.returncode}\n{p.stdout}{p.stderr}")
    check("not_self_contained.h flags self-contained",
          "self-contained" in rules_in(p.stdout), p.stdout)

    # 4. Violation counts per fixture line up (multi-hit files report
    # every banned symbol, not just the first).
    p = run(["--root", str(TESTDATA / "bad"), "--deps", str(DEPS),
             "--no-self-contained", "src/sim/random.cc"])
    check("random.cc reports 3 findings",
          len(p.stdout.strip().splitlines()) == 3, p.stdout)

    # 5. A full bad-tree scan surfaces every rule at once.
    p = run(["--root", str(TESTDATA / "bad"), "--deps", str(DEPS)])
    expected_all = set().union(*per_file.values()) | {"self-contained"}
    got = rules_in(p.stdout)
    check("bad tree exits 1", p.returncode == 1, f"exit={p.returncode}")
    check("bad tree covers all rules", expected_all <= got,
          f"missing {sorted(expected_all - got)}\n{p.stdout}")

    # 6. Findings carry stable file:line: [rule] shape (tooling greps it).
    check("output format is path:line: [rule]",
          all(re.match(r"^[\w/.-]+:\d+: \[[a-z-]+\] ", ln)
              for ln in p.stdout.splitlines() if not ln.startswith("g80211")),
          p.stdout)

    # 7. Config errors are distinct from findings: exit 2.
    p = run(["--root", str(TESTDATA / "good"),
             "--deps", str(TESTDATA / "no_such_deps.toml")])
    check("missing deps.toml exits 2", p.returncode == 2,
          f"exit={p.returncode}\n{p.stderr}")
    p = run(["--root", str(TESTDATA / "good"), "--deps", str(DEPS),
             "no/such/dir"])
    check("unknown path exits 2", p.returncode == 2,
          f"exit={p.returncode}\n{p.stderr}")

    # 8. The real repository scans clean (fast rules only here; the full
    # scan with self-containedness runs as the separate `lint_repo` test).
    p = run(["--root", str(REPO), "--no-self-contained"])
    check("repository scans clean", p.returncode == 0,
          f"exit={p.returncode}\n{p.stdout}{p.stderr}")

    if FAILURES:
        print(f"\n{len(FAILURES)} failing check(s): {FAILURES}")
        return 1
    print("\nall lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
