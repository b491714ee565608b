#!/usr/bin/env python3
"""g80211_lint — project-specific static analysis for the 802.11 simulator.

The golden-output guards (fig1 hash, capture live-vs-replay equivalence,
the G80211_JOBS=1 bit-identity reference) are only meaningful while two
properties hold everywhere in src/: no hidden nondeterminism, and no
layering leaks that let low layers observe high-layer state. This tool
machine-checks both, plus a few hygiene rules the reviews kept repeating.

Rules (IDs are stable; tests and NOLINT suppressions reference them):

  layering              #include crosses a layer boundary not allowed by
                        tools/lint/deps.toml (or uses a project include
                        not rooted at "src/").
  nondet-random         std::random_device / rand() / srand() /
                        std::default_random_engine / default-constructed
                        std::mt19937 outside src/sim/rng.* — all draws
                        must flow through the seeded splitmix RNG.
  nondet-wallclock      wall-clock time (std::chrono::system_clock,
                        time(), gettimeofday, localtime, ...) anywhere in
                        src/: simulation output may depend only on sim
                        time.
  nondet-steadyclock    steady_clock / high_resolution_clock outside
                        src/runner/ (the campaign runner may measure
                        elapsed host time for progress reporting; the
                        engine may not).
  bare-assert           assert( in src/: compiles out under NDEBUG, i.e.
                        in exactly the builds the golden guards run.
                        Use G80211_CHECK / G80211_DCHECK (src/sim/check.h).
  packet-arena          `new Packet` / make_shared<Packet> /
                        make_unique<Packet> outside src/net/packet.h:
                        Packets must come from the arena via make_packet()
                        so the steady-state hot path never touches the
                        heap.
  pragma-once           header missing #pragma once, or carrying a
                        #ifndef include guard (the project standard is
                        #pragma once, uniformly).
  include-order         system includes before project includes (own
                        header first in a .cc), each contiguous run
                        sorted — keeps diffs clean and makes the
                        layering check's output stable.
  self-contained        a header that does not compile on its own
                        (g++ -fsyntax-only on a TU containing just that
                        #include).

Iteration over std::unordered_* containers is checked by the AST
analyzer's nondet-unordered-iter rule (tools/analyze/g80211_ast.py),
which also sees member containers and iterator-pair algorithms.

Suppression: append  // NOLINT(<rule-id>): <reason>  to the offending
line. Only the named rules are suppressed; clang-tidy NOLINTs with other
ids do not silence this tool. See docs/static-analysis.md for policy.

Exit codes: 0 clean, 1 findings, 2 configuration/usage error.
"""

import argparse
import concurrent.futures
import re
import subprocess
import sys
import tempfile
import tomllib
from pathlib import Path

RULES = [
    "layering",
    "nondet-random",
    "nondet-wallclock",
    "nondet-steadyclock",
    "bare-assert",
    "packet-arena",
    "pragma-once",
    "include-order",
    "self-contained",
]

# Paths (relative, '/'-separated prefixes) exempt from specific rules.
ALLOW = {
    "nondet-random": ("src/sim/rng.h", "src/sim/rng.cc"),
    "nondet-steadyclock": ("src/runner/",),
    "bare-assert": ("src/sim/check.h",),
    "packet-arena": ("src/net/packet.h",),
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')
NOLINT_RE = re.compile(r"NOLINT\(([^)]*)\)")

RANDOM_RE = re.compile(
    r"std::random_device"
    r"|(?<![\w:.])srand\s*\("
    r"|(?<![\w:.])rand\s*\("
    r"|std::default_random_engine"
    r"|\bstd::mt19937(?:_64)?\s+\w+\s*;"
)
WALLCLOCK_RE = re.compile(
    r"system_clock|gettimeofday|(?<![\w.])time\s*\(|\blocaltime\b|\bgmtime\b"
    r"|\bstrftime\b|(?<![\w.])clock\s*\("
)
STEADY_RE = re.compile(r"steady_clock|high_resolution_clock")
ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
GUARD_RE = re.compile(r"^\s*#\s*ifndef\s+\w+_H_?\b")
# Heap-allocating a Packet bypasses the arena (src/net/packet.h): `new
# Packet` and smart-pointer factories over Packet. `Packet\b` keeps
# PacketArena/PacketPtr out; `[^\[]` keeps make_unique<Packet[]> (the
# arena's own chunk storage) out.
PACKET_HEAP_RE = re.compile(
    r"\bnew\s+Packet\b"
    r"|make_shared\s*<\s*Packet\s*>"
    r"|make_unique\s*<\s*Packet\s*>"
)


def allowed(rule, rel):
    return any(rel == p or rel.startswith(p) for p in ALLOW.get(rule, ()))


class Findings:
    def __init__(self):
        self.items = []

    def add(self, rel, line_no, rule, msg, raw_line=""):
        m = NOLINT_RE.search(raw_line)
        if m and rule in (s.strip() for s in m.group(1).split(",")):
            return
        self.items.append((str(rel), line_no, rule, msg))


def strip_comments(text):
    """Blank out comments and string/char literal contents, keeping line
    structure, so rule regexes never fire on prose or log strings."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a string/char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def load_layers(deps_path):
    try:
        with open(deps_path, "rb") as f:
            cfg = tomllib.load(f)
    except (OSError, tomllib.TOMLDecodeError) as e:
        print(f"g80211_lint: cannot read {deps_path}: {e}", file=sys.stderr)
        sys.exit(2)
    layers = cfg.get("layers")
    if not isinstance(layers, dict):
        print(f"g80211_lint: {deps_path} has no [layers] table", file=sys.stderr)
        sys.exit(2)
    exceptions = cfg.get("exceptions", {})
    return layers, exceptions


def live_includes(raw, stripped):
    """(line_no, kind, target) for every non-commented-out #include.

    Paths are parsed from the raw line (the comment stripper blanks
    string-literal contents); the stripped line gates out includes that
    sit inside comments.
    """
    incs = []
    for i, (raw_line, s_line) in enumerate(zip(raw, stripped), 1):
        m = INCLUDE_RE.match(raw_line)
        if m and s_line.lstrip().startswith("#"):
            incs.append((i, m.group(1), m.group(2)))
    return incs


def layer_name(parts, layers):
    """Longest [layers] key matching the directory path under src/.

    `parts` are the path components after "src", excluding the filename.
    Nested layers ("scenario/spec") shadow their parent for files inside
    them; a nested directory with no own entry inherits the parent layer.
    """
    for depth in range(len(parts), 0, -1):
        candidate = "/".join(parts[:depth])
        if candidate in layers:
            return candidate
    return parts[0]


def check_layering(rel, raw, stripped, layers, exceptions, out):
    parts = Path(rel).parts
    if len(parts) < 3 or parts[0] != "src":
        return
    layer = layer_name(parts[1:-1], layers)
    if layer not in layers:
        out.add(rel, 1, "layering", f"directory src/{layer}/ missing from deps.toml [layers]")
        return
    allowed_layers = set(layers[layer]) | {layer}
    for i, kind, target in live_includes(raw, stripped):
        if kind != '"':
            continue
        if not target.startswith("src/"):
            out.add(rel, i, "layering",
                    f'project include "{target}" must be repo-root-relative ("src/...")',
                    raw[i - 1])
            continue
        tparts = Path(target).parts
        if len(tparts) < 3:
            continue
        tlayer = layer_name(tparts[1:-1], layers)
        if tlayer in allowed_layers:
            continue
        exc = exceptions.get(f"{layer} -> {tlayer}", [])
        if target in exc:
            continue
        out.add(rel, i, "layering",
                f"src/{layer}/ may not include src/{tlayer}/ "
                f"(allowed: {', '.join(sorted(allowed_layers))}; see tools/lint/deps.toml)",
                raw[i - 1])


def check_determinism(rel, raw, stripped, out):
    for i, line in enumerate(stripped, 1):
        if not allowed("nondet-random", rel):
            m = RANDOM_RE.search(line)
            if m:
                out.add(rel, i, "nondet-random",
                        f"'{m.group(0).strip()}': all randomness must come from the "
                        "seeded g80211::Rng (src/sim/rng.h)", raw[i - 1])
        m = WALLCLOCK_RE.search(line)
        if m:
            out.add(rel, i, "nondet-wallclock",
                    f"'{m.group(0).strip()}': wall-clock time in src/ breaks "
                    "reproducibility; use sim time (Scheduler::now)", raw[i - 1])
        if not allowed("nondet-steadyclock", rel):
            m = STEADY_RE.search(line)
            if m:
                out.add(rel, i, "nondet-steadyclock",
                        f"'{m.group(0)}' outside src/runner/: host timing is for the "
                        "campaign runner only", raw[i - 1])


def check_hygiene(rel, raw, stripped, out):
    if not allowed("bare-assert", rel):
        for i, line in enumerate(stripped, 1):
            if ASSERT_RE.search(line):
                out.add(rel, i, "bare-assert",
                        "bare assert() compiles out under NDEBUG; use G80211_CHECK "
                        "or G80211_DCHECK (src/sim/check.h)", raw[i - 1])
    if not allowed("packet-arena", rel):
        for i, line in enumerate(stripped, 1):
            m = PACKET_HEAP_RE.search(line)
            if m:
                out.add(rel, i, "packet-arena",
                        f"'{m.group(0).strip()}': Packets are arena-allocated; "
                        "use make_packet() (src/net/packet.h) so steady state "
                        "stays heap-free", raw[i - 1])
    if rel.endswith(".h"):
        has_pragma = any(line.strip() == "#pragma once" for line in stripped)
        if not has_pragma:
            out.add(rel, 1, "pragma-once", "header missing #pragma once")
        for i, line in enumerate(stripped, 1):
            if GUARD_RE.match(line):
                out.add(rel, i, "pragma-once",
                        "#ifndef include guard: the project standard is #pragma once",
                        raw[i - 1])


def check_include_order(rel, raw, stripped, out):
    incs = live_includes(raw, stripped)
    if not incs:
        return
    own_header = None
    if rel.endswith((".cc", ".cpp")):
        stem = str(Path(rel).with_suffix(""))
        first = incs[0]
        if first[1] == '"' and str(Path(first[2]).with_suffix("")) == stem:
            own_header = first
            incs = incs[1:]
    seen_project = False
    for i, kind, target in incs:
        if kind == '"':
            seen_project = True
        elif seen_project:
            out.add(rel, i, "include-order",
                    f"system include <{target}> after project includes"
                    + (" (own header first, then system, then project)"
                       if own_header else ""),
                    raw[i - 1])
    # Sortedness within each contiguous same-kind run.
    prev = None  # (line_no, kind, target)
    for i, kind, target in incs:
        if prev is not None and i == prev[0] + 1 and kind == prev[1] \
                and target < prev[2]:
            out.add(rel, i, "include-order",
                    f'"{target}" sorts before "{prev[2]}" — keep include runs '
                    "alphabetical", raw[i - 1])
        prev = (i, kind, target)


def check_self_contained(root, rel_headers, cxx, out, jobs):
    def compile_one(rel):
        with tempfile.NamedTemporaryFile("w", suffix=".cc", delete=False) as tu:
            tu.write(f'#include "{rel}"\n')
            tu_path = tu.name
        try:
            proc = subprocess.run(
                [cxx, "-std=c++20", "-fsyntax-only", "-I", str(root), tu_path],
                capture_output=True, text=True)
            return rel, proc.returncode, proc.stderr.strip()
        finally:
            Path(tu_path).unlink(missing_ok=True)

    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        for rel, rc, err in pool.map(compile_one, rel_headers):
            if rc != 0:
                first = err.splitlines()[0] if err else f"{cxx} failed"
                out.add(rel, 1, "self-contained",
                        f"header does not compile standalone: {first}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to scan, relative to --root (default: src)")
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parents[2],
                    help="repository root (default: two levels above this script)")
    ap.add_argument("--deps", type=Path, default=None,
                    help="layering spec (default: <root>/tools/lint/deps.toml, "
                         "falling back to this script's directory)")
    ap.add_argument("--cxx", default="g++", help="compiler for self-contained checks")
    ap.add_argument("--jobs", type=int, default=8,
                    help="parallelism for self-contained compiles")
    ap.add_argument("--no-self-contained", action="store_true",
                    help="skip the (compiler-invoking) header self-containedness rule")
    ap.add_argument("--list-rules", action="store_true", help="print rule IDs and exit")
    args = ap.parse_args()

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    root = args.root.resolve()
    deps_path = args.deps
    if deps_path is None:
        deps_path = root / "tools" / "lint" / "deps.toml"
        if not deps_path.is_file():
            deps_path = Path(__file__).resolve().parent / "deps.toml"
    layers, exceptions = load_layers(deps_path)

    targets = args.paths or ["src"]
    files = []
    for t in targets:
        p = (root / t) if not Path(t).is_absolute() else Path(t)
        if p.is_dir():
            files.extend(sorted(q for q in p.rglob("*")
                                if q.suffix in (".h", ".cc", ".cpp")))
        elif p.is_file():
            files.append(p)
        else:
            print(f"g80211_lint: no such path: {t}", file=sys.stderr)
            return 2

    out = Findings()
    headers = []
    for f in files:
        try:
            rel = str(f.resolve().relative_to(root))
        except ValueError:
            rel = str(f)
        text = f.read_text(encoding="utf-8", errors="replace")
        raw = text.split("\n")
        stripped = strip_comments(text).split("\n")
        check_layering(rel, raw, stripped, layers, exceptions, out)
        check_determinism(rel, raw, stripped, out)
        check_hygiene(rel, raw, stripped, out)
        check_include_order(rel, raw, stripped, out)
        if f.suffix == ".h":
            headers.append(rel)

    if not args.no_self_contained and headers:
        check_self_contained(root, headers, args.cxx, out, args.jobs)

    for path, line_no, rule, msg in sorted(out.items):
        print(f"{path}:{line_no}: [{rule}] {msg}")
    if out.items:
        print(f"g80211_lint: {len(out.items)} finding(s) in {len(files)} file(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
