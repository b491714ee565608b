#!/usr/bin/env python3
"""Every bench binary at G80211_QUICK=1, under 1 and under 4 campaign workers.

Each seeded table a bench prints is one named campaign, which exports the
table to $G80211_METRICS_DIR/<figure>.{jsonl,csv}. For every binary in the
bench directory (except the micro-benchmarks, which time the engine and
print no table) this test runs it twice, each run with its own metrics
directory, and checks:

  * both runs exit 0;
  * the tables (stdout before google-benchmark's `Benchmark  Time  CPU`
    block) and the benchmark counters are identical between the runs;
  * the exports are identical except `wall_ms`, the one timing field;
  * every `[campaign] <figure>` line on stderr has its <figure>.jsonl and
    <figure>.csv, and the binary exports exactly the figures listed in
    EXPORTS below, in that order;
  * every exported metric has a name (no `m<N>` fallback);

and, over the whole suite, that no figure name repeats: MetricSink opens
its files with "w", so a repeated name silently keeps only the last table.

EXPORTS is the list of every bench's export stems; a new bench binary must
be added to it (or to NO_EXPORTS) before this test passes.

Usage: python3 tests/test_bench_suite.py --bench-dir build/bench
Registered with ctest as `bench_suite`.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# Benches whose tables are seeded sweeps, and the figure names they export.
EXPORTS = {
    "bench_ablation_capture": ["ablation_capture"],
    "bench_ablation_eifs": ["ablation_eifs"],
    "bench_ablation_rtscts": ["ablation_rtscts"],
    "bench_ext_autorate": ["ext_autorate_fake_ack", "ext_autorate_spoof"],
    "bench_ext_bianchi": ["ext_bianchi"],
    "bench_ext_detection_quality": ["ext_detection_roc",
                                    "ext_detection_latency"],
    "bench_ext_dos_comparison": ["ext_dos_comparison"],
    "bench_ext_fragmentation": ["ext_fragmentation_goodput",
                                "ext_fragmentation_detection"],
    "bench_ext_greedy_sender": ["ext_greedy_sender"],
    "bench_ext_mobility": ["ext_mobility"],
    "bench_fig1_udp_cts_nav": ["fig1_udp_cts_nav"],
    "bench_fig2_avg_cw": ["fig2_avg_cw"],
    "bench_fig3_nav_model": ["fig3_nav_model"],
    "bench_fig4_tcp_nav_11b": ["fig4a_tcp_nav_cts", "fig4b_tcp_nav_rtscts",
                               "fig4c_tcp_nav_ack", "fig4d_tcp_nav_all"],
    "bench_fig5_tcp_nav_11a": ["fig5a_tcp_nav_cts", "fig5b_tcp_nav_rtscts",
                               "fig5c_tcp_nav_ack", "fig5d_tcp_nav_all"],
    "bench_fig6_eight_flows": ["fig6_eight_flows"],
    "bench_fig7_greedy_pct": ["fig7_greedy_pct_nav5ms",
                              "fig7_greedy_pct_nav10ms",
                              "fig7_greedy_pct_nav31ms"],
    "bench_fig8_num_greedy": ["fig8_num_greedy"],
    "bench_fig9_eight_flow_greedy": ["fig9_eight_flow_greedy"],
    "bench_fig10_shared_sender": ["fig10a_shared_sender_tcp2",
                                  "fig10b_shared_sender_tcp8",
                                  "fig10c_shared_sender_udp2"],
    "bench_fig11_spoof_ber": ["fig11a_spoof_ber_11b", "fig11b_spoof_ber_11a"],
    "bench_fig12_spoof_gp": ["fig12_spoof_gp_ber1e-05",
                             "fig12_spoof_gp_ber0.0002",
                             "fig12_spoof_gp_ber0.0008"],
    "bench_fig13_spoof_num_greedy": ["fig13_spoof_num_greedy"],
    "bench_fig14_spoof_pairs": ["fig14a_spoof_shared_ap",
                                "fig14b_spoof_separate_aps"],
    "bench_fig15_remote_senders": ["fig15_remote_senders"],
    "bench_fig16_remote_gp": ["fig16_remote_gp_lat2ms",
                              "fig16_remote_gp_lat50ms",
                              "fig16_remote_gp_lat200ms",
                              "fig16_remote_gp_lat400ms"],
    "bench_fig17_spoof_udp": ["fig17_spoof_udp"],
    "bench_fig18_fake_hidden": ["fig18a_fake_hidden_one",
                                "fig18b_fake_hidden_both"],
    "bench_fig19_fake_pairs": ["fig19_fake_pairs_fer0.2",
                               "fig19_fake_pairs_fer0.5"],
    "bench_fig22_rssi_threshold": ["fig22_rssi_threshold"],
    "bench_fig23_grc_nav": ["fig23b_grc_nav_udp", "fig23c_grc_nav_tcp"],
    "bench_fig24_grc_spoof": ["fig24_grc_spoof"],
    "bench_table2_cwnd": ["table2_cwnd"],
    "bench_table4_fake_cw": ["table4_fake_cw"],
    "bench_table5_fake_inherent": ["table5_fake_inherent",
                                   "table5_asymmetric_loss"],
    "bench_table6_testbed_nav_tcp": ["table6_testbed_nav_tcp"],
    "bench_table7_testbed_nav_udp": ["table7_testbed_nav_udp"],
    "bench_table8_testbed_spoof": ["table8_testbed_spoof"],
    "bench_table9_testbed_fake": ["table9_testbed_fake"],
}

# Benches with no seeded sweep: a closed-form table, a single-seed CDF, and
# the streaming city campaign. They print tables but export nothing.
NO_EXPORTS = {
    "bench_table1_corruption",
    "bench_table3_fer",
    "bench_fig21_rssi_cdf",
    "bench_ext_city",
}

# Engine and monitor micro-benchmarks: timing loops, no table.
SKIPPED = {"bench_ext_simperf", "bench_ext_monitor"}

CAMPAIGN_LINE = re.compile(r"^\[campaign\] (\S+): ", re.MULTILINE)
REPORTER_HEADER = re.compile(r"^Benchmark\s+Time\s+CPU")
FALLBACK_METRIC = re.compile(r"m\d+")

FAILURES = []


def check(name, cond, detail=""):
    if not cond:
        print(f"FAIL  {name}: {detail}")
        FAILURES.append(name)
    return cond


def split_stdout(text):
    """(table lines, counter tokens) of one bench's stdout."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if REPORTER_HEADER.match(line):
            # The header sits between two rules of dashes; the rows with
            # the counters follow the second rule.
            tables = lines[:max(i - 1, 0)]
            counters = [tok for row in lines[i + 2:] for tok in row.split()
                        if "=" in tok]
            return tables, counters
    return lines, []


def without_wall_ms(path):
    text = path.read_text()
    if path.suffix == ".jsonl":
        return re.sub(r'"wall_ms":[0-9.]+', "", text)
    return re.sub(r",[0-9.]+\n", "\n", text)  # CSV: wall_ms is the last column


def first_difference(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"line {i + 1}: {x!r} != {y!r}"
    return f"lengths {len(a)} != {len(b)}"


def run_bench(binary, jobs, metrics_dir, timeout):
    env = dict(os.environ)
    env.pop("G80211_CAPTURE", None)
    env.update(G80211_QUICK="1", G80211_JOBS=str(jobs),
               G80211_METRICS_DIR=str(metrics_dir))
    return subprocess.run([str(binary)], env=env, capture_output=True,
                          text=True, timeout=timeout)


def check_bench(binary, jobs, scratch, timeout, seen_figures):
    name = binary.name
    runs = []
    for j in jobs:
        metrics = scratch / f"{name}_jobs{j}"
        proc = run_bench(binary, j, metrics, timeout)
        if not check(f"{name} exits 0 (G80211_JOBS={j})", proc.returncode == 0,
                     f"exit {proc.returncode}\n{proc.stderr[-2000:]}"):
            return
        runs.append((j, proc, metrics))

    (ja, a, ma), (jb, b, mb) = runs
    tables_a, counters_a = split_stdout(a.stdout)
    tables_b, counters_b = split_stdout(b.stdout)
    check(f"{name} prints a table", any(line.strip() for line in tables_a))
    check(f"{name} tables match at {ja} and {jb} workers", tables_a == tables_b,
          first_difference(tables_a, tables_b))
    check(f"{name} counters match at {ja} and {jb} workers",
          counters_a == counters_b, f"{counters_a} != {counters_b}")

    files_a = sorted(p.name for p in ma.glob("*")) if ma.exists() else []
    files_b = sorted(p.name for p in mb.glob("*")) if mb.exists() else []
    check(f"{name} exports the same files at {ja} and {jb} workers",
          files_a == files_b, f"{files_a} != {files_b}")
    for f in set(files_a) & set(files_b):
        check(f"{name} {f} matches at {ja} and {jb} workers (but wall_ms)",
              without_wall_ms(ma / f) == without_wall_ms(mb / f))

    figures = CAMPAIGN_LINE.findall(a.stderr)
    expected = EXPORTS.get(name, [])
    check(f"{name} runs its named campaigns", figures == expected,
          f"stderr names {figures}, expected {expected}")
    check(f"{name} exports exactly its campaigns",
          files_a == sorted(f"{fig}.{ext}" for fig in expected
                            for ext in ("csv", "jsonl")),
          f"files {files_a}, campaigns {expected}")
    for fig in figures:
        check(f"figure {fig} is exported by one bench only",
              fig not in seen_figures,
              f"{name} and {seen_figures.get(fig)} both export it")
        seen_figures[fig] = name
        jsonl = ma / f"{fig}.jsonl"
        if not check(f"{name} writes {fig}.jsonl and {fig}.csv",
                     jsonl.exists() and (ma / f"{fig}.csv").exists()):
            continue
        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        check(f"{fig}.jsonl has rows", len(rows) > 0)
        for row in rows:
            check(f"{fig}.jsonl row names its figure", row["figure"] == fig,
                  row["figure"])
            check(f"{fig}.jsonl metric {row['metric']!r} is named",
                  not FALLBACK_METRIC.fullmatch(row["metric"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", type=Path, required=True,
                    help="directory holding the built bench_* binaries")
    ap.add_argument("--timeout", type=float, default=900.0,
                    help="seconds allowed per bench run")
    args = ap.parse_args()

    found = {p.name for p in args.bench_dir.glob("bench_*")
             if p.is_file() and os.access(p, os.X_OK)}
    known = set(EXPORTS) | NO_EXPORTS | SKIPPED
    check("every bench binary is listed", found <= known,
          f"unlisted: {sorted(found - known)}")
    check("every listed bench binary is built", known <= found,
          f"missing from {args.bench_dir}: {sorted(known - found)}")

    seen_figures = {}
    with tempfile.TemporaryDirectory(prefix="g80211_bench_suite_") as tmp:
        for name in sorted(found - SKIPPED):
            check_bench(args.bench_dir / name, (1, 4), Path(tmp), args.timeout,
                        seen_figures)

    total = sum(len(v) for v in EXPORTS.values())
    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed")
        return 1
    print(f"ok  {len(found - SKIPPED)} benches, {total} exported tables, "
          "identical at 1 and 4 workers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
