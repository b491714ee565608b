// g80211_scenario — validate, canonicalize and run city-scale scenario
// spec files (src/scenario/spec/).
//
// usage:
//   g80211_scenario --validate <spec>...
//       Parse + schema-check each file. Prints one "OK <name>: ..." line
//       per valid spec; the first invalid spec stops with its
//       line-anchored error on stderr and exit 1.
//   g80211_scenario --describe <spec>
//       Print the canonical TOML form (every default resolved) on stdout.
//       describe() output re-parses to the identical spec, so this doubles
//       as a config normalizer.
//   g80211_scenario --run [--quiet] [--shards N] <spec>
//       Compile and run. Default back-end is the full single-Sim world
//       (churn, roaming, traffic mix, greedy stations, GRC); each closed
//       metric window is printed as a JSONL record on stdout (suppressed
//       by --quiet) and the whole-run summary — per-ring damage radius,
//       honest/greedy goodput, handoffs, detections — goes to stderr.
//       --shards N compiles the sharded-representable subset through the
//       PR 8 parallel engine instead and prints its per-flow metrics.
//       When G80211_METRICS_DIR is set, windows are also streamed to
//       <dir>/<name>.windows.{jsonl,csv} through MetricSink.
//
// Exit codes: 0 success, 1 spec/compile error, 2 usage (including a
// --shards value that does not parse whole or is out of range).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/runner/metric_sink.h"
#include "src/scenario/sharded.h"
#include "src/scenario/spec/world_builder.h"
#include "src/scenario/spec/world_spec.h"
#include "tools/cli_flags.h"

using namespace g80211;
using namespace g80211::spec;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: g80211_scenario --validate <spec>...\n"
               "       g80211_scenario --describe <spec>\n"
               "       g80211_scenario --run [--quiet] [--shards N] <spec>\n");
  return 2;
}

int cmd_validate(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    const WorldSpec spec = load_world_spec(path);
    const WorldPlan plan = plan_world(spec);
    int greedy = 0;
    for (const StationPlan& st : plan.stations) greedy += st.greedy ? 1 : 0;
    std::printf("OK %s: %d APs, %d stations (%d greedy), %d damage rings\n",
                spec.name.c_str(), spec.num_aps(), spec.num_stations(), greedy,
                plan.num_rings);
  }
  return 0;
}

void print_window(const BuiltWorld::WindowReport& rep) {
  std::printf(
      "{\"window\":%d,\"t_start_s\":%.17g,\"t_end_s\":%.17g,"
      "\"honest_mbps\":%.6g,\"greedy_mbps\":%.6g,\"rings\":[",
      rep.index, rep.t_start_s, rep.t_end_s, rep.honest_mbps, rep.greedy_mbps);
  for (std::size_t r = 0; r < rep.rings.size(); ++r) {
    const BuiltWorld::RingWindow& ring = rep.rings[r];
    std::printf("%s{\"stations\":%" PRId64
                ",\"total_mbps\":%.6g,\"mean_mbps\":%.6g,\"p25\":%.6g,"
                "\"p50\":%.6g,\"p75\":%.6g}",
                r == 0 ? "" : ",", ring.stations, ring.total_mbps,
                ring.mean_mbps, ring.p25, ring.p50, ring.p75);
  }
  std::printf("]}\n");
}

void sink_window(MetricSink& sink, const WorldSpec& spec,
                 const BuiltWorld::WindowReport& rep) {
  WindowRow row;
  row.figure = spec.name;
  row.t_start_s = rep.t_start_s;
  row.t_end_s = rep.t_end_s;
  row.metric = "goodput_mbps";
  row.label = "honest";
  row.count = 1;
  row.mean = row.p25 = row.p50 = row.p75 = rep.honest_mbps;
  sink.write(row);
  row.label = "greedy";
  row.mean = row.p25 = row.p50 = row.p75 = rep.greedy_mbps;
  sink.write(row);
  for (std::size_t r = 0; r < rep.rings.size(); ++r) {
    const BuiltWorld::RingWindow& ring = rep.rings[r];
    row.label = "ring" + std::to_string(r);
    row.count = ring.stations;
    row.mean = ring.mean_mbps;
    row.p25 = ring.p25;
    row.p50 = ring.p50;
    row.p75 = ring.p75;
    sink.write(row);
  }
}

int cmd_run_sharded(const WorldSpec& spec, bool quiet, int shards) {
  const ShardedWorldSpec world = to_sharded(spec);
  ShardedSim sim(world, shards);
  sim.run();
  double total = 0.0;
  for (const ShardedSim::FlowMetrics& m : sim.metrics()) {
    if (!quiet) {
      std::printf("{\"flow\":%d,\"goodput_mbps\":%.17g,\"packets\":%" PRId64
                  "}\n",
                  m.flow_id, m.goodput_mbps, m.packets);
    }
    total += m.goodput_mbps;
  }
  std::fprintf(stderr,
               "%s: %d shards, %" PRIu64 " epochs, %" PRIu64
               " events, total goodput %.3f Mb/s\n",
               spec.name.c_str(), sim.num_shards(), sim.epochs_run(),
               sim.events_executed(), total);
  return 0;
}

int cmd_run(const std::string& path, bool quiet, int shards) {
  const WorldSpec spec = load_world_spec(path);
  if (shards > 0) return cmd_run_sharded(spec, quiet, shards);

  MetricSink sink(spec.name);
  BuiltWorld world(spec);
  world.run([&](const BuiltWorld::WindowReport& rep) {
    if (!quiet) print_window(rep);
    sink_window(sink, spec, rep);
  });

  const BuiltWorld::Summary& sum = world.summary();
  std::fprintf(stderr, "%s: %d windows of %.3g s\n", spec.name.c_str(),
               sum.windows, spec.window_s);
  std::fprintf(stderr,
               "  honest goodput  %.3f Mb/s mean (p25 %.3f, p75 %.3f)\n",
               sum.honest_mbps.mean(), sum.honest_mbps.p25(),
               sum.honest_mbps.p75());
  std::fprintf(stderr, "  greedy goodput  %.3f Mb/s mean\n",
               sum.greedy_mbps.mean());
  for (std::size_t r = 0; r < sum.ring_mbps.size(); ++r) {
    std::fprintf(stderr,
                 "  ring %zu (%5.0f-%5.0f m): %4" PRId64
                 " stations, %.3f Mb/s mean window total\n",
                 r, static_cast<double>(r) * spec.ring_m,
                 static_cast<double>(r + 1) * spec.ring_m,
                 sum.ring_stations[r], sum.ring_mbps[r].mean());
  }
  std::fprintf(stderr,
               "  handoffs %" PRId64 ", NAV detections %" PRId64
               ", spoof detections %" PRId64 "\n",
               sum.handoffs, sum.nav_detections, sum.spoof_detections);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  bool quiet = false;
  int shards = 0;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--validate" || arg == "--describe" || arg == "--run") {
      if (!mode.empty()) return usage();
      mode = arg;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--shards") {
      if (i + 1 >= argc) return usage();
      if (!cli::parse_count("g80211_scenario", "--shards", argv[++i], shards)) {
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (mode.empty() || paths.empty()) return usage();
  if (mode != "--validate" && paths.size() != 1) return usage();

  try {
    if (mode == "--validate") return cmd_validate(paths);
    if (mode == "--describe") {
      const WorldSpec spec = load_world_spec(paths[0]);
      std::fputs(describe(spec).c_str(), stdout);
      return 0;
    }
    return cmd_run(paths[0], quiet, shards);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "g80211_scenario: %s\n", e.what());
    return 1;
  }
}
