// The four benchmark workloads. Each derives every input from the seed,
// pins every SimConfig/WorldSpec field explicitly, times its run phase with
// tracing off (or on, for the per-layer report), and checks its outputs.
// See perfbench/README.md for why each workload exists.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/capture/capture_reader.h"
#include "src/capture/capture_stream.h"
#include "src/capture/capture_writer.h"
#include "src/capture/replay.h"
#include "src/monitor/driver.h"
#include "src/monitor/engine.h"
#include "src/monitor/frame_batch.h"
#include "src/runner/campaign.h"
#include "src/scenario/scenario.h"
#include "src/scenario/sharded.h"
#include "src/scenario/spec/world_builder.h"
#include "src/scenario/spec/world_spec.h"
#include "src/scenario/topology.h"

namespace perfbench {
namespace {

using namespace g80211;
using spec::BuiltWorld;
using spec::WorldSpec;
using Scope = Tracer::Scope;

// Keeps a computed value observable so the optimiser cannot drop the call.
volatile std::size_t g_sink = 0;

// Set-up repetitions made before the timed phase of city, capture and
// backhaul; setup_s is the median over these and every timed op's own
// set-up. (The sweep measures its set-up inside every round.)
constexpr int kSetupReps = 21;

double as_d(std::int64_t v) { return static_cast<double>(v); }
double as_d(std::uint64_t v) { return static_cast<double>(v); }

// --- per-layer counts --------------------------------------------------------

// Per-layer counts gathered from simulated worlds.
struct WorldCounts {
  TapCounts taps;
  MacTotals mac;
  std::int64_t events = 0;
  std::int64_t pool_slots = 0;  // max over worlds
  std::int64_t tombstones = 0;
  std::int64_t link_tables_rebuilt = 0;

  void add_sim(Sim& sim) {
    events += static_cast<std::int64_t>(sim.scheduler().executed());
    pool_slots = std::max<std::int64_t>(
        pool_slots, static_cast<std::int64_t>(sim.scheduler().pool_slots()));
    tombstones +=
        static_cast<std::int64_t>(sim.scheduler().cancelled_pending());
    link_tables_rebuilt +=
        static_cast<std::int64_t>(sim.channel().link_tables_rebuilt());
  }
  WorldCounts& operator+=(const WorldCounts& o) {
    taps += o.taps;
    mac += o.mac;
    events += o.events;
    pool_slots = std::max(pool_slots, o.pool_slots);
    tombstones += o.tombstones;
    link_tables_rebuilt += o.link_tables_rebuilt;
    return *this;
  }
};

void report_world_counts(Report& r, const WorldCounts& c, double sim_s) {
  r.set("sim.events", as_d(c.events), "count");
  r.set("sim.events_per_sim_s", ratio(as_d(c.events), sim_s), "1/sim-s");
  r.set("sim.pool_slots", as_d(c.pool_slots), "count");
  r.set("sim.tombstones", as_d(c.tombstones), "count");
  r.set("channel.tx_frames", as_d(c.taps.tx_frames), "count");
  r.set("channel.rx_per_tx",
        ratio(as_d(c.taps.rx_frames), as_d(c.taps.tx_frames)), "ratio");
  r.set("channel.link_tables_rebuilt", as_d(c.link_tables_rebuilt), "count");
  r.set("phy.rx_frames", as_d(c.taps.rx_frames), "count");
  r.set("phy.rx_addressed_share",
        ratio(as_d(c.taps.rx_addressed), as_d(c.taps.rx_frames)), "ratio");
  r.set("phy.rx_corrupted_share",
        ratio(as_d(c.taps.rx_corrupted), as_d(c.taps.rx_frames)), "ratio");
  r.set("mac.data_sent", as_d(c.mac.data_sent), "count");
  r.set("mac.success_share",
        ratio(as_d(c.mac.data_success), as_d(c.mac.data_sent)), "ratio");
  r.set("mac.retry_share",
        ratio(as_d(c.mac.data_retries), as_d(c.mac.data_sent)), "ratio");
  r.set("mac.nav_updates", as_d(c.mac.nav_updates), "count");
  r.set("mac.queue_drops", as_d(c.mac.queue_drops), "count");
  r.set("greedy.spoofed_acks", as_d(c.mac.spoofed_acks), "count");
  r.set("greedy.fake_acks", as_d(c.mac.fake_acks), "count");
}

// --- timing ------------------------------------------------------------------

// Wall and process-CPU time spent in timed bodies, accumulated.
struct Stopwatch {
  double wall = 0.0;
  double cpu = 0.0;
  template <typename F>
  void time(F&& body) {
    const double w0 = wall_now();
    const double c0 = cpu_now();
    body();
    cpu += cpu_now() - c0;
    wall += wall_now() - w0;
  }
};

// Timed ops grouped by input item: one world, or the one campaign or sharded
// world that every op repeats. An item's work is fixed; its cost is its
// fastest repetition. On a shared host, neighbours slow the CPU by up to
// ~1.5x for seconds at a time and never speed it up, so the fastest
// repetition measures the program and a median measures the neighbours. A
// rate is the summed work of all items over their summed fastest costs.
class Samples {
 public:
  void add(int item, double sim_s, double frames, const Stopwatch& run,
           const Stopwatch& frame_phase) {
    Item& it = items_[item];
    it.sim_s = sim_s;
    it.frames = frames;
    it.run_wall.push_back(run.wall);
    it.run_cpu.push_back(run.cpu);
    it.frame_wall.push_back(frame_phase.wall);
    it.frame_cpu.push_back(frame_phase.cpu);
    ++ops_;
  }
  // Frames flow through the run phase itself.
  void add(int item, double sim_s, double frames, const Stopwatch& run) {
    add(item, sim_s, frames, run, run);
  }

  double sim_s() const { return sum([](const Item& i) { return i.sim_s; }); }
  double frames() const { return sum([](const Item& i) { return i.frames; }); }
  double run_wall() const {
    return sum([](const Item& i) { return fastest(i.run_wall); });
  }
  double run_cpu() const {
    return sum([](const Item& i) { return fastest(i.run_cpu); });
  }
  double frame_wall() const {
    return sum([](const Item& i) { return fastest(i.frame_wall); });
  }
  double frame_cpu() const {
    return sum([](const Item& i) { return fastest(i.frame_cpu); });
  }
  double sim_rate() const { return ratio(sim_s(), run_wall()); }
  std::int64_t ops() const { return ops_; }

 private:
  struct Item {
    double sim_s = 0.0;
    double frames = 0.0;
    std::vector<double> run_wall, run_cpu, frame_wall, frame_cpu;
  };
  static double fastest(const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  }
  template <typename F>
  double sum(F f) const {
    double total = 0.0;
    for (const auto& entry : items_) total += f(entry.second);
    return total;
  }
  std::map<int, Item> items_;
  std::int64_t ops_ = 0;
};

void report_samples(Report& r, const Samples& s,
                    const std::vector<double>& setup) {
  r.set("sim_s_per_wall_s", s.sim_rate(), "sim-s/s");
  r.set("sim_s_per_cpu_s", ratio(s.sim_s(), s.run_cpu()), "sim-s/CPU-s");
  r.set("frames_per_s", ratio(s.frames(), s.frame_wall()), "frames/s");
  r.set("frames_per_cpu_s", ratio(s.frames(), s.frame_cpu()), "frames/CPU-s");
  r.set("setup_s", median(setup), "s");
  r.context["timed_ops"] = std::to_string(s.ops());
  r.context["setup_samples"] = std::to_string(setup.size());
}

// Peak resident memory once the first op has run (the set-up repetitions
// before it hold one world at a time, less than an op). Later ops do not
// count: the process's peak creeps op after op, by an amount that depends
// on the worlds, and moved a whole-round peak by 20% between seeds of the
// capture workload.
void note_peak_rss(Report& r) { r.set("peak_rss_mb", peak_rss_mb(), "MiB"); }

// Untraced rate over traced rate, minus one.
void report_overhead(Report& r, const Samples& untraced,
                     const Samples& traced) {
  r.set("trace.overhead_share",
        ratio(untraced.sim_rate(), traced.sim_rate()) - 1.0, "ratio");
}

// --- spec-built worlds (city, capture) --------------------------------------

std::vector<Node*> all_nodes(BuiltWorld& w) {
  std::vector<Node*> out;
  const int aps = static_cast<int>(w.plan().aps.size());
  const int stations = static_cast<int>(w.plan().stations.size());
  for (int a = 0; a < aps; ++a) out.push_back(&w.ap_node(a));
  for (int s = 0; s < stations; ++s) out.push_back(&w.station_node(s));
  return out;
}

void add_mac_totals(const std::vector<Node*>& nodes, MacTotals& m) {
  for (Node* n : nodes) m.add(n->mac().stats());
}

std::uint64_t summary_digest(const BuiltWorld::Summary& s) {
  Digest d;
  d.add(s.windows).add(s.honest_mbps).add(s.greedy_mbps);
  for (const auto& ring : s.ring_mbps) d.add(ring);
  for (std::int64_t n : s.ring_stations) d.add(n);
  d.add(s.handoffs).add(s.nav_detections).add(s.spoof_detections);
  return d.value();
}

// cbr 2 Mb/s, web 4 Mb/s (1.5 s on / 2.5 s off) and tcp, weighted 1:2:1.
void set_city_traffic(WorldSpec& s) {
  spec::TrafficSpec cbr;
  cbr.cls = spec::TrafficClass::kCbr;
  cbr.weight = 1.0;
  cbr.rate_mbps = 2.0;
  cbr.payload_bytes = 1024;
  cbr.burst_s = 1.0;
  cbr.idle_s = 1.0;
  spec::TrafficSpec web = cbr;
  web.cls = spec::TrafficClass::kWeb;
  web.weight = 2.0;
  web.rate_mbps = 4.0;
  web.burst_s = 1.5;
  web.idle_s = 2.5;
  spec::TrafficSpec tcp = cbr;
  tcp.cls = spec::TrafficClass::kTcp;
  tcp.weight = 1.0;
  tcp.rate_mbps = 12.0;
  s.traffic = {cbr, web, tcp};
}

WorldSpec base_world(std::uint64_t seed) {
  WorldSpec s;
  s.standard = Standard::B80211;
  s.rts_cts = true;
  s.seed = seed;
  s.warmup_s = 1.0;
  s.comm_range_m = 55.0;
  s.cs_range_m = 99.0;
  s.ber = 0.0;
  s.pitch_m = 60.0;
  s.per_ap = 8;
  s.radius_m = 20.0;
  s.churn_fraction = 0.0;
  s.mean_on_s = 4.0;
  s.mean_off_s = 3.0;
  s.roam_fraction = 0.0;
  s.speed_mps = 1.5;
  s.hysteresis_m = 5.0;
  set_city_traffic(s);
  s.nav_inflation_ms = 31.0;
  s.gp = 1.0;
  s.window_s = 1.0;
  s.ring_m = 25.0;
  return s;
}

// city_small.toml with per_ap doubled: every spec feature on.
WorldSpec city_spec(std::uint64_t seed) {
  WorldSpec s = base_world(seed);
  s.name = "perfbench_city";
  s.measure_s = 5.0;
  s.grid_cols = 3;
  s.grid_rows = 3;
  s.grc_coverage = 0.5;
  s.churn_fraction = 0.2;
  s.roam_fraction = 0.15;
  s.greedy_fraction = 0.1;
  s.mix_nav = 2.0;
  s.mix_spoof = 1.0;
  s.mix_fake = 1.0;
  return s;
}

WorldSpec capture_spec(std::uint64_t seed) {
  WorldSpec s = base_world(seed);
  s.name = "perfbench_capture";
  s.measure_s = 3.0;
  s.grid_cols = 4;
  s.grid_rows = 2;
  s.grc_coverage = 0.5;
  s.greedy_fraction = 0.25;
  s.mix_nav = 1.0;
  s.mix_spoof = 1.0;
  s.mix_fake = 1.0;
  return s;
}

// A spec seed from the run seed. Kept below 2^31: a spec's seed is parsed
// as a signed 64-bit integer.
std::uint64_t world_seed(std::uint64_t seed, int k) {
  return derive_seed(seed, static_cast<std::uint64_t>(k)) >> 33;
}

double world_sim_s(const WorldSpec& s) { return s.warmup_s + s.measure_s; }

int expected_windows(const WorldSpec& s) {
  return static_cast<int>(s.measure_s / s.window_s + 0.5);
}

// The seed-derived worlds of one run, and their spec text.
struct WorldSet {
  std::vector<WorldSpec> specs;
  std::vector<std::string> texts;

  WorldSet(int n, WorldSpec (*make)(std::uint64_t), std::uint64_t seed,
           int salt) {
    for (int k = 0; k < n; ++k) {
      specs.push_back(make(world_seed(seed, salt + k)));
      texts.push_back(spec::describe(specs.back()));
    }
  }
  int size() const { return static_cast<int>(specs.size()); }
};

struct SetupTimes {
  std::vector<double> parse, plan, build, total;
};

// Spec text -> parse_world_spec_text -> plan_world -> BuiltWorld ctor.
std::unique_ptr<BuiltWorld> build_world(const std::string& text, Tracer& tr,
                                        int parent, int run,
                                        SetupTimes& times) {
  const double t0 = wall_now();
  WorldSpec parsed;
  {
    Scope s(tr, "spec.parse_world_spec_text", parent, run);
    parsed = spec::parse_world_spec_text(text, "perfbench");
  }
  const double t1 = wall_now();
  {
    Scope s(tr, "scenario.plan_world", parent, run);
    g_sink = g_sink + spec::plan_world(parsed).stations.size();
  }
  const double t2 = wall_now();
  std::unique_ptr<BuiltWorld> world;
  {
    Scope s(tr, "scenario.BuiltWorld", parent, run);
    world = std::make_unique<BuiltWorld>(parsed);
  }
  const double t3 = wall_now();
  times.parse.push_back(t1 - t0);
  times.plan.push_back(t2 - t1);
  times.build.push_back(t3 - t2);
  times.total.push_back(t3 - t0);
  return world;
}

void build_setup_reps(const WorldSet& worlds, Tracer& tr, SetupTimes& times) {
  for (int i = 0; i < kSetupReps; ++i) {
    const std::string& text =
        worlds.texts[static_cast<std::size_t>(i % worlds.size())];
    g_sink = g_sink + build_world(text, tr, -1, -1, times)->plan().aps.size();
  }
}

void report_setup_layers(Report& r, const SetupTimes& t) {
  r.set("scenario.spec_parse_s", median(t.parse), "s");
  r.set("scenario.plan_s", median(t.plan), "s");
  r.set("scenario.build_s", median(t.build), "s");
}

// Expected outputs of one spec-built world, fixed by its first run.
struct WorldCheck {
  bool have = false;
  std::uint64_t digest = 0;

  // Same digest on every repetition, the expected window count, and
  // nonzero honest goodput.
  bool check(const BuiltWorld& w, int windows, std::string& why) {
    const auto& s = w.summary();
    const std::uint64_t d = summary_digest(s);
    if (s.windows != windows) {
      why = "windows " + std::to_string(s.windows) + " != " +
            std::to_string(windows);
      return false;
    }
    if (!(s.honest_mbps.mean() > 0.0)) {
      why = "zero honest goodput";
      return false;
    }
    if (!have) {
      have = true;
      digest = d;
    }
    if (d != digest) {
      why = "summary digest differs between repetitions of one seed";
      return false;
    }
    return true;
  }
};

// Fidelity and detection outputs summed over a set of spec-built worlds.
struct WorldOutputs {
  std::int64_t handoffs = 0;
  std::int64_t nav_detections = 0;
  std::int64_t spoof_detections = 0;
  double honest_mbps = 0.0;  // mean over worlds
  double greedy_mbps = 0.0;

  void add(const BuiltWorld::Summary& s, int worlds) {
    handoffs += s.handoffs;
    nav_detections += s.nav_detections;
    spoof_detections += s.spoof_detections;
    honest_mbps += s.honest_mbps.mean() / worlds;
    greedy_mbps += s.greedy_mbps.mean() / worlds;
  }
  void report(Report& r) const {
    r.set("scenario.handoffs", as_d(handoffs), "count");
    r.set("transport.honest_mbps", honest_mbps, "Mb/s");
    r.set("transport.greedy_mbps", greedy_mbps, "Mb/s");
    r.set("detect.nav_detections", as_d(nav_detections), "count");
    r.set("detect.spoof_detections", as_d(spoof_detections), "count");
  }
};

}  // namespace

// ============================================================================
// city: one Sim, every spec feature on.
// ============================================================================

void run_city(const Options& opt, Tracer& tr, Report& r) {
  // Distinct worlds per round: placement and roles move one world's speed
  // by up to ~15% (7% standard deviation), so a round spans several of them;
  // few enough that each world repeats often within the run.
  const WorldSet worlds(32, city_spec, opt.seed, 0);
  const int n = worlds.size();
  SetupTimes setup;
  build_setup_reps(worlds, tr, setup);

  std::vector<WorldCheck> checks(static_cast<std::size_t>(n));
  WorldCounts counts;  // first round only: pure counts repeat per seed
  WorldOutputs outputs;
  std::vector<double> window_ms;

  // One op per world. Every op's summary digest must equal the world's
  // first, so an untraced round after traced ones proves the taps inert.
  const auto do_round = [&](int round, bool traced, Samples& out) {
    for (int k = 0; k < n; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      const int run = round * n + k;
      Scope op(tr, "op.city", -1, run);
      auto world = build_world(worlds.texts[ku], tr, op.id(), run, setup);
      const std::vector<Node*> nodes = all_nodes(*world);
      WorldCounts c;
      if (traced) {
        for (Node* node : nodes) install_taps(node->mac(), c.taps);
      }
      // Window k >= 1 spans the wall time between two window closes; the
      // first also holds the warmup, so it is not counted.
      double last = 0.0;
      int run_span = -1;
      const auto on_window = [&](const BuiltWorld::WindowReport& rep) {
        const double now = wall_now();
        if (traced && rep.index > 0) {
          window_ms.push_back((now - last) * 1e3);
          tr.record("scenario.window", last, now, run_span, run);
        }
        last = now;
      };
      Stopwatch sw;
      {
        Scope s(tr, "scenario.BuiltWorld::run", op.id(), run);
        run_span = s.id();
        sw.time([&] { world->run(on_window); });
      }
      add_mac_totals(nodes, c.mac);
      out.add(k, world_sim_s(worlds.specs[ku]), as_d(c.mac.rx_data_ok), sw);
      std::string why;
      const bool ok =
          checks[ku].check(*world, expected_windows(worlds.specs[ku]), why);
      r.op(ok, "city world " + std::to_string(k) + ": " + why);
      if (run == 0) note_peak_rss(r);
      if (traced && round == 0) {
        c.add_sim(world->sim());
        counts += c;
        outputs.add(world->summary(), n);
      }
    }
  };

  // A traced run alternates traced and untraced rounds, so both rates rest
  // on as many repetitions; the untraced ones also prove the taps inert.
  Samples samples, plain;
  const int min_rounds = opt.trace ? 2 : 1;
  const double t_end = wall_now() + opt.seconds;
  for (int round = 0; round < min_rounds || wall_now() < t_end; ++round) {
    const bool traced = opt.trace && round % 2 == 0;
    do_round(round, traced, opt.trace && !traced ? plain : samples);
  }

  if (!opt.trace) {
    report_samples(r, samples, setup.total);
    return;
  }
  report_overhead(r, plain, samples);

  report_setup_layers(r, setup);
  r.set("scenario.window_wall_ms.p50", quantile(window_ms, 0.5), "ms");
  r.set("scenario.window_wall_ms.p90", quantile(window_ms, 0.9), "ms");
  report_world_counts(r, counts, samples.sim_s());
  r.set("sim.ns_per_event", ratio(samples.run_cpu() * 1e9, as_d(counts.events)),
        "ns");
  outputs.report(r);
}

// ============================================================================
// sweep: the Fig 1 campaign (CTS NAV inflation vs two saturated UDP pairs).
// ============================================================================

namespace {

constexpr int kSweepSeedsPerPoint = 4;
const Time kInflations[] = {microseconds(0),   microseconds(200),
                            microseconds(400), microseconds(600),
                            milliseconds(1),   milliseconds(2),
                            milliseconds(5),   milliseconds(10),
                            milliseconds(31)};
constexpr int kSweepPoints = sizeof(kInflations) / sizeof(kInflations[0]);
constexpr int kSweepRuns = kSweepPoints * kSweepSeedsPerPoint;

SimConfig sweep_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.standard = Standard::B80211;
  cfg.rts_cts = true;
  cfg.default_ber = 0.0;
  cfg.comm_range_m = 0.0;
  cfg.cs_range_m = 0.0;
  cfg.capture_threshold = 0.0;
  cfg.warmup = seconds(1);
  cfg.measure = seconds(10);
  cfg.seed = seed;
  cfg.scheduler_backend = SchedulerBackend::kTimingWheel;
  return cfg;
}

// The Fig 1 world: two in-range pairs; receiver 2 inflates its CTS NAV.
struct PairsWorld {
  std::unique_ptr<Sim> sim;
  std::vector<Node*> nodes;  // senders, then receivers
  std::vector<Sim::UdpFlow> flows;
};

PairsWorld build_pairs(Time inflation, std::uint64_t seed) {
  PairsWorld w;
  w.sim = std::make_unique<Sim>(sweep_config(seed));
  const PairLayout layout = pairs_in_range(2);
  std::vector<Node*> rx;
  for (const Position& p : layout.senders) w.nodes.push_back(&w.sim->add_node(p));
  for (const Position& p : layout.receivers) rx.push_back(&w.sim->add_node(p));
  for (std::size_t i = 0; i < rx.size(); ++i) {
    w.flows.push_back(w.sim->add_udp_flow(*w.nodes[i], *rx[i], 12.0, 1024));
  }
  if (inflation > 0) {
    w.sim->make_nav_inflator(*rx[1], NavFrameMask::cts_only(), inflation);
  }
  w.nodes.insert(w.nodes.end(), rx.begin(), rx.end());
  return w;
}

std::uint64_t point_seed(std::uint64_t seed, int point) {
  return derive_seed(seed, static_cast<std::uint64_t>(point));
}

// Per-run observations, one slot per (point, seed) so job bodies on worker
// threads never share one; read on the calling thread after Campaign::run.
struct SweepSlot {
  WorldCounts counts;
  double normal_mbps = 0.0;
  double greedy_mbps = 0.0;
  std::int64_t packets = 0;
  double build = 0.0;  // world construction, wall seconds
  double wall = 0.0;   // the whole job body
};

struct SweepRound {
  Tracer* tracer = nullptr;
  bool traced = false;
  int parent = -1;  // span of Campaign::run
  int round = 0;
  double assembly = 0.0;  // Campaign assembly, wall seconds
  std::vector<SweepSlot> slots = std::vector<SweepSlot>(kSweepRuns);
};

// One unnamed campaign (it neither prints nor exports): every inflation
// point x kSweepSeedsPerPoint seeds. A body returns {normal_mbps,
// greedy_mbps, delivered packets}.
Campaign assemble_sweep(std::uint64_t seed, SweepRound* ctx) {
  Campaign campaign("", {});
  for (int j = 0; j < kSweepPoints; ++j) {
    const Time inflation = kInflations[j];
    const std::uint64_t base = point_seed(seed, j);
    campaign.add(std::to_string(j), to_millis(inflation), base,
                 kSweepSeedsPerPoint, [ctx, inflation, base, j](std::uint64_t s) {
                   const double t0 = wall_now();
                   Scope span(*ctx->tracer, "runner.job", ctx->parent,
                              ctx->round);
                   SweepSlot& slot = ctx->slots[static_cast<std::size_t>(
                       j * kSweepSeedsPerPoint + static_cast<int>(s - base))];
                   PairsWorld w = build_pairs(inflation, s);
                   slot.build = wall_now() - t0;
                   if (ctx->traced) {
                     for (Node* n : w.nodes) {
                       install_taps(n->mac(), slot.counts.taps);
                     }
                   }
                   w.sim->run();
                   slot.normal_mbps = w.flows[0].goodput_mbps();
                   slot.greedy_mbps = w.flows[1].goodput_mbps();
                   slot.packets =
                       w.flows[0].sink->packets() + w.flows[1].sink->packets();
                   if (ctx->traced) {
                     add_mac_totals(w.nodes, slot.counts.mac);
                     slot.counts.add_sim(*w.sim);
                   }
                   slot.wall = wall_now() - t0;
                   return std::vector<double>{slot.normal_mbps,
                                              slot.greedy_mbps,
                                              as_d(slot.packets)};
                 });
  }
  return campaign;
}

std::uint64_t points_digest(const std::vector<CampaignPoint>& points) {
  Digest d;
  for (const CampaignPoint& p : points) {
    d.add(p.n_runs);
    for (const auto* v : {&p.median, &p.p25, &p.p75}) {
      for (double x : *v) d.add(x);
    }
  }
  return d.value();
}

}  // namespace

void run_sweep(const Options& opt, Tracer& tr, Report& r) {
  const SimConfig probe = sweep_config(0);
  const double round_sim_s =
      to_seconds(probe.warmup + probe.measure) * kSweepRuns;
  const auto workers = static_cast<unsigned>(opt.workers);

  // One campaign on `n` workers; every round repeats the same 36 runs.
  // Returns the points' digest and the campaign's wall time.
  const auto do_round = [&](int round, unsigned n, bool traced, Samples& out,
                            SweepRound& ctx) {
    ctx.tracer = &tr;
    ctx.traced = traced;
    ctx.round = round;
    const double a0 = wall_now();
    Campaign c = [&] {
      Scope s(tr, "runner.assemble", -1, round);
      return assemble_sweep(opt.seed, &ctx);
    }();
    ctx.assembly = wall_now() - a0;
    std::vector<CampaignPoint> points;
    Stopwatch sw;
    {
      Scope s(tr, "runner.Campaign::run", -1, round);
      ctx.parent = s.id();
      sw.time([&] { points = c.run(n); });
    }
    double packets = 0.0;
    for (const SweepSlot& s : ctx.slots) packets += as_d(s.packets);
    out.add(0, round_sim_s, packets, sw);
    return std::make_pair(points_digest(points), sw.wall);
  };

  // The timed rounds run the campaign on one worker, inline. Spread over
  // every vCPU of a shared virtual machine, a round runs at the pace of
  // whichever vCPU a neighbour slows, which moved the 4-worker rate by 15%
  // between runs. The campaign at `workers` is checked against the timed
  // rounds in every run and timed in the traced run (runner.*).
  //
  // Set-up is measured inside every timed round, where users pay it. A
  // traced run alternates traced and untraced rounds, as city does.
  Samples samples, plain;
  std::vector<std::uint64_t> digests;
  SweepRound first;
  std::vector<double> assembly, world_build, job_ms;
  const int min_rounds = opt.trace ? 2 : 1;
  const double t_end = wall_now() + opt.seconds;
  for (int round = 0; round < min_rounds || wall_now() < t_end; ++round) {
    SweepRound ctx;
    const bool traced = opt.trace && round % 2 == 0;
    digests.push_back(
        do_round(round, 1, traced, opt.trace && !traced ? plain : samples, ctx)
            .first);
    assembly.push_back(ctx.assembly);
    for (const SweepSlot& s : ctx.slots) world_build.push_back(s.build);
    if (round == 0) {
      note_peak_rss(r);
      first = ctx;
    }
  }

  // The campaign at `workers`: one round to check, more in a traced run to
  // time the runner.
  constexpr int kParallelRounds = 5;
  Samples parallel;
  double busy = 0.0, campaign_wall = 0.0;
  const int timed_rounds = static_cast<int>(digests.size());
  for (int i = 0; i < (opt.trace ? kParallelRounds : 1); ++i) {
    SweepRound ctx;
    const auto [digest, wall] =
        do_round(timed_rounds + i, workers, opt.trace, parallel, ctx);
    digests.push_back(digest);
    campaign_wall += wall;
    for (const SweepSlot& s : ctx.slots) {
      job_ms.push_back(s.wall * 1e3);
      busy += s.wall;
    }
  }
  // Determinism: every round, at either worker count, traced or not, must
  // reproduce the first round's digest.
  for (std::size_t i = 0; i < digests.size(); ++i) {
    for (int j = 0; j < kSweepRuns; ++j) {
      r.op(digests[i] == digests[0],
           "sweep round " + std::to_string(i) +
               ": digest differs from the first 1-worker round");
    }
  }

  if (!opt.trace) {
    // A round's set-up: its assembly plus every run's world construction,
    // each the median over the run. A world is built right after the
    // previous run evicted it from cache, so single builds vary by 2x with
    // the host's load; a median per build steadies the figure.
    report_samples(r, samples,
                   {median(assembly) + kSweepRuns * median(world_build)});
    return;
  }
  report_overhead(r, plain, samples);

  WorldCounts counts;
  double normal = 0.0, greedy = 0.0;
  for (const SweepSlot& s : first.slots) {
    counts += s.counts;
    normal += s.normal_mbps / kSweepRuns;
    greedy += s.greedy_mbps / kSweepRuns;
  }
  report_world_counts(r, counts, round_sim_s);
  r.set("sim.ns_per_event", ratio(samples.run_cpu() * 1e9, as_d(counts.events)),
        "ns");
  r.set("scenario.build_s", median(world_build), "s");
  r.set("transport.honest_mbps", normal, "Mb/s");
  r.set("transport.greedy_mbps", greedy, "Mb/s");
  r.set("runner.runs", as_d(std::int64_t{kSweepRuns}), "count");
  r.set("runner.run_wall_ms.p50", quantile(job_ms, 0.5), "ms");
  r.set("runner.run_wall_ms.p90", quantile(job_ms, 0.9), "ms");
  r.set("runner.busy_share", ratio(busy, campaign_wall * workers), "ratio");
  r.set("runner.speedup", ratio(samples.run_wall(), parallel.run_wall()), "x");
}

// ============================================================================
// backhaul: the sharded engine with a ring of cross-cell wired flows.
// ============================================================================

namespace {

constexpr int kBackhaulCells = 8;

ShardedWorldSpec backhaul_spec(std::uint64_t seed) {
  ShardedWorldSpec spec;
  SimConfig& b = spec.base;
  b.standard = Standard::B80211;
  b.rts_cts = true;
  b.default_ber = 0.0;
  b.comm_range_m = 30.0;
  b.cs_range_m = 60.0;
  b.capture_threshold = 0.0;
  b.warmup = milliseconds(100);
  b.measure = seconds(5);
  b.seed = seed;
  b.scheduler_backend = SchedulerBackend::kTimingWheel;
  for (int c = 0; c < kBackhaulCells; ++c) {
    HotspotBssSpec cell;
    cell.ap = Position{600.0 * c, 0.0};
    cell.n_stations = 8;
    cell.rate_mbps = 3.0;
    cell.payload_bytes = 1024;
    spec.bsss.push_back(cell);
  }
  for (int c = 0; c < kBackhaulCells; ++c) {
    CrossFlowSpec cf;
    cf.src_bss = c;
    cf.dst_bss = (c + 1) % kBackhaulCells;
    cf.dst_station = c % 8;
    cf.latency = milliseconds(2);
    cf.rate_mbps = 0.5;
    cf.payload_bytes = 1024;
    spec.cross_flows.push_back(cf);
  }
  return spec;
}

struct ShardedOut {
  std::uint64_t digest = 0;  // over metrics(), byte for byte
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t routed = 0;
  double goodput = 0.0;
};

}  // namespace

void run_backhaul(const Options& opt, Tracer& tr, Report& r) {
  const ShardedWorldSpec spec = backhaul_spec(opt.seed);
  const double sim_s = to_seconds(spec.base.warmup + spec.base.measure);
  const int shards = opt.workers;

  // The timed ops run every shard inline on this thread: the same epochs,
  // mailboxes and merge as the threaded engine, without its barrier
  // wake-ups. On a shared virtual machine a lockstep wake-up every ~60 us
  // waits on the hypervisor, which moved the threaded run's speed by 3x
  // between runs; the threaded engine is timed in the traced run instead.
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = wall_now();
    Scope s(tr, "scenario.ShardedSim", -1, -1);
    ShardedSim sim(spec, shards, false);
    setup.push_back(wall_now() - t0);
  }

  // Builds and runs one world; its build time joins `build_times` if given.
  const auto do_run = [&](int run, int n, bool thr, Samples& out,
                          std::vector<double>* build_times) {
    Scope op(tr, "op.backhaul", -1, run);
    const double t0 = wall_now();
    std::unique_ptr<ShardedSim> sim;
    {
      Scope s(tr, "scenario.ShardedSim", op.id(), run);
      sim = std::make_unique<ShardedSim>(spec, n, thr);
    }
    if (build_times != nullptr) build_times->push_back(wall_now() - t0);
    Stopwatch sw;
    {
      Scope s(tr, "scenario.ShardedSim::run", op.id(), run);
      sw.time([&] { sim->run(); });
    }
    ShardedOut o;
    Digest d;
    double packets = 0.0;
    for (const auto& m : sim->metrics()) {
      d.add(m.flow_id).add(m.goodput_mbps).add(m.packets).add(m.highest_seq);
      packets += as_d(m.packets);
      o.goodput += m.goodput_mbps;
    }
    o.digest = d.value();
    o.events = sim->events_executed();
    o.epochs = sim->epochs_run();
    o.routed = sim->cross_packets_routed();
    out.add(0, sim_s, packets, sw);
    return o;
  };

  // A traced run alternates traced and untraced runs, as city does.
  Samples samples, plain;
  std::vector<ShardedOut> outs;
  const int min_runs = opt.trace ? 2 : 1;
  const double t_end = wall_now() + opt.seconds;
  for (int run = 0; run < min_runs || wall_now() < t_end; ++run) {
    const bool untraced = opt.trace && run % 2 == 1;
    outs.push_back(
        do_run(run, shards, false, untraced ? plain : samples, &setup));
    if (run == 0) note_peak_rss(r);
  }
  // Reference: the inline 1-shard run is the bit-exact sequential engine.
  Samples inline_run;
  int next = static_cast<int>(outs.size());
  const ShardedOut ref = do_run(next++, 1, false, inline_run, nullptr);
  const auto check = [&](const ShardedOut& o, const std::string& what) {
    std::string why;
    if (o.digest != ref.digest) why = "metrics differ from the 1-shard run";
    if (o.routed == 0) why = "no cross-shard packets routed";
    // Event counts are compared at one shard count only: they differ by a
    // few events across shard counts.
    if (o.events != outs[0].events) why = "event count not repeatable";
    r.op(why.empty(), what + ": " + why);
  };
  for (std::size_t i = 0; i < outs.size(); ++i) {
    check(outs[i], "backhaul run " + std::to_string(i));
  }
  if (!opt.trace) {
    report_samples(r, samples, setup);
    return;
  }
  report_overhead(r, plain, samples);

  // The threaded engine at the same shard count, one worker per shard: the
  // barrier and mailbox cost that shard.* reports.
  constexpr int kThreadedRuns = 5;
  Samples threaded;
  for (int i = 0; i < kThreadedRuns; ++i) {
    check(do_run(next++, shards, shards > 1, threaded, nullptr),
          "threaded backhaul run " + std::to_string(i));
  }

  const ShardedOut& o = outs[0];
  WorldCounts counts;  // per-station layers are not reachable via ShardedSim
  counts.events = static_cast<std::int64_t>(o.events);
  report_world_counts(r, counts, sim_s);
  r.set("sim.ns_per_event", ratio(samples.run_cpu() * 1e9, as_d(o.events)),
        "ns");
  r.set("scenario.build_s", median(setup), "s");
  r.set("transport.honest_mbps", o.goodput, "Mb/s");
  r.set("shard.epochs", as_d(o.epochs), "count");
  r.set("shard.cross_packets", as_d(o.routed), "count");
  r.set("shard.wall_us_per_epoch",
        ratio(threaded.run_wall() * 1e6, as_d(o.epochs)), "us");
  r.set("shard.cpu_share",
        ratio(threaded.run_cpu(), threaded.run_wall() * shards), "ratio");
  r.set("shard.speedup", ratio(inline_run.run_wall(), threaded.run_wall()),
        "x");
}

// ============================================================================
// capture: record AP journals beside a live world, then monitor them.
// ============================================================================

namespace {

MonitorOptions monitor_options(int shards) {
  MonitorOptions mo;
  mo.config.replay = ReplayOptions{};
  mo.config.window = seconds(1);
  mo.shards = shards;
  return mo;
}

void remove_journal(const std::string& jsonl_path) {
  std::error_code ec;
  const std::string stem = jsonl_path.substr(0, jsonl_path.size() - 6);
  std::filesystem::remove(stem + ".jsonl", ec);
  std::filesystem::remove(stem + ".pcap", ec);
}

// One op of the capture workload: a record run and its monitored journals.
struct CaptureOp {
  int world = 0;
  bool record_ok = false;
  std::string record_why;
  std::vector<bool> journal_ok;  // frames monitored == written, verdicts match
};

// The first op of each world. Its journals stay on disk for the
// replay_capture() reference and the traced run's parse/detect split.
struct CaptureRef {
  bool have = false;
  std::vector<std::string> paths;
  std::vector<std::int64_t> frames;
  std::vector<ReplayResult> verdicts;
  std::vector<bool> replay_ok;  // replay_capture() of the journal agrees
  WorldCounts counts;
  std::int64_t windows = 0, alerts = 0;
  double imbalance = 0.0;  // largest journal's frames / the mean
};

// Parse and detect timed apart over one journal: CaptureStreamReader::poll,
// then StreamMonitor::process in batches like MonitorDriver's.
void split_monitor(const std::string& path, Tracer& tr, double& parse_s,
                   double& detect_s, std::int64_t& frames_out) {
  CaptureStreamReader reader(path);
  std::vector<CapturedFrame> frames;
  {
    Scope s(tr, "capture.CaptureStreamReader::poll", -1, -1);
    const double t0 = wall_now();
    while (reader.poll(frames) > 0) {
    }
    parse_s += wall_now() - t0;
  }
  StreamMonitor mon(reader.params(), reader.owner(), monitor_options(1).config);
  FrameBatch batch;
  {
    Scope s(tr, "monitor.StreamMonitor::process", -1, -1);
    const double t0 = wall_now();
    constexpr std::size_t kBatch = 4096;
    for (std::size_t i = 0; i < frames.size(); i += kBatch) {
      batch.clear();
      const std::size_t end = std::min(frames.size(), i + kBatch);
      for (std::size_t j = i; j < end; ++j) batch.push(frames[j]);
      mon.process(batch);
    }
    mon.finalize(reader.end_time());
    detect_s += wall_now() - t0;
  }
  frames_out += static_cast<std::int64_t>(frames.size());
}

}  // namespace

void run_capture(const Options& opt, Tracer& tr, Report& r) {
  namespace fs = std::filesystem;
  // Distinct worlds per round, as in city.
  const WorldSet worlds(16, capture_spec, opt.seed, 1000);
  const int n = worlds.size();
  const int aps = worlds.specs[0].grid_cols * worlds.specs[0].grid_rows;
  const fs::path dir = fs::path(opt.work_dir) / "journals";
  fs::create_directories(dir);
  SetupTimes setup;
  build_setup_reps(worlds, tr, setup);
  std::vector<double> driver_setup;

  std::vector<WorldCheck> checks(static_cast<std::size_t>(n));
  std::vector<CaptureRef> refs(static_cast<std::size_t>(n));
  WorldOutputs outputs;
  std::vector<CaptureOp> ops;

  // Record world k with a writer on every AP, then monitor its journals.
  // The first op of a world fills `ref`; later ops must match it and
  // delete their journals.
  const auto do_op = [&](int run, int k, bool traced, Samples& out,
                         CaptureRef& ref) {
    const auto ku = static_cast<std::size_t>(k);
    const bool first = !ref.have;
    Scope op(tr, "op.capture", -1, run);
    CaptureOp o;
    o.world = k;
    auto world = build_world(worlds.texts[ku], tr, op.id(), run, setup);
    const std::vector<Node*> nodes = all_nodes(*world);
    WorldCounts c;
    if (traced) {
      for (Node* node : nodes) install_taps(node->mac(), c.taps);
    }
    std::vector<std::unique_ptr<CaptureWriter>> writers;
    {
      Scope s(tr, "capture.CaptureWriter::attach", op.id(), run);
      for (int a = 0; a < aps; ++a) {
        const fs::path stem = dir / ("w" + std::to_string(k) + "_r" +
                                     std::to_string(run) + "_ap" +
                                     std::to_string(a));
        writers.push_back(std::make_unique<CaptureWriter>(
            world->sim().scheduler(), stem.string()));
        writers.back()->attach(world->ap_node(a).mac());
      }
    }
    Stopwatch record;
    record.time([&] {
      {
        Scope s(tr, "scenario.BuiltWorld::run", op.id(), run);
        world->run();
      }
      Scope s(tr, "capture.CaptureWriter::close", op.id(), run);
      for (auto& w : writers) w->close();
    });
    o.record_ok = checks[ku].check(*world, expected_windows(worlds.specs[ku]),
                                   o.record_why);

    std::vector<std::string> paths;
    for (auto& w : writers) paths.push_back(w->jsonl_path());
    // The timed monitor runs one shard, for the reason the sweep runs one
    // worker; the monitor at `workers` shards is checked after the timed
    // phase.
    const double t0 = wall_now();
    std::unique_ptr<MonitorDriver> drv;
    {
      Scope s(tr, "monitor.MonitorDriver", op.id(), run);
      drv = std::make_unique<MonitorDriver>(monitor_options(1), paths);
    }
    driver_setup.push_back(wall_now() - t0);
    Stopwatch drain;
    {
      Scope s(tr, "monitor.MonitorDriver::drain", op.id(), run);
      drain.time([&] { drv->drain(); });
    }

    if (run == 0) note_peak_rss(r);  // before the replay_capture() reference
    std::int64_t max_frames = 0, sum_frames = 0;
    for (std::size_t a = 0; a < paths.size(); ++a) {
      const std::int64_t monitored = drv->status(a).frames;
      const ReplayResult v = drv->verdicts(a);
      max_frames = std::max(max_frames, monitored);
      sum_frames += monitored;
      bool ok = monitored == writers[a]->frames_written();
      if (first) {
        ref.paths.push_back(paths[a]);
        ref.frames.push_back(writers[a]->frames_written());
        ref.verdicts.push_back(v);
      } else {
        ok = ok && v == ref.verdicts[a];
        remove_journal(paths[a]);
      }
      o.journal_ok.push_back(ok);
    }
    out.add(k, world_sim_s(worlds.specs[ku]), as_d(sum_frames), record, drain);
    if (first) {
      ref.have = true;
      add_mac_totals(nodes, c.mac);
      c.add_sim(world->sim());
      ref.counts = c;
      ref.windows = static_cast<std::int64_t>(drv->drain_windows().size());
      ref.alerts = static_cast<std::int64_t>(drv->drain_alerts().size());
      ref.imbalance = ratio(as_d(max_frames), as_d(sum_frames) / aps);
      if (traced) outputs.add(world->summary(), n);
      // Reference: replay_capture() of each journal must equal the
      // monitor's verdicts on it.
      for (std::size_t a = 0; a < ref.paths.size(); ++a) {
        Scope s(tr, "capture.replay_capture", op.id(), run);
        ref.replay_ok.push_back(replay_capture(read_jsonl(ref.paths[a])) ==
                                ref.verdicts[a]);
      }
    }
    return o;
  };

  // A traced run alternates traced and untraced rounds, as city does; an
  // untraced op must reproduce its world's traced summary and verdicts.
  Samples samples, plain;
  const int min_rounds = opt.trace ? 2 : 1;
  const double t_end = wall_now() + opt.seconds;
  for (int round = 0; round < min_rounds || wall_now() < t_end; ++round) {
    const bool traced = opt.trace && round % 2 == 0;
    for (int k = 0; k < n; ++k) {
      ops.push_back(do_op(round * n + k, k, traced,
                          opt.trace && !traced ? plain : samples,
                          refs[static_cast<std::size_t>(k)]));
    }
  }

  for (const CaptureOp& o : ops) {
    const auto& same = refs[static_cast<std::size_t>(o.world)].replay_ok;
    r.op(o.record_ok,
         "capture world " + std::to_string(o.world) + ": " + o.record_why);
    for (std::size_t a = 0; a < o.journal_ok.size(); ++a) {
      r.op(o.journal_ok[a] && same[a],
           "capture world " + std::to_string(o.world) + " journal " +
               std::to_string(a) +
               ": monitored frames or verdicts differ from the "
               "written/replayed journal");
    }
  }

  // Every world's first journals again, through the monitor at `workers`
  // shards: its verdicts must equal the 1-shard ones.
  double drain_n = 0.0;
  for (int k = 0; k < n; ++k) {
    const CaptureRef& ref = refs[static_cast<std::size_t>(k)];
    MonitorDriver drv(monitor_options(opt.workers), ref.paths);
    {
      Scope s(tr, "monitor.MonitorDriver::drain", -1, -1);
      const double t0 = wall_now();
      drv.drain();
      drain_n += wall_now() - t0;
    }
    for (std::size_t a = 0; a < ref.paths.size(); ++a) {
      r.op(drv.verdicts(a) == ref.verdicts[a],
           "capture world " + std::to_string(k) + " journal " +
               std::to_string(a) + ": verdicts at " +
               std::to_string(opt.workers) + " shards differ from 1 shard");
    }
  }

  std::vector<double> setup_total;
  const double driver = median(driver_setup);
  for (double s : setup.total) setup_total.push_back(s + driver);

  if (!opt.trace) {
    report_samples(r, samples, setup_total);
    fs::remove_all(dir);
    return;
  }

  report_overhead(r, plain, samples);

  // Per world: the same world without writers (taps still on, as in the
  // timed ops) and the parse/detect split.
  double bare = 0.0, parse_s = 0.0, detect_s = 0.0;
  std::int64_t written = 0, bytes = 0, parsed = 0;
  WorldCounts counts;
  std::int64_t windows = 0, alerts = 0;
  double imbalance = 0.0;
  for (int k = 0; k < n; ++k) {
    const CaptureRef& ref = refs[static_cast<std::size_t>(k)];
    counts += ref.counts;
    windows += ref.windows;
    alerts += ref.alerts;
    imbalance += ref.imbalance / n;
    for (std::size_t a = 0; a < ref.paths.size(); ++a) {
      written += ref.frames[a];
      bytes += static_cast<std::int64_t>(fs::file_size(ref.paths[a]));
    }
    {
      auto world = build_world(worlds.texts[static_cast<std::size_t>(k)], tr,
                               -1, -1, setup);
      TapCounts scratch;
      for (Node* node : all_nodes(*world)) install_taps(node->mac(), scratch);
      Scope s(tr, "scenario.BuiltWorld::run", -1, -1);
      const double t0 = wall_now();
      world->run();
      bare += wall_now() - t0;
    }
    for (const std::string& path : ref.paths) {
      split_monitor(path, tr, parse_s, detect_s, parsed);
    }
  }
  fs::remove_all(dir);

  const double rec = samples.run_wall();
  report_setup_layers(r, setup);
  report_world_counts(r, counts, samples.sim_s());
  r.set("sim.ns_per_event", ratio(samples.run_cpu() * 1e9, as_d(counts.events)),
        "ns");
  outputs.report(r);
  r.set("capture.frames_written", as_d(written), "count");
  r.set("capture.bytes_per_frame", ratio(as_d(bytes), as_d(written)), "B");
  r.set("capture.write_ns_per_frame", ratio((rec - bare) * 1e9, as_d(written)),
        "ns");
  r.set("capture.write_share", ratio(rec - bare, rec), "ratio");
  r.set("capture.parse_frames_per_s", ratio(as_d(parsed), parse_s), "frames/s");
  r.set("capture.parse_share", ratio(parse_s, parse_s + detect_s), "ratio");
  r.set("monitor.detect_frames_per_s", ratio(as_d(parsed), detect_s),
        "frames/s");
  r.set("monitor.windows", as_d(windows), "count");
  r.set("monitor.alerts", as_d(alerts), "count");
  r.set("monitor.shard_speedup", ratio(samples.frame_wall(), drain_n), "x");
  r.set("monitor.stream_imbalance", imbalance, "ratio");
}

}  // namespace perfbench
