// Simulator performance: wall-clock cost of simulated time across
// scenario sizes — the practical number a user needs to size parameter
// sweeps. Unlike the per-figure benches (plain programs that print
// tables), these are google-benchmark timings.
//
// They are a developer's view of the engine's layers. A speed claim goes
// through the repository benchmark instead (perfbench/README.md), which
// compares alternating runs of both trees on one host.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numbers>
#include <type_traits>
#include <vector>

#include "bench/perf_counters.h"
#include "src/mac/mac_stats.h"
#include "src/phy/channel.h"
#include "src/phy/phy.h"
#include "src/scenario/scenario.h"
#include "src/scenario/sharded.h"
#include "src/scenario/topology.h"
#include "src/sim/dary_heap.h"
#include "src/sim/rng.h"
#include "src/sim/scheduler.h"
#include "src/sim/timing_wheel.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

// Simulated seconds covered by one benchmark iteration of `cfg` — derived
// from the config so changing warmup/measure cannot silently skew the
// sim_seconds_per_wall_second rate.
double sim_span_seconds(const SimConfig& cfg) {
  return to_seconds(cfg.warmup + cfg.measure);
}

// Attach the perf_event_open attribution counters. perf_hw_available is
// always present (0/1) so readers can tell "no PMU on this box" from
// "forgot to record"; the per-event rates appear only when their counter
// was actually live.
void report_perf(benchmark::State& state, const PerfCounters& pc,
                 std::uint64_t events) {
  state.counters["perf_hw_available"] =
      benchmark::Counter(pc.hw_available() ? 1.0 : 0.0);
  if (events == 0) return;
  const double ev = static_cast<double>(events);
  if (pc.hw_available()) {
    state.counters["cycles_per_event"] =
        benchmark::Counter(static_cast<double>(pc.cycles()) / ev);
    state.counters["instructions_per_event"] =
        benchmark::Counter(static_cast<double>(pc.instructions()) / ev);
    if (pc.branches() > 0) {
      state.counters["branch_miss_rate"] = benchmark::Counter(
          static_cast<double>(pc.branch_misses()) /
          static_cast<double>(pc.branches()));
    }
  }
  if (pc.task_clock_available()) {
    state.counters["task_clock_ns_per_event"] =
        benchmark::Counter(static_cast<double>(pc.task_clock_ns()) / ev);
  }
}

void BM_SaturatedUdpPairs(benchmark::State& state) {
  const int n_pairs = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  double total = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t events = 0;
  PerfCounters pc;
  for (auto _ : state) {
    SimConfig cfg;
    cfg.measure = seconds(1);
    cfg.warmup = milliseconds(100);
    cfg.seed = seed++;
    Sim sim(cfg);
    const PairLayout l = pairs_in_range(n_pairs);
    std::vector<Node*> senders, receivers;
    for (int i = 0; i < n_pairs; ++i) senders.push_back(&sim.add_node(l.senders[i]));
    for (int i = 0; i < n_pairs; ++i) receivers.push_back(&sim.add_node(l.receivers[i]));
    std::vector<Sim::UdpFlow> flows;
    for (int i = 0; i < n_pairs; ++i) {
      flows.push_back(sim.add_udp_flow(*senders[i], *receivers[i]));
    }
    pc.start();
    sim.run();
    pc.stop();
    sim_seconds += sim_span_seconds(cfg);
    events += sim.scheduler().executed();
    for (const auto& f : flows) total += f.goodput_mbps();
    benchmark::DoNotOptimize(total);
  }
  state.counters["sim_seconds_per_wall_second"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kIsRate);
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["events_executed"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
  report_perf(state, pc, events);
}

void BM_TcpPair(benchmark::State& state) {
  std::uint64_t seed = 1;
  double sim_seconds = 0.0;
  std::uint64_t events = 0;
  PerfCounters pc;
  for (auto _ : state) {
    SimConfig cfg;
    cfg.measure = seconds(1);
    cfg.warmup = milliseconds(100);
    cfg.seed = seed++;
    Sim sim(cfg);
    const PairLayout l = pairs_in_range(1);
    Node& s = sim.add_node(l.senders[0]);
    Node& r = sim.add_node(l.receivers[0]);
    auto f = sim.add_tcp_flow(s, r);
    pc.start();
    sim.run();
    pc.stop();
    sim_seconds += sim_span_seconds(cfg);
    events += sim.scheduler().executed();
    benchmark::DoNotOptimize(f.goodput_mbps());
  }
  state.counters["sim_seconds_per_wall_second"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kIsRate);
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["events_executed"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
  report_perf(state, pc, events);
}

// Hotspot scale: one saturated AP pushing UDP downlink to N stations, all
// mutually in range — the paper's deployment shape. Every DATA/ACK/RTS/CTS
// fans out to every station, so this is the benchmark where per-frame
// radio math (distance/rx-power per attached PHY) dominates; the link-state
// cache turns that into a flat table walk. Offered load is fixed at
// 24 Mbps total (shared across stations) so packet-generation event cost
// stays constant across N and the sweep isolates the PHY fan-out.
void BM_Hotspot(benchmark::State& state) {
  const int n_stations = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  double total = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t events = 0;
  PerfCounters pc;
  for (auto _ : state) {
    SimConfig cfg;
    cfg.measure = seconds(1);
    cfg.warmup = milliseconds(100);
    cfg.seed = seed++;
    Sim sim(cfg);
    const SharedApLayout l = shared_ap(n_stations);
    Node& ap = sim.add_node(l.ap);
    std::vector<Sim::UdpFlow> flows;
    flows.reserve(static_cast<std::size_t>(n_stations));
    for (int i = 0; i < n_stations; ++i) {
      Node& sta = sim.add_node(l.clients[static_cast<std::size_t>(i)]);
      flows.push_back(sim.add_udp_flow(ap, sta, 24.0 / n_stations));
    }
    pc.start();
    sim.run();
    pc.stop();
    sim_seconds += sim_span_seconds(cfg);
    events += sim.scheduler().executed();
    for (const auto& f : flows) total += f.goodput_mbps();
    benchmark::DoNotOptimize(total);
  }
  state.counters["sim_seconds_per_wall_second"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kIsRate);
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["events_executed"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
  report_perf(state, pc, events);
}

// One saturated hotspot (an AP and its station 10 m apart, 12 Mb/s of UDP
// downlink) in the paper's 55/99 m ranges, plus N idle stations on a ring
// of `ring_m` around the pair, each with a no-op sniffer when `observed`.
// time_per_frame is wall time per frame put on the air, so its slope in N
// is what one idle receiver costs a frame.
void run_idle_ring(benchmark::State& state, double ring_m, bool observed) {
  const int n_idle = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  double frames = 0.0;
  double sim_seconds = 0.0;
  double total = 0.0;
  for (auto _ : state) {
    SimConfig cfg;
    cfg.comm_range_m = 55.0;
    cfg.cs_range_m = 99.0;
    cfg.measure = seconds(1);
    cfg.warmup = milliseconds(100);
    cfg.seed = seed++;
    Sim sim(cfg);
    Node& ap = sim.add_node({0, 0});
    Node& sta = sim.add_node({10, 0});
    for (int i = 0; i < n_idle; ++i) {
      const double a = 2.0 * std::numbers::pi * i / n_idle;
      Node& idle =
          sim.add_node({5.0 + ring_m * std::cos(a), ring_m * std::sin(a)});
      if (observed) idle.mac().sniffer = [](const Frame&, const RxInfo&) {};
    }
    const Sim::UdpFlow flow = sim.add_udp_flow(ap, sta);
    sim.run();
    sim_seconds += sim_span_seconds(cfg);
    for (int id = 0; id < sim.num_nodes(); ++id) {
      const MacStats s = sim.node(id).mac().stats();
      frames += static_cast<double>(s.rts_sent + s.cts_sent + s.data_sent +
                                    s.acks_sent);
    }
    total += flow.goodput_mbps();
    benchmark::DoNotOptimize(total);
  }
  // Wall seconds per frame, printed with its SI prefix (e.g. "450ns").
  state.counters["time_per_frame"] = benchmark::Counter(
      frames, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["sim_seconds_per_wall_second"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kIsRate);
}

// The idle stations on a 75 m ring: inside both radios' 99 m
// carrier-sense range and outside their 55 m communication range, so
// every frame reaches them as interference only. That is the Fig 23 band
// where two-thirds of a city frame's receivers sit. While such a receiver
// costs the channel one carrier-state update per frame edge,
// time_per_frame stays near flat in N.
void BM_InterferenceBand(benchmark::State& state) {
  run_idle_ring(state, 75.0, /*observed=*/false);
}

// The idle stations on a 30 m ring, where they decode every frame. No
// hook reads their measurements and the world has no bit errors, so the
// channel records each frame in their RxState and skips the rest of the
// reception tail (Channel::finish); the slope against BM_InterferenceBand
// is the rest of a decoding bystander's cost.
void BM_DecodingBystanders(benchmark::State& state) {
  run_idle_ring(state, 30.0, /*observed=*/false);
}

// BM_DecodingBystanders with a no-op sniffer on every idle station, which
// makes each a measurement reader: every tail runs in full, drawing its
// RSSI noise and calling the MAC's on_rx_end.
void BM_ObservedBystanders(benchmark::State& state) {
  run_idle_ring(state, 30.0, /*observed=*/true);
}

// Link-table upkeep under mobility, on the channel alone: N static radios
// on a 10 m grid, each sensing about 40 others (20 m communication, 36 m
// carrier-sense range), put frames on the air in turn, back to back, while
// one silent roamer walks across the grid a metre per step, stepping once
// per 500 frames (every 50 ms on a channel carrying a frame per 100 us).
// time_per_frame is wall time per frame; rebuilds_per_move and
// links_patched_per_move are the link work each step causes. Where a move
// makes every sender rebuild its table, a frame's cost grows with N; where
// it patches the moved radio's entry, a frame's cost stays about flat.
void BM_RoamingLinkUpkeep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int cols = static_cast<int>(std::ceil(std::sqrt(n)));
  constexpr int kFramesPerMove = 500;
  constexpr int kMovesPerIteration = 20;
  Scheduler sched;
  Channel channel(sched, WifiParams::b11());
  channel.set_ranges(20.0, 36.0);
  std::vector<std::unique_ptr<Phy>> radios;
  for (int i = 0; i < n; ++i) {
    const Position at{10.0 * (i % cols), 10.0 * (i / cols)};
    radios.push_back(std::make_unique<Phy>(channel, i, at, Rng(1 + i)));
  }
  Phy roamer(channel, n, {0.0, 5.0}, Rng(1 + n));
  const double width = 10.0 * cols;
  Frame frame;
  frame.type = FrameType::kAck;
  frame.ra = kBroadcast;
  int sender = 0;
  int step = 0;
  auto send = [&] {
    radios[static_cast<std::size_t>(sender)]->transmit(frame,
                                                        microseconds(50));
    sched.run();
    sender = (sender + 1) % n;
  };
  for (int i = 0; i < n; ++i) send();  // every table built once
  const std::uint64_t rebuilds0 = channel.link_tables_rebuilt();
  const std::uint64_t patched0 = channel.links_patched();
  double frames = 0.0;
  double moves = 0.0;
  for (auto _ : state) {
    for (int m = 0; m < kMovesPerIteration; ++m) {
      ++step;
      roamer.set_position({std::fmod(1.0 * step, width), 5.0});
      for (int k = 0; k < kFramesPerMove; ++k) send();
    }
    benchmark::DoNotOptimize(channel.receptions_sensed());
    frames += kMovesPerIteration * kFramesPerMove;
    moves += kMovesPerIteration;
  }
  state.counters["time_per_frame"] = benchmark::Counter(
      frames, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["rebuilds_per_move"] = benchmark::Counter(
      static_cast<double>(channel.link_tables_rebuilt() - rebuilds0) / moves);
  state.counters["links_patched_per_move"] = benchmark::Counter(
      static_cast<double>(channel.links_patched() - patched0) / moves);
}

// Pure scheduler microbench, no PHY/MAC: the dominant MAC pattern of
// schedule / cancel / reschedule plus a fired ladder. Measures raw
// events/sec through the slab + heap with zero steady-state allocation.
void BM_SchedulerChurn(benchmark::State& state) {
  Scheduler s;
  std::uint64_t sink = 0;
  constexpr int kBatch = 64;
  // Counters bracket the whole loop: iterations here are µs-scale, so
  // per-iteration ioctl start/stop would dominate the timing.
  PerfCounters pc;
  pc.start();
  for (auto _ : state) {
    EventId cancelled[kBatch / 4];
    int nc = 0;
    for (int i = 0; i < kBatch; ++i) {
      EventId id = s.after(microseconds(1 + (i * 7) % 50), [&sink] { ++sink; });
      if (i % 4 == 0) cancelled[nc++] = id;
    }
    for (int i = 0; i < nc; ++i) cancelled[i].cancel();
    s.run();
    benchmark::DoNotOptimize(sink);
  }
  pc.stop();
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(s.executed()), benchmark::Counter::kIsRate);
  state.counters["pool_slots"] =
      benchmark::Counter(static_cast<double>(s.pool_slots()));
  report_perf(state, pc, s.executed());
}

// Timer restart churn: the defer/backoff/NAV pattern — start, supersede,
// fire — exercising the cancel-tombstone path and slot reuse.
void BM_TimerRestart(benchmark::State& state) {
  Scheduler s;
  std::uint64_t fired = 0;
  Timer t(s, [&fired] { ++fired; });
  // Whole-loop counter bracket, as in BM_SchedulerChurn: per-iteration
  // ioctls would dominate these µs-scale iterations.
  PerfCounters pc;
  pc.start();
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) t.start(microseconds(10 + i));
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  pc.stop();
  state.counters["restarts_per_second"] = benchmark::Counter(
      32.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["pool_slots"] =
      benchmark::Counter(static_cast<double>(s.pool_slots()));
  report_perf(state, pc, s.executed());
}

// The hold model behind the ready queue's spill threshold
// (src/sim/timing_wheel.h): n pending entries; each step pops the minimum
// and pushes now + uniform(0, 2 * gap). Runs both modes of the scheduler's
// ready queue directly at every n, on the scheduler's own 16-byte entry
// and comparator — the plain 4-ary heap, and the timing wheel, which
// entries parked far past its span hold in wheel mode — at a mean gap of
// 0.5 ms (a saturated MAC) and 5 ms (sparse traffic). Every entry is live
// (the wheel's default liveness test).
using HoldHeap = DaryHeap<ReadyEntry, ReadyBefore>;
using HoldWheel = TimingWheel<ReadyEntry, ReadyBefore>;

const ReadyEntry& hold_top(HoldHeap& q) { return q.top(); }
const ReadyEntry& hold_top(HoldWheel& q) { return *q.top(); }

template <typename Queue>
void BM_ReadyQueueHold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Time span = 2 * microseconds(state.range(1));
  Rng rng(1);
  Queue q;
  std::uint64_t seq = 0;
  auto entry = [&seq](Time when) { return ReadyEntry::make(when, seq++, 0); };
  for (std::size_t i = 0; i < n; ++i) q.push(entry(rng.uniform_int(span)));
  if constexpr (std::is_same_v<Queue, HoldWheel>) {
    // The push that takes the wheel above kSpillAbove spills it, with its
    // cursor at the earliest of the n entries; these sit in its overflow
    // heap, which the hold never reaches, and keep it above kCollapseBelow.
    for (std::size_t i = 0; i <= HoldWheel::kSpillAbove; ++i) {
      q.push(entry(Time{1} << 60));
    }
  }
  for (auto _ : state) {
    const Time now = hold_top(q).when;
    q.pop();
    q.push(entry(now + rng.uniform_int(span)));
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations());
}

// The conservative parallel engine at hotspot scale: four isolated cells
// of 8 stations each plus a ring of cross-cell backhaul flows (2 ms wire
// => 2 ms lookahead epochs), run on 1, 2 and 4 shards. The 1-shard row is
// the sequential reference (identical epoch structure, no worker
// threads); speedup at N shards is the row ratio. No perf-counter
// attribution here: the work runs on pool workers, which the calling
// thread's perf_event fds do not observe — cycle attribution for the
// engine's event path comes from the single-threaded benches above.
void BM_ShardedHotspot(benchmark::State& state) {
  const int n_shards = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  double total = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t routed = 0;
  for (auto _ : state) {
    ShardedWorldSpec spec;
    spec.base.comm_range_m = 30.0;
    spec.base.cs_range_m = 60.0;
    spec.base.measure = seconds(1);
    spec.base.warmup = milliseconds(100);
    spec.base.seed = seed++;
    for (int b = 0; b < 4; ++b) {
      HotspotBssSpec cell;
      cell.ap = Position{600.0 * b, 0.0};
      cell.n_stations = 8;
      cell.rate_mbps = 24.0 / 8;
      spec.bsss.push_back(cell);
    }
    for (int b = 0; b < 4; ++b) {
      CrossFlowSpec cf;
      cf.src_bss = b;
      cf.dst_bss = (b + 1) % 4;
      cf.dst_station = b;
      cf.latency = milliseconds(2);
      cf.rate_mbps = 0.5;
      spec.cross_flows.push_back(cf);
    }
    ShardedSim sim(spec, n_shards, /*threaded=*/n_shards > 1);
    sim.run();
    sim_seconds += sim_span_seconds(spec.base);
    events += sim.events_executed();
    routed += sim.cross_packets_routed();
    for (const auto& m : sim.metrics()) total += m.goodput_mbps;
    benchmark::DoNotOptimize(total);
  }
  state.counters["sim_seconds_per_wall_second"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kIsRate);
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["events_executed"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
  state.counters["cross_packets_routed"] = benchmark::Counter(
      static_cast<double>(routed), benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_SaturatedUdpPairs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TcpPair)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Hotspot)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InterferenceBand)->Arg(0)->Arg(16)->Arg(48)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecodingBystanders)->Arg(0)->Arg(16)->Arg(48)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ObservedBystanders)->Arg(0)->Arg(16)->Arg(48)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RoamingLinkUpkeep)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SchedulerChurn)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TimerRestart)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ShardedHotspot)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_ReadyQueueHold, HoldHeap)
    ->ArgsProduct({{4, 8, 16, 32, 64, 128, 256, 1024}, {500, 5000}})
    ->ArgNames({"n", "gap_us"});
BENCHMARK_TEMPLATE(BM_ReadyQueueHold, HoldWheel)
    ->ArgsProduct({{4, 8, 16, 32, 64, 128, 256, 1024}, {500, 5000}})
    ->ArgNames({"n", "gap_us"});

}  // namespace

BENCHMARK_MAIN();
