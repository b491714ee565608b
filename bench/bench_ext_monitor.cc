// Streaming-monitor ingest throughput: frames/second through the full
// detector suite (NAV validation, RSSI profiling, backoff monitoring,
// spoof/fake-ACK/cross-layer bookkeeping) on the batch path the
// g80211_monitor tool drives — FrameBatch fill + StreamMonitor::process,
// no file I/O. The synthetic stream is honest overheard DATA/ACK traffic,
// so every per-frame detector runs its steady-state path (profile rings,
// backoff EWMAs, NAV checks) and state stays bounded: after the first
// epoch the loop is allocation-free, which is what the /N shard variants
// measure scaling against (one StreamMonitor per shard on a
// runner::ThreadPool, the driver's sharding model; /1 uses the pool's
// inline mode, so it is the true single-thread number).
//
// BM_MonitorDrain adds what the batch path skips: the same traffic
// written once as a JSONL journal, then MonitorDriver::drain over the
// file, so the reader's block reads and line scan are timed together with
// the detectors (/1: one stream on the driver's inline single shard).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/capture/capture_writer.h"
#include "src/mac/durations.h"
#include "src/monitor/driver.h"
#include "src/monitor/engine.h"
#include "src/monitor/frame_batch.h"
#include "src/phy/wifi_params.h"
#include "src/runner/thread_pool.h"

using namespace g80211;

namespace {

constexpr int kOwner = 0;      // the vantage station
constexpr int kPairs = 4;      // stations 1..8 exchanging DATA/ACK
constexpr int kExchanges = 2048;  // per epoch: 2 records each

// Append one epoch of overheard traffic starting at `t`: honest DATA/ACK
// exchanges between the pairs, DIFS + a deterministic backoff gap apart,
// with per-station RSSI. Returns the epoch's end time so consecutive
// epochs form one monotone journal.
Time fill_epoch(FrameBatch& batch, const WifiParams& p, Time t) {
  const int payload = 1024;
  const Time data_air = p.data_tx_time(payload);
  const Time ack_air = p.ack_tx_time();
  for (int i = 0; i < kExchanges; ++i) {
    const int s = 1 + 2 * (i % kPairs);
    const int r = s + 1;
    t += p.difs + ((i * 7) % 32) * p.slot;  // contention gap -> backoff sample

    CapturedFrame data;
    data.start = t;
    data.end = t + data_air;
    data.type = FrameType::kData;
    data.ta = s;
    data.ra = r;
    data.true_tx = s;
    data.duration = Durations::data(p);
    data.seq = i / kPairs;
    data.rssi_dbm = -30.0 - 0.5 * s;
    data.bytes = p.data_mac_overhead_bytes + payload;
    data.rate_mbps = 11.0;
    batch.push(data);

    CapturedFrame ack;
    ack.start = data.end + p.sifs;
    ack.end = ack.start + ack_air;
    ack.type = FrameType::kAck;
    ack.ra = s;
    ack.true_tx = r;
    ack.duration = Durations::ack();
    ack.rssi_dbm = -30.0 - 0.5 * r;
    ack.bytes = p.ack_bytes;
    ack.rate_mbps = 11.0;
    batch.push(ack);

    t = ack.end;
  }
  return t;
}

// One stream pinned to one shard, as MonitorDriver pins them.
struct Shard {
  explicit Shard(const WifiParams& p, MonitorConfig cfg)
      : monitor(p, kOwner, cfg) {}
  StreamMonitor monitor;
  FrameBatch batch;
  Time now = 0;
};

void BM_MonitorIngest(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const WifiParams params = WifiParams::b11();
  MonitorConfig cfg;
  cfg.window = seconds(1);

  std::vector<std::unique_ptr<Shard>> streams;
  for (int i = 0; i < shards; ++i) {
    streams.push_back(std::make_unique<Shard>(params, cfg));
  }
  // shards == 1 uses the pool's inline mode: no worker threads, the pure
  // single-shard ingest rate.
  ThreadPool pool(shards == 1 ? 0u : static_cast<unsigned>(shards));

  std::int64_t frames = 0;
  for (auto _ : state) {
    for (const auto& sh : streams) {
      pool.submit([&p = *sh, &params] {
        p.batch.clear();
        p.now = fill_epoch(p.batch, params, p.now);
        p.monitor.process(p.batch);
        // Keep the backlog bounded, as the driver's drain pass does.
        p.monitor.drain_windows();
        p.monitor.drain_alerts();
      });
    }
    pool.wait();
    frames += static_cast<std::int64_t>(2 * kExchanges) * shards;
  }

  for (const auto& sh : streams) {
    benchmark::DoNotOptimize(sh->monitor.verdicts(sh->now));
  }
  state.counters["frames_per_second"] = benchmark::Counter(
      static_cast<double>(frames), benchmark::Counter::kIsRate);
  state.counters["frames_per_iteration"] = benchmark::Counter(
      static_cast<double>(frames), benchmark::Counter::kAvgIterations);
}

// UseRealTime: with worker shards the main thread mostly waits, so rates
// must be against wall clock, not the submitting thread's CPU time.
BENCHMARK(BM_MonitorIngest)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_MonitorDrain(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  const WifiParams params = WifiParams::b11();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("g80211_bench_monitor_drain_" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  {
    constexpr int kEpochs = 8;  // 32768 frames, about 120 reader blocks
    JsonlWriter writer;
    writer.open(path, kOwner, params);
    FrameBatch batch;
    Time now = 0;
    for (int e = 0; e < kEpochs; ++e) {
      batch.clear();
      now = fill_epoch(batch, params, now);
      for (const CapturedFrame& f : batch.frames) writer.write(f);
    }
    writer.close(now);
  }

  MonitorOptions opts;
  opts.config.window = seconds(1);
  opts.shards = streams;
  const std::vector<std::string> paths(static_cast<std::size_t>(streams), path);
  std::int64_t frames = 0;
  for (auto _ : state) {
    MonitorDriver driver(opts, paths);
    driver.drain();
    for (std::size_t i = 0; i < paths.size(); ++i) {
      frames += driver.status(i).frames;
    }
    benchmark::DoNotOptimize(driver.verdicts(0));
  }
  std::filesystem::remove(path);

  state.counters["frames_per_second"] = benchmark::Counter(
      static_cast<double>(frames), benchmark::Counter::kIsRate);
  state.counters["frames_per_iteration"] = benchmark::Counter(
      static_cast<double>(frames), benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_MonitorDrain)->Arg(1)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
