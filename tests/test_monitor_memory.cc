// Monitor memory contract: a 1-shard MonitorDriver drain holds one reader
// block and that block's frames at a time, so its peak heap does not grow
// with the length of the journal it reads. The check drains journals of N
// and 8N frames and requires the long drain's peak live allocation to stay
// within 64 KiB of the short one's; the slack covers the extra
// WindowRecords a longer journal closes. A reader that buffered the whole
// journal, or every parsed frame, would grow by about half a KiB per frame.
//
// This file is its own test binary (every tests/*.cc is), so it can
// replace the global allocator, as tests/test_spec_memory.cc does:
// operator new prepends a small header recording the block size and
// maintains live/peak counters.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include "src/capture/capture_writer.h"
#include "src/mac/durations.h"
#include "src/monitor/driver.h"
#include "src/phy/wifi_params.h"
#include "tests/test_artifacts.h"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void note_alloc(std::int64_t bytes) {
  const std::int64_t live = g_live.fetch_add(bytes) + bytes;
  std::int64_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
}

// Header keeps the block size; sized to max_align_t so the returned
// pointer stays suitably aligned for every ordinary type. Overaligned
// allocations take the untracked align_val_t overloads.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* tracked_alloc(std::size_t size) {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = size;
  note_alloc(static_cast<std::int64_t>(size));
  return static_cast<char*>(raw) + kHeader;
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(static_cast<std::int64_t>(*static_cast<std::size_t*>(raw)));
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t size) { return tracked_alloc(size); }
void* operator new[](std::size_t size) { return tracked_alloc(size); }
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }
// The nothrow forms too (std::stable_sort's temporary buffer takes them):
// AddressSanitizer supplies its own, which the tracked deletes above
// cannot free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return tracked_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}

namespace {

using namespace g80211;

constexpr int kOwner = 0;  // the vantage station
constexpr int kPairs = 4;  // stations 1..8 exchanging DATA/ACK

// A journal of `exchanges` honest DATA/ACK exchanges overheard by the
// vantage station (the traffic of bench_ext_monitor's fill_epoch): DIFS
// plus a deterministic backoff gap apart, with per-station RSSI, so every
// detector runs its steady-state path.
void write_journal(const std::string& path, int exchanges) {
  const WifiParams p = WifiParams::b11();
  const int payload = 1024;
  JsonlWriter w;
  w.open(path, kOwner, p);
  Time t = 0;
  for (int i = 0; i < exchanges; ++i) {
    const int s = 1 + 2 * (i % kPairs);
    const int r = s + 1;
    t += p.difs + ((i * 7) % 32) * p.slot;

    CapturedFrame data;
    data.start = t;
    data.end = t + p.data_tx_time(payload);
    data.type = FrameType::kData;
    data.ta = s;
    data.ra = r;
    data.true_tx = s;
    data.duration = Durations::data(p);
    data.seq = i / kPairs;
    data.rssi_dbm = -30.0 - 0.5 * s;
    data.bytes = p.data_mac_overhead_bytes + payload;
    data.rate_mbps = 11.0;
    w.write(data);

    CapturedFrame ack;
    ack.start = data.end + p.sifs;
    ack.end = ack.start + p.ack_tx_time();
    ack.type = FrameType::kAck;
    ack.ra = s;
    ack.true_tx = r;
    ack.duration = Durations::ack();
    ack.rssi_dbm = -30.0 - 0.5 * r;
    ack.bytes = p.ack_bytes;
    ack.rate_mbps = 11.0;
    w.write(ack);
    t = ack.end;
  }
  w.close(t);
}

// Peak live-allocation delta (bytes above the pre-existing baseline) of
// opening `path` in a 1-shard driver and draining it to its footer.
std::int64_t drain_peak_bytes(const std::string& path,
                              std::int64_t expect_frames) {
  const std::vector<std::string> paths = {path};
  const std::int64_t base = g_live.load();
  g_peak.store(base);
  {
    MonitorOptions opts;
    opts.config.window = seconds(1);
    MonitorDriver driver(opts, paths);
    driver.drain();
    EXPECT_EQ(driver.status(0).frames, expect_frames);
    EXPECT_FALSE(driver.drain_windows().empty());
  }
  return g_peak.load() - base;
}

TEST(MonitorMemory, PeakIsIndependentOfJournalLength) {
  const std::filesystem::path dir = g80211::test::artifact_dir(
      std::filesystem::temp_directory_path() /
      ("g80211_monitor_memory_" + std::to_string(::getpid())));
  const int n = 4000;  // exchanges: 8000 frames, about 30 reader blocks
  const std::string short_path = (dir / "short.jsonl").string();
  const std::string long_path = (dir / "long.jsonl").string();
  write_journal(short_path, n);
  write_journal(long_path, 8 * n);

  // One throwaway drain first, so lazily grown process-wide state (stdio
  // buffers, locale facets) is not charged to either measured drain.
  (void)drain_peak_bytes(short_path, 2 * n);

  const std::int64_t short_peak = drain_peak_bytes(short_path, 2 * n);
  const std::int64_t long_peak = drain_peak_bytes(long_path, 16 * n);
  ASSERT_GT(short_peak, 0);
  EXPECT_LE(long_peak, short_peak + (64 << 10))
      << "short " << short_peak << " B, long " << long_peak << " B";
  std::filesystem::remove_all(dir);
}

}  // namespace
