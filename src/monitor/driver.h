// Multi-stream monitor driver: shards capture streams across a worker
// pool and runs the poll -> batch -> detect loop for each.
//
// A pass polls each stream once, which reads about one block of its file
// (CaptureStreamReader::kBlockBytes), and steps the detectors over that
// block's frames while they are still in cache. The backlog a pass holds
// is therefore one block per stream, however long the journals.
//
// Each stream (one capture journal = one vantage station's BSS view) is
// pinned to shard `index % shards` for its whole life, and a shard is
// processed by exactly one pool task per pass — streams never migrate and
// no stream's state is ever touched by two threads, so no per-stream
// locking exists and results are bit-identical for any shard count.
// Cross-stream merge (drain_windows/drain_alerts) happens between passes
// on the caller's thread, after ThreadPool::wait().
//
// Two consumption modes, same loop:
//  * file mode — drain() passes until no stream yields a record (each
//    has reached the end of its file), then finalizes: every JSONL stream
//    must have reached its footer, anything else is a truncated capture.
//  * follow mode — the caller owns the loop: pass() returns the number of
//    records consumed; on 0 the caller sleeps (the sleep lives in the
//    CLI, src/ stays free of wall-clock waits) and polls again, until
//    finished() reports every journal's footer has arrived.
//
// The driver only accepts JSONL journals: the detectors need the exact
// ticks, parameters and ground truth that pcap drops (same rule as
// replay_capture). A pcap input is rejected on its magic bytes, at the
// first pass — before the full pcap file header has even been written —
// so follow mode fails loudly instead of tailing it forever.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/capture/capture_stream.h"
#include "src/monitor/engine.h"
#include "src/runner/thread_pool.h"

namespace g80211 {

struct MonitorOptions {
  MonitorConfig config;
  // Worker shards: N > 1 runs each pass on N pool threads, 1 runs it
  // inline on the caller's thread.
  int shards = 1;
};

// A window/alert tagged with the stream it came from.
struct StreamWindow {
  int stream = 0;
  WindowRecord window;
};
struct StreamAlert {
  int stream = 0;
  Alert alert;
};

// Per-stream progress snapshot for reporting.
struct StreamStatus {
  std::string path;
  int owner = kNoAddr;
  bool header_ready = false;
  bool finished = false;       // JSONL footer seen
  std::int64_t frames = 0;
  Time end_time = 0;           // footer horizon, or latest frame end so far
  std::int64_t skipped_unknown = 0;
  std::int64_t first_skipped_offset = -1;
};

class MonitorDriver {
 public:
  // Opens every path (throws when one cannot be opened). `opts.shards` is
  // clamped to [1, streams].
  MonitorDriver(MonitorOptions opts, const std::vector<std::string>& paths);

  // One poll-and-process pass over every stream, sharded across the pool.
  // Returns the number of records consumed; rethrows the first stream
  // error (malformed journal, pcap input, out-of-order records).
  std::size_t pass();

  // Every stream has seen its footer.
  bool finished() const;

  // File mode: pass() until a pass consumes nothing, then finalize each
  // stream (throws if a journal ends without its footer or mid-record).
  void drain();

  // Close trailing windows at each stream's horizon. Called by drain();
  // follow-mode callers invoke it once finished() turns true.
  void finalize();

  std::size_t num_streams() const { return streams_.size(); }
  int shards() const { return shards_; }
  StreamStatus status(std::size_t i) const;
  // Final (or current-horizon) verdict snapshot for stream i.
  ReplayResult verdicts(std::size_t i) const;

  // Windows/alerts emitted since the last drain, merged across streams in
  // (time, stream) order. Deterministic for any shard count.
  std::vector<StreamWindow> drain_windows();
  std::vector<StreamAlert> drain_alerts();

 private:
  struct Stream {
    explicit Stream(const std::string& path) : reader(path) {}
    CaptureStreamReader reader;
    std::unique_ptr<StreamMonitor> monitor;  // created once the header is in
    FrameBatch batch;
    std::size_t consumed_last_pass = 0;
  };

  void pump(Stream& s);  // poll + process one stream (worker thread)

  MonitorOptions opts_;
  int shards_ = 1;
  std::vector<std::unique_ptr<Stream>> streams_;
  ThreadPool pool_;
  bool finalized_ = false;
};

}  // namespace g80211
