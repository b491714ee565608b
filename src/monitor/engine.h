// Per-stream core of the streaming GRC monitor.
//
// A StreamMonitor wraps one ReplayEngine (the full offline detector suite
// bound to a ManualClock, src/capture/replay_engine.h) and adds the
// streaming semantics the batch replay does not need:
//
//  * Sliding verdict windows: event time is divided into fixed windows
//    aligned to multiples of the window length. When a record's event time
//    reaches a window's end the window closes — a WindowRecord with the
//    record count and the cumulative headline verdicts as of that edge is
//    emitted. Empty windows close silently (a quiet channel produces no
//    records). Because verdict snapshots are pure reads on the engine,
//    windows are exactly the values replay_capture() would have reported
//    had the capture ended at the window edge.
//
//  * Alerts: the first time a detector implicates a subject (a station's
//    NAV inflations, a flagged ACK, a backoff cheater, a fake-ACK or
//    cross-layer verdict turning positive) an Alert is raised at the
//    closing window's edge. One alert per (kind, subject) for the life of
//    the stream: alerts are edge-triggered, windows are level-triggered.
//
// The same engine instance produces the final verdicts, so a monitor run
// over a complete capture ends byte-identical to replay_capture() on the
// parsed file — one detector implementation, two front-ends, checked by
// tests/test_monitor.cc.
//
// StreamMonitor does no I/O and never blocks; feeding it (from a file, a
// tailed journal, or a synthetic batch in the benches) is the driver's
// job. It is single-threaded by design — the driver shards streams across
// workers, never one stream across two.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "src/capture/replay_engine.h"
#include "src/monitor/frame_batch.h"

namespace g80211 {

struct MonitorConfig {
  ReplayOptions replay;
  Time window = seconds(1);  // verdict window length (event time)
};

// One closed verdict window. Counters are cumulative since stream start
// (the paper's detectors are cumulative estimators; a window reports the
// state of the evidence at its closing edge, not a per-window diff —
// except `frames`, which is this window's record count).
struct WindowRecord {
  Time start = 0;
  Time end = 0;
  std::int64_t frames = 0;
  std::int64_t nav_detections = 0;
  std::int64_t spoof_flagged = 0;
  std::int64_t acks_ignored = 0;
  std::vector<int> backoff_cheaters;
  std::vector<int> fake_ack_detected;     // probed destinations
  std::vector<int> cross_layer_detected;  // flow ids

  bool operator==(const WindowRecord&) const = default;
};

struct Alert {
  enum class Kind {
    kNavInflation,  // subject: inflating station (ground-truth attribution)
    kAckSpoof,      // subject: the vantage station whose ACKs were spoofed
    kBackoffCheat,  // subject: flagged station
    kFakeAck,       // subject: probed destination
    kCrossLayer,    // subject: TCP flow id
  };
  Kind kind = Kind::kNavInflation;
  Time at = 0;       // window edge that raised the alert
  int subject = -1;
  std::int64_t evidence = 0;  // detections/flags/suspicious count behind it

  bool operator==(const Alert&) const = default;
};

const char* alert_kind_name(Alert::Kind kind);

class StreamMonitor {
 public:
  StreamMonitor(const WifiParams& params, int owner, MonitorConfig cfg);

  // Consume a whole batch in order. Steady-state allocation-free apart
  // from window/alert emission and first-sight-of-a-node detector growth.
  void process(const FrameBatch& batch);
  void step(const CapturedFrame& r);

  // Close the trailing partial window at the capture horizon and run a
  // final alert scan. Idempotent for a fixed horizon; the stream must not
  // be stepped afterwards.
  void finalize(Time end_time);

  std::int64_t frames() const { return frames_; }
  const ReplayEngine& engine() const { return engine_; }

  // Full verdict snapshot at a horizon (what replay_capture would return
  // for a capture ending there).
  ReplayResult verdicts(Time at) const { return engine_.result(at); }

  // Emitted-and-not-yet-collected windows/alerts, in emission order. The
  // driver drains these after each pass; a drain hands off the backlog so
  // follow mode holds O(backlog), not O(stream).
  std::vector<WindowRecord> drain_windows();
  std::vector<Alert> drain_alerts();

 private:
  void close_window(Time edge);
  void scan_alerts(Time at, const ReplayResult& res);

  MonitorConfig cfg_;
  ReplayEngine engine_;
  std::int64_t frames_ = 0;
  Time window_start_ = kNever;      // kNever until the first record
  std::int64_t window_frames_ = 0;  // records in the currently open window
  bool finalized_ = false;

  std::vector<WindowRecord> windows_;
  std::vector<Alert> alerts_;

  // Alert edge-trigger state: subjects already reported, per kind.
  std::set<int> alerted_nav_, alerted_backoff_, alerted_fake_, alerted_xlayer_;
  bool alerted_spoof_ = false;
};

}  // namespace g80211
