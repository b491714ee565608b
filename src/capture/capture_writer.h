// Streaming capture writers — see capture.h for the format contract.
//
// PcapWriter and JsonlWriter are pure serialisers over CapturedFrame;
// CaptureWriter is the live front end: it taps a station's MAC
// (tap_frames, capture_tap.h) and streams every frame to both files as it
// happens, so a crashed run still leaves a usable capture up to the last
// frame.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "src/capture/capture.h"
#include "src/mac/mac.h"
#include "src/sim/hot.h"
#include "src/sim/scheduler.h"

namespace g80211 {

// --- pcap -------------------------------------------------------------------

class PcapWriter {
 public:
  PcapWriter() = default;
  ~PcapWriter() { close(); }
  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  // Opens `path` (truncating) and writes the global header. Throws
  // std::runtime_error when the file cannot be opened.
  void open(const std::string& path);
  bool is_open() const { return file_ != nullptr; }
  void write(const CapturedFrame& f);
  void close();

  // Serialisation primitives (also what the byte-exact round-trip test
  // exercises): the writer is exactly header + concat(records).
  static std::vector<std::uint8_t> serialize_header();
  static std::vector<std::uint8_t> serialize_record(const CapturedFrame& f);

 private:
  std::FILE* file_ = nullptr;
};

// --- jsonl ------------------------------------------------------------------

class JsonlWriter {
 public:
  JsonlWriter() = default;
  ~JsonlWriter() { close(); }
  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  // Opens `path` and writes the header line. Throws on open failure.
  void open(const std::string& path, int owner, const WifiParams& params);
  bool is_open() const { return file_ != nullptr; }
  void write(const CapturedFrame& f);
  // Writes the footer line (capture horizon) and closes. A file without a
  // footer is treated as truncated by the reader.
  void close(Time end_time);
  void close() { close(0); }

  // Line-level serialisation primitives (shared with the round-trip test).
  static std::string header_line(int owner, const WifiParams& params);
  static std::string frame_line(const CapturedFrame& f);
  static std::string footer_line(Time end_time);

 private:
  std::FILE* file_ = nullptr;
};

// --- live front end ----------------------------------------------------------

// Records `<stem>.pcap` and `<stem>.jsonl` from one vantage station.
// attach() must be called exactly once, before the run; close() (or
// destruction) finalises both files at the scheduler's current time.
// Attaching taps the MAC's rx/tx sniffers and draws no randomness, so
// enabling a capture never perturbs the simulated run.
class CaptureWriter {
 public:
  CaptureWriter(Scheduler& sched, std::string stem)
      : sched_(&sched), stem_(std::move(stem)) {}
  ~CaptureWriter() { close(); }
  CaptureWriter(const CaptureWriter&) = delete;
  CaptureWriter& operator=(const CaptureWriter&) = delete;

  void attach(Mac& mac);
  void close();

  const std::string& stem() const { return stem_; }
  std::string pcap_path() const { return stem_ + ".pcap"; }
  std::string jsonl_path() const { return stem_ + ".jsonl"; }
  std::int64_t frames_written() const { return frames_; }

 private:
  // Per-frame recording path: formats into stack buffers, one fwrite per
  // file, no heap allocation.
  G80211_HOT void record(const CapturedFrame& f);

  Scheduler* sched_;
  std::string stem_;
  PcapWriter pcap_;
  JsonlWriter jsonl_;
  std::int64_t frames_ = 0;
  bool closed_ = false;
};

// Capture gate for campaigns: when G80211_CAPTURE=1 and G80211_METRICS_DIR
// is set, returns "<metrics_dir>/<figure>_<label>" with `label` sanitised
// for filesystem use; otherwise returns "" (capture disabled — benches pay
// nothing and their output stays bit-identical).
std::string run_capture_stem(const std::string& figure, const std::string& label);

}  // namespace g80211
