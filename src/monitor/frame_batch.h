// Ingest buffer for the streaming monitor: one poll's worth of capture
// records, held contiguously as the CapturedFrames the reader produced.
//
// The driver polls the capture reader straight into `frames` and
// StreamMonitor::process steps the detectors over them in place, so a
// frame is never copied or repacked between reader and detector. clear()
// keeps the capacity, so after the first few batches the poll -> process
// loop allocates nothing per frame.
#pragma once

#include <vector>

#include "src/capture/capture.h"

namespace g80211 {

struct FrameBatch {
  std::vector<CapturedFrame> frames;

  std::size_t size() const { return frames.size(); }
  bool empty() const { return frames.empty(); }
  // Drop all frames, retaining capacity.
  void clear() { frames.clear(); }
  void push(const CapturedFrame& f) { frames.push_back(f); }
};

}  // namespace g80211
