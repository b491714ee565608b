// Capture parsing — the inverse of capture_writer.h.
//
// Each entry point runs the capture reader (capture_stream.h) to the end
// of its input and then requires the capture to be complete, so these
// accept exactly what a tailed file that has stopped growing would.
//
// Strict by design: a malformed file (bad magic, truncated record, missing
// JSONL footer, foreign MAC address, out-of-order records, an integer out
// of its field's range) throws std::runtime_error with a message naming
// the defect. The one tolerated irregularity is an unrecognised pcap
// record (unknown radiotap layout or 802.11 type/subtype — e.g. a beacon
// from a real capture): such records are skipped and counted in
// Capture::skipped_unknown, so a reader can distinguish "clean" from
// "partially understood".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/capture/capture.h"

namespace g80211 {

// Parse a pcap byte stream / JSONL text held in memory (the round-trip
// tests use these).
Capture parse_pcap(const std::vector<std::uint8_t>& bytes);
Capture parse_jsonl(const std::string& text);

// Read and parse a capture file. read_capture() dispatches on content: the
// pcap magic selects the pcap parser, a leading '{' the JSONL parser.
Capture read_pcap(const std::string& path);
Capture read_jsonl(const std::string& path);
Capture read_capture(const std::string& path);

}  // namespace g80211
