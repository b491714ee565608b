// Record-level parsing internals of the capture reader (capture_stream.cc),
// which frames records out of the byte stream and hands each one here.
//
// Not part of the public capture API: everything here lives in
// g80211::capture_detail and may change shape freely.
//
// The incremental contract: header/record readers return false when the
// buffered bytes end before the record does ("wait for more input"), and
// throw std::runtime_error only for bytes that can never become valid
// (bad magic, bad radiotap version, foreign MAC address, malformed JSON,
// an integer outside its field's range). The reader turns a trailing false
// into a poll-again, and a finished input with bytes still pending into a
// "truncated" error.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/capture/capture.h"

namespace g80211 {
namespace capture_detail {

[[noreturn]] void fail(const std::string& what);

// --- little-endian cursor with bounds checks ---------------------------------

struct ByteCursor {
  const std::uint8_t* bytes;
  std::size_t size;      // bytes[0, size) are readable
  std::size_t pos = 0;

  std::size_t remaining() const { return size - pos; }
  void need(std::size_t n, const char* what) const {
    if (remaining() < n) fail(std::string("truncated ") + what);
  }
  std::uint8_t u8(const char* what);
  std::uint16_t u16(const char* what);
  std::uint32_t u32(const char* what);
};

// --- pcap --------------------------------------------------------------------

// Global pcap file header (magic/version/linktype). False: fewer than 24
// bytes available. Throws on anything that is not our pcap flavour.
bool parse_pcap_file_header(ByteCursor& c);

struct PcapRecordHeader {
  Time start = 0;           // nanosecond timestamp
  std::uint32_t incl = 0;   // captured bytes following the record header
  std::uint32_t orig = 0;   // original on-air length
};

// Record header + completeness check: false when the 16-byte header or the
// `incl` bytes after it are not fully buffered yet (cursor unmoved).
bool read_pcap_record(ByteCursor& c, PcapRecordHeader& h);

// Parse one record's radiotap + 802.11 bytes; the cursor sits right after
// the record header and is left at the record's end regardless of outcome.
// Returns false for an unrecognised record (unknown radiotap layout or
// frame type/subtype): skip-and-count, not an error.
bool parse_pcap_record_body(ByteCursor& c, const PcapRecordHeader& h,
                            CapturedFrame& f);

// --- jsonl -------------------------------------------------------------------

// Header line: validates the format marker/version and fills the capture
// owner and params. Throws when the line is not a capture header.
void parse_jsonl_header(std::string_view line, int& owner, WifiParams& p);

enum class JsonlLine { kFrame, kFooter };

// One post-header journal line (without its newline): a frame record
// (fills `f`) or the footer (fills `end_time`). A frame line in
// JsonlWriter::frame_line's exact layout is parsed by one in-place forward
// scan; any other line (the footer, a hand-edited or corrupt record) goes
// to the strict general parser, which alone decides what a non-canonical
// line means and is the only source of errors.
JsonlLine parse_jsonl_record(std::string_view line, CapturedFrame& f,
                             Time& end_time);

}  // namespace capture_detail
}  // namespace g80211
