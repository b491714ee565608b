// The capture reader: every pcap or JSONL capture is framed here.
//
// Parses a capture record-by-record as its bytes arrive, tolerating a file
// that is still being written (a live CaptureWriter journal). A file is
// read in fixed blocks of kBlockBytes straight into the reader's buffer,
// and each read is followed by emitting every *complete* record the buffer
// holds; a record split by a block edge or by the current end of file
// stays buffered until a later read completes it. Records are therefore
// delivered exactly once, in journal order, and the buffer never holds
// more than one block plus the longest record, however long the input.
// The one-shot readers (capture_reader.h) are this reader run to the end
// of the input followed by check_complete(), so a file read whole and a
// file tailed live pass the same header, footer, order and skip rules and
// fail with the same errors.
//
// Format is sniffed from the first bytes (pcap magic vs. '{') unless the
// caller pins it. For JSONL the stream knows when it is complete (the
// footer line); pcap has no footer, so finished() stays false and the
// caller decides when to stop polling. pending_bytes() exposes whether the
// buffer holds a partial record — nonzero after the producer has finished
// means a truncated file.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/capture/capture.h"
#include "src/sim/hot.h"

namespace g80211 {

// The formats a reader accepts: kAny sniffs the first bytes.
enum class CaptureFormat { kAny, kPcap, kJsonl };

class CaptureStreamReader {
 public:
  // Opens the file; throws std::runtime_error when it cannot be opened.
  // The file may be empty or partially written at this point.
  explicit CaptureStreamReader(const std::string& path,
                               CaptureFormat format = CaptureFormat::kAny);
  // A capture held whole in memory: nothing is ever appended to `bytes`.
  CaptureStreamReader(std::vector<std::uint8_t> bytes, CaptureFormat format);
  ~CaptureStreamReader();
  CaptureStreamReader(const CaptureStreamReader&) = delete;
  CaptureStreamReader& operator=(const CaptureStreamReader&) = delete;

  // The unit of file input: each read takes at most this many bytes.
  static constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

  // Read the next block of the file and append every frame record the
  // buffer then completes to `out`; while that is none and the file has
  // more bytes, read the next block. Returns the number of frames
  // appended, which is 0 only once the reader has reached the current end
  // of the input: `while (poll(out) > 0)` reads everything written so far.
  // A capture held in memory is emitted whole by the first poll. Throws on
  // bytes that can never become a valid capture (same conditions as
  // read_capture), and when the file cannot be read.
  std::size_t poll(std::vector<CapturedFrame>& out);

  // True once the format sniff saw the pcap magic — available as soon as
  // the first 4 bytes arrive, long before a full pcap file header. Callers
  // that only accept JSONL journals (the monitor, whose detectors need the
  // exact ticks and ground truth pcap drops) use this to fail fast instead
  // of tailing a file that can never produce a record for them.
  bool pcap_detected() const { return format_ == CaptureFormat::kPcap; }

  // File-level metadata, valid once header_ready().
  bool header_ready() const { return header_ready_; }
  bool has_params() const { return format_ == CaptureFormat::kJsonl; }
  const WifiParams& params() const { return params_; }
  int owner() const { return owner_; }                  // kNoAddr for pcap

  // JSONL footer seen: the capture is complete and end_time() is the
  // recorded horizon. pcap never finishes from the reader's viewpoint;
  // end_time() then tracks the latest frame end seen.
  bool finished() const { return finished_; }
  Time end_time() const { return end_time_; }

  // Skip-and-count statistics for unrecognised pcap records; the offset is
  // the first skipped record's absolute byte position in the file.
  std::int64_t skipped_unknown() const { return skipped_unknown_; }
  std::int64_t first_skipped_offset() const { return first_skipped_offset_; }

  // Buffered bytes not yet parsed into a record: at most one block plus
  // the longest record. Nonzero once the producer has stopped writing
  // means the file ends mid-record (truncated).
  std::size_t pending_bytes() const { return end_ - begin_; }

  // For a capture whose producer has finished: throws unless the header
  // was read, a JSONL journal reached its footer, and no bytes are left
  // over mid-record.
  void check_complete() const;

  const std::string& path() const { return path_; }  // "" when in memory

 private:
  bool read_block();  // false once a read stops short of a whole block
  // Sniffs the format if still unknown, then emits the buffered records.
  std::size_t drain(std::vector<CapturedFrame>& out);
  std::size_t drain_pcap(std::vector<CapturedFrame>& out);
  // Per-frame ingest path of a JSONL journal: allocation-free for
  // canonical frame lines (see parse_jsonl_record).
  G80211_HOT std::size_t drain_jsonl(std::vector<CapturedFrame>& out);

  std::string path_;
  std::FILE* file_ = nullptr;

  // buf_[begin_, end_) holds the unparsed bytes; buf_.size() is the
  // buffer's room, which a file read fills from end_.
  std::vector<std::uint8_t> buf_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::int64_t buf_offset_ = 0;     // absolute file offset of buf_[0]

  CaptureFormat format_;            // kAny until sniffed
  bool header_ready_ = false;
  WifiParams params_;
  int owner_ = kNoAddr;
  bool finished_ = false;
  Time end_time_ = 0;
  Time last_event_ = 0;  // journal-order enforcement
  std::int64_t skipped_unknown_ = 0;
  std::int64_t first_skipped_offset_ = -1;
};

}  // namespace g80211
