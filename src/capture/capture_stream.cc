#include "src/capture/capture_stream.h"

#include <cerrno>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "src/capture/format_detail.h"

namespace g80211 {

using capture_detail::ByteCursor;
using capture_detail::fail;

CaptureStreamReader::CaptureStreamReader(const std::string& path,
                                         CaptureFormat format)
    : path_(path), format_(format) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) fail("cannot open " + path);
}

CaptureStreamReader::CaptureStreamReader(std::vector<std::uint8_t> bytes,
                                         CaptureFormat format)
    : buf_(std::move(bytes)), end_(buf_.size()), format_(format) {}

CaptureStreamReader::~CaptureStreamReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool CaptureStreamReader::read_block() {
  // A drain leaves only the partial last record; move it to the front so
  // the block lands right behind it.
  if (begin_ > 0) {
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    buf_offset_ += static_cast<std::int64_t>(begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  // Grows past one block only while a record longer than a block is
  // pending.
  if (buf_.size() - end_ < kBlockBytes) buf_.resize(end_ + kBlockBytes);
  // A previous read hit EOF; the file may have grown since. Clearing the
  // EOF flag makes stdio look again.
  std::clearerr(file_);
  const std::size_t n = std::fread(buf_.data() + end_, 1, kBlockBytes, file_);
  end_ += n;
  if (n < kBlockBytes && std::ferror(file_)) {
    const int err = errno;  // strerror's text, without its shared buffer
    fail("cannot read " + path_ + ": " + std::generic_category().message(err));
  }
  return n == kBlockBytes;
}

std::size_t CaptureStreamReader::poll(std::vector<CapturedFrame>& out) {
  if (file_ == nullptr) return drain(out);  // in memory: all bytes are here
  for (;;) {
    const bool more = read_block();
    const std::size_t emitted = drain(out);
    if (emitted > 0 || !more) return emitted;
  }
}

std::size_t CaptureStreamReader::drain(std::vector<CapturedFrame>& out) {
  if (format_ == CaptureFormat::kAny) {
    if (pending_bytes() == 0) return 0;
    const std::uint8_t* const b = buf_.data() + begin_;
    if (b[0] == '{') {
      format_ = CaptureFormat::kJsonl;
    } else {
      if (pending_bytes() < 4) return 0;  // could still be a pcap magic prefix
      const std::uint32_t magic = static_cast<std::uint32_t>(b[0]) |
                                  (static_cast<std::uint32_t>(b[1]) << 8) |
                                  (static_cast<std::uint32_t>(b[2]) << 16) |
                                  (static_cast<std::uint32_t>(b[3]) << 24);
      if (magic != kPcapMagicNs) fail("unrecognised capture file " + path_);
      format_ = CaptureFormat::kPcap;
    }
  }
  return format_ == CaptureFormat::kPcap ? drain_pcap(out) : drain_jsonl(out);
}

void CaptureStreamReader::check_complete() const {
  const std::string where = path_.empty() ? "" : path_ + ": ";
  if (!header_ready_) {
    fail(where + (pending_bytes() == 0 ? "empty capture file"
                                       : "truncated capture header"));
  }
  if (format_ == CaptureFormat::kJsonl && !finished_) {
    fail(where + "JSONL: truncated capture (missing footer)");
  }
  if (pending_bytes() != 0) {
    fail(where + "truncated capture: " + std::to_string(pending_bytes()) +
         " bytes after the last complete record");
  }
}

std::size_t CaptureStreamReader::drain_pcap(std::vector<CapturedFrame>& out) {
  ByteCursor c{buf_.data(), end_, begin_};
  if (!header_ready_) {
    if (!capture_detail::parse_pcap_file_header(c)) return 0;
    header_ready_ = true;
  }

  std::size_t emitted = 0;
  for (;;) {
    capture_detail::PcapRecordHeader h;
    const std::size_t record_offset = c.pos;
    if (!capture_detail::read_pcap_record(c, h)) break;
    CapturedFrame f;
    if (capture_detail::parse_pcap_record_body(c, h, f)) {
      if (f.end > end_time_) end_time_ = f.end;
      out.push_back(f);
      ++emitted;
    } else {
      if (skipped_unknown_ == 0) {
        first_skipped_offset_ =
            buf_offset_ + static_cast<std::int64_t>(record_offset);
      }
      ++skipped_unknown_;
    }
  }
  begin_ = c.pos;
  return emitted;
}

std::size_t CaptureStreamReader::drain_jsonl(std::vector<CapturedFrame>& out) {
  // Each line is parsed as a view into buf_, which only read_block()
  // moves or grows, so no view outlives the bytes it points at.
  const char* const bytes = reinterpret_cast<const char*>(buf_.data());
  const std::size_t size = end_;
  std::size_t emitted = 0;
  std::size_t consumed = begin_;
  // consumed < size also keeps memchr off an empty buffer's null data().
  while (consumed < size) {
    // A line is parseable only once its newline has been written; the
    // producer writes whole lines, but the filesystem shows us prefixes.
    const void* nl = std::memchr(bytes + consumed, '\n', size - consumed);
    if (nl == nullptr) break;
    const std::size_t line_end =
        static_cast<std::size_t>(static_cast<const char*>(nl) - bytes);
    const std::string_view line(bytes + consumed, line_end - consumed);
    consumed = line_end + 1;
    if (line.empty()) continue;
    if (finished_) fail("JSONL: content after footer");

    if (!header_ready_) {
      capture_detail::parse_jsonl_header(line, owner_, params_);
      header_ready_ = true;
      continue;
    }

    CapturedFrame f;
    Time horizon = 0;
    if (capture_detail::parse_jsonl_record(line, f, horizon) ==
        capture_detail::JsonlLine::kFooter) {
      end_time_ = horizon;
      finished_ = true;
      continue;
    }
    if (f.event_time() < last_event_) fail("JSONL: records out of order");
    last_event_ = f.event_time();
    if (f.end > end_time_ && !finished_) end_time_ = f.end;
    // NOLINTNEXTLINE(hot-path-alloc): amortised growth of the caller's
    // vector, which a polling caller clears and reuses.
    out.push_back(f);
    ++emitted;
  }
  begin_ = consumed;
  return emitted;
}

}  // namespace g80211
