#include "src/capture/capture_writer.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "src/capture/capture_tap.h"
#include "src/runner/metric_sink.h"

namespace g80211 {

namespace {

// Little-endian byte cursor over a caller-sized buffer.
struct ByteOut {
  std::uint8_t* p;

  void u8(std::uint8_t v) { *p++ = v; }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v & 0xff));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v & 0xffff));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  // Node id -> 802.11 address bytes (see capture.h for the mapping).
  void addr(int id) {
    if (id == kBroadcast) {
      for (int i = 0; i < 6; ++i) u8(0xff);
      return;
    }
    const auto u = static_cast<std::uint16_t>(id);
    for (std::uint8_t b : kMacOui) u8(b);
    u8(static_cast<std::uint8_t>(u >> 8));
    u8(static_cast<std::uint8_t>(u & 0xff));
  }
};

// Record header + radiotap + the longest MAC header (DATA): 51 bytes.
constexpr std::size_t kMaxPcapRecord = 16 + kRadiotapLen + kHdrLenData;

// The three quantisers saturate at their field's range for any input:
// rounding happens in the input's own type, so no value can overflow
// before the clamp (a long cannot hold 1e21 dBm; d + 500 can wrap).
std::uint16_t duration_us(Time d) {
  if (d <= 0) return 0;
  // Round to the nearest microsecond.
  const Time us = d / 1000 + (d % 1000 >= 500 ? 1 : 0);
  return us > 0xffff ? 0xffff : static_cast<std::uint16_t>(us);
}

std::uint8_t rate_half_mbps(double mbps) {
  const double v = std::round(mbps * 2.0);
  if (!(v > 0.0)) return 0;  // and NaN
  if (v > 255.0) return 255;
  return static_cast<std::uint8_t>(v);
}

std::int8_t rssi_s8(double dbm) {
  const double v = std::round(dbm);
  if (!(v > -128.0)) return -128;  // and NaN
  if (v > 127.0) return 127;
  return static_cast<std::int8_t>(v);
}

std::size_t mac_header_len(FrameType t) {
  switch (t) {
    case FrameType::kRts: return kHdrLenRts;
    case FrameType::kCts:
    case FrameType::kAck: return kHdrLenCtsAck;
    case FrameType::kData: return kHdrLenData;
  }
  return 0;
}

// The one pcap record formatter (serialize_record and PcapWriter::write):
// fills `buf` (kMaxPcapRecord bytes) and returns the record's length.
std::size_t format_pcap_record(const CapturedFrame& f, std::uint8_t* buf) {
  ByteOut out{buf};
  const std::size_t hdr_len = mac_header_len(f.type);
  const std::uint32_t incl = static_cast<std::uint32_t>(kRadiotapLen + hdr_len);
  // orig_len: radiotap pseudo-header plus the full on-air MAC length (we
  // capture headers only, like `tcpdump -s <hdr>`).
  const std::uint32_t orig =
      static_cast<std::uint32_t>(kRadiotapLen) +
      static_cast<std::uint32_t>(f.bytes > 0 ? f.bytes : 0);

  // Record header. Timestamps are the frame's first bit on air.
  out.u32(static_cast<std::uint32_t>(f.start / 1000000000));
  out.u32(static_cast<std::uint32_t>(f.start % 1000000000));
  out.u32(incl);
  out.u32(orig < incl ? incl : orig);

  // Radiotap.
  out.u8(0);  // version
  out.u8(0);  // pad
  out.u16(static_cast<std::uint16_t>(kRadiotapLen));
  out.u32(kRadiotapPresent);
  out.u8(f.corrupted ? kRadiotapFlagBadFcs : 0);               // Flags
  out.u8(rate_half_mbps(f.rate_mbps));                         // Rate
  out.u8(static_cast<std::uint8_t>(rssi_s8(f.rssi_dbm)));      // dBm signal

  // 802.11 MAC header.
  const std::uint8_t fc_flags =
      static_cast<std::uint8_t>((f.retry ? kFcFlagRetry : 0) |
                                (f.more_frags ? kFcFlagMoreFrags : 0));
  switch (f.type) {
    case FrameType::kRts:
      out.u8(kFcRts);
      out.u8(fc_flags);
      out.u16(duration_us(f.duration));
      out.addr(f.ra);
      out.addr(f.ta);
      break;
    case FrameType::kCts:
    case FrameType::kAck:
      out.u8(f.type == FrameType::kCts ? kFcCts : kFcAck);
      out.u8(fc_flags);
      out.u16(duration_us(f.duration));
      out.addr(f.ra);
      break;
    case FrameType::kData: {
      out.u8(kFcData);
      out.u8(fc_flags);
      out.u16(duration_us(f.duration));
      out.addr(f.ra);  // addr1 = RA
      out.addr(f.ta);  // addr2 = TA
      out.addr(f.ta);  // addr3 = BSSID stand-in
      const std::uint16_t seqctl = static_cast<std::uint16_t>(
          ((static_cast<unsigned>(f.seq) & 0xfff) << 4) |
          (static_cast<unsigned>(f.frag) & 0xf));
      out.u16(seqctl);
      break;
    }
  }
  return static_cast<std::size_t>(out.p - buf);
}

// Text cursor into a buffer sized for the longest line. Numbers come out
// byte-identical to printf's "%d"/"%lld"/"%llu" and "%.17g" (to_chars
// with a precision is specified as printf's %.*g), without the
// format-string interpretation. Each number is given exactly the room its
// widest value needs (sign and digits10 + 1 digits for an integer; 24
// chars for %.17g, as in -2.2250738585072014e-308), so no conversion can
// fail.
struct TextOut {
  char* p;

  void text(std::string_view s) {
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  }
  template <typename T>
  void num(T v) {
    p = std::to_chars(p, p + std::numeric_limits<T>::digits10 + 2, v).ptr;
  }
  void num(double v) {
    // %.17g prints an integral value below 2^53 as its bare digits, and
    // to_chars on the integer is ~25x cheaper than the precision path
    // (PHY rates, the 0 dBm RSSI of own transmissions). -0 keeps its sign.
    if (std::fabs(v) < 0x1p53 && v == std::trunc(v) &&
        !(v == 0.0 && std::signbit(v))) {
      num(static_cast<std::int64_t>(v));
      return;
    }
    p = std::to_chars(p, p + 24, v, std::chars_format::general, 17).ptr;
  }
  // `key` (with its leading comma and colon), then the value.
  template <typename T>
  void field(std::string_view key, T v) {
    text(key);
    num(v);
  }
  void flag(std::string_view key, bool v) {
    text(key);
    *p++ = v ? '1' : '0';
  }
};

// The longest frame line is 423 bytes: 150 of keys and punctuation, five
// int64s (20 chars each), a uint64 (20), nine ints (11), six one-digit
// values and two doubles (24, e.g. -2.2250738585072014e-308).
constexpr std::size_t kMaxFrameLine = 512;

// The one frame-line formatter (frame_line and JsonlWriter::write): writes
// the line, without its newline, into `buf` (kMaxFrameLine bytes) and
// returns its length. The reader's canonical scan (format_detail.cc)
// matches exactly this layout.
std::size_t format_frame_line(const CapturedFrame& f, char* buf) {
  TextOut out{buf};
  out.text("{\"t\":\"");
  out.text(frame_type_name(f.type));
  out.text("\"");
  out.field(",\"s\":", f.start);
  out.field(",\"e\":", f.end);
  out.field(",\"d\":", f.duration);
  out.field(",\"ta\":", f.ta);
  out.field(",\"ra\":", f.ra);
  out.field(",\"tt\":", f.true_tx);
  out.field(",\"sq\":", f.seq);
  out.field(",\"fg\":", f.frag);
  out.flag(",\"mf\":", f.more_frags);
  out.flag(",\"r\":", f.retry);
  out.flag(",\"c\":", f.corrupted);
  out.flag(",\"cl\":", f.collided);
  out.flag(",\"tx\":", f.tx);
  out.field(",\"rssi\":", f.rssi_dbm);
  out.field(",\"len\":", f.bytes);
  out.field(",\"rate\":", f.rate_mbps);
  if (f.type == FrameType::kData) {
    out.field(",\"fl\":", f.flow_id);
    out.field(",\"ps\":", f.pkt_seq);
    out.field(",\"pu\":", f.pkt_uid);
    out.field(",\"sn\":", f.src_node);
    out.field(",\"dn\":", f.dst_node);
    out.field(",\"cr\":", f.pkt_created);
    out.field(",\"pr\":", f.probe ? (f.probe_reply ? 2 : 1) : 0);
  }
  out.text("}");
  return static_cast<std::size_t>(out.p - buf);
}

}  // namespace

// --- PcapWriter --------------------------------------------------------------

std::vector<std::uint8_t> PcapWriter::serialize_header() {
  std::uint8_t buf[24];
  ByteOut out{buf};
  out.u32(kPcapMagicNs);
  out.u16(kPcapVersionMajor);
  out.u16(kPcapVersionMinor);
  out.u32(0);  // thiszone
  out.u32(0);  // sigfigs
  out.u32(kPcapSnapLen);
  out.u32(kLinktypeRadiotap);
  return std::vector<std::uint8_t>(buf, out.p);
}

std::vector<std::uint8_t> PcapWriter::serialize_record(const CapturedFrame& f) {
  std::uint8_t buf[kMaxPcapRecord];
  return std::vector<std::uint8_t>(buf, buf + format_pcap_record(f, buf));
}

void PcapWriter::open(const std::string& path) {
  close();
  file_ = std::fopen(path.c_str(), "wb");
  if (!file_) throw std::runtime_error("PcapWriter: cannot open " + path);
  const std::vector<std::uint8_t> header = serialize_header();
  std::fwrite(header.data(), 1, header.size(), file_);
}

void PcapWriter::write(const CapturedFrame& f) {
  if (!file_) return;
  std::uint8_t buf[kMaxPcapRecord];
  std::fwrite(buf, 1, format_pcap_record(f, buf), file_);
}

void PcapWriter::close() {
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

// --- JsonlWriter -------------------------------------------------------------

std::string JsonlWriter::header_line(int owner, const WifiParams& p) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"%s\":%d,\"owner\":%d,\"standard\":%d,\"slot\":%lld,\"sifs\":%lld,"
      "\"difs\":%lld,\"plcp\":%lld,\"data_rate_mbps\":%.17g,"
      "\"basic_rate_mbps\":%.17g,\"cw_min\":%d,\"cw_max\":%d,"
      "\"short_retry_limit\":%d,\"long_retry_limit\":%d,\"rts_bytes\":%d,"
      "\"cts_bytes\":%d,\"ack_bytes\":%d,\"data_mac_overhead_bytes\":%d}",
      kJsonlHeaderKey, kJsonlFormatVersion, owner, static_cast<int>(p.standard),
      static_cast<long long>(p.slot), static_cast<long long>(p.sifs),
      static_cast<long long>(p.difs), static_cast<long long>(p.plcp),
      p.data_rate_mbps, p.basic_rate_mbps, p.cw_min, p.cw_max,
      p.short_retry_limit, p.long_retry_limit, p.rts_bytes, p.cts_bytes,
      p.ack_bytes, p.data_mac_overhead_bytes);
  return buf;
}

std::string JsonlWriter::frame_line(const CapturedFrame& f) {
  char buf[kMaxFrameLine];
  return std::string(buf, format_frame_line(f, buf));
}

std::string JsonlWriter::footer_line(Time end_time) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"%s\":%lld}", kJsonlFooterKey,
                static_cast<long long>(end_time));
  return buf;
}

void JsonlWriter::open(const std::string& path, int owner,
                       const WifiParams& params) {
  close();
  file_ = std::fopen(path.c_str(), "wb");
  if (!file_) throw std::runtime_error("JsonlWriter: cannot open " + path);
  const std::string hdr = header_line(owner, params);
  std::fprintf(file_, "%s\n", hdr.c_str());
}

void JsonlWriter::write(const CapturedFrame& f) {
  if (!file_) return;
  char buf[kMaxFrameLine + 1];
  std::size_t n = format_frame_line(f, buf);
  buf[n++] = '\n';
  std::fwrite(buf, 1, n, file_);
}

void JsonlWriter::close(Time end_time) {
  if (!file_) return;
  const std::string ftr = footer_line(end_time);
  std::fprintf(file_, "%s\n", ftr.c_str());
  std::fclose(file_);
  file_ = nullptr;
}

// --- CaptureWriter -----------------------------------------------------------

void CaptureWriter::attach(Mac& mac) {
  pcap_.open(pcap_path());
  jsonl_.open(jsonl_path(), mac.id(), mac.params());
  tap_frames(mac, [this](const CapturedFrame& f) { record(f); });
}

void CaptureWriter::record(const CapturedFrame& f) {
  pcap_.write(f);
  jsonl_.write(f);
  ++frames_;
}

void CaptureWriter::close() {
  if (closed_) return;
  closed_ = true;
  pcap_.close();
  jsonl_.close(sched_->now());
}

// --- campaign gate -----------------------------------------------------------

std::string run_capture_stem(const std::string& figure,
                             const std::string& label) {
  const char* enabled = std::getenv("G80211_CAPTURE");
  if (!enabled || std::string(enabled) != "1") return "";
  const std::string dir = metrics_dir();
  if (dir.empty()) return "";
  // Campaign jobs open captures before MetricSink (created at aggregation
  // time) makes the export directory; failure falls through to the
  // writer's own cannot-open error.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string stem = dir + "/" + figure + "_";
  for (char c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_';
    stem += ok ? c : '_';
  }
  return stem;
}

}  // namespace g80211
