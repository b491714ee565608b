#include "src/capture/capture_writer.h"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "src/capture/capture_tap.h"
#include "src/runner/metric_sink.h"

namespace g80211 {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

// Node id -> 802.11 address bytes (see capture.h for the mapping).
void put_addr(std::vector<std::uint8_t>& out, int id) {
  if (id == kBroadcast) {
    for (int i = 0; i < 6; ++i) out.push_back(0xff);
    return;
  }
  const auto u = static_cast<std::uint16_t>(id);
  out.push_back(kMacOui[0]);
  out.push_back(kMacOui[1]);
  out.push_back(kMacOui[2]);
  out.push_back(kMacOui[3]);
  out.push_back(static_cast<std::uint8_t>(u >> 8));
  out.push_back(static_cast<std::uint8_t>(u & 0xff));
}

std::uint16_t duration_us(Time d) {
  if (d <= 0) return 0;
  const Time us = (d + 500) / 1000;  // round to the nearest microsecond
  return us > 0xffff ? 0xffff : static_cast<std::uint16_t>(us);
}

std::uint8_t rate_half_mbps(double mbps) {
  const double v = std::lround(mbps * 2.0);
  if (v < 0) return 0;
  if (v > 255) return 255;
  return static_cast<std::uint8_t>(v);
}

std::int8_t rssi_s8(double dbm) {
  const long v = std::lround(dbm);
  if (v < -128) return -128;
  if (v > 127) return 127;
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

void fwrite_all(std::FILE* f, const std::vector<std::uint8_t>& bytes) {
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
}

}  // namespace

// --- PcapWriter --------------------------------------------------------------

std::vector<std::uint8_t> PcapWriter::serialize_header() {
  std::vector<std::uint8_t> out;
  out.reserve(24);
  put_u32(out, kPcapMagicNs);
  put_u16(out, kPcapVersionMajor);
  put_u16(out, kPcapVersionMinor);
  put_u32(out, 0);  // thiszone
  put_u32(out, 0);  // sigfigs
  put_u32(out, kPcapSnapLen);
  put_u32(out, kLinktypeRadiotap);
  return out;
}

std::vector<std::uint8_t> PcapWriter::serialize_record(const CapturedFrame& f) {
  std::vector<std::uint8_t> out;
  const std::size_t hdr_len = mac_header_len(f.type);
  const std::uint32_t incl = static_cast<std::uint32_t>(kRadiotapLen + hdr_len);
  // orig_len: radiotap pseudo-header plus the full on-air MAC length (we
  // capture headers only, like `tcpdump -s <hdr>`).
  const std::uint32_t orig =
      static_cast<std::uint32_t>(kRadiotapLen) +
      static_cast<std::uint32_t>(f.bytes > 0 ? f.bytes : 0);
  out.reserve(16 + incl);

  // Record header. Timestamps are the frame's first bit on air.
  put_u32(out, static_cast<std::uint32_t>(f.start / 1000000000));
  put_u32(out, static_cast<std::uint32_t>(f.start % 1000000000));
  put_u32(out, incl);
  put_u32(out, orig < incl ? incl : orig);

  // Radiotap.
  out.push_back(0);  // version
  out.push_back(0);  // pad
  put_u16(out, static_cast<std::uint16_t>(kRadiotapLen));
  put_u32(out, kRadiotapPresent);
  out.push_back(f.corrupted ? kRadiotapFlagBadFcs : 0);  // Flags
  out.push_back(rate_half_mbps(f.rate_mbps));            // Rate
  out.push_back(static_cast<std::uint8_t>(rssi_s8(f.rssi_dbm)));  // dBm signal

  // 802.11 MAC header.
  const std::uint8_t fc_flags =
      static_cast<std::uint8_t>((f.retry ? kFcFlagRetry : 0) |
                                (f.more_frags ? kFcFlagMoreFrags : 0));
  switch (f.type) {
    case FrameType::kRts:
      out.push_back(kFcRts);
      out.push_back(fc_flags);
      put_u16(out, duration_us(f.duration));
      put_addr(out, f.ra);
      put_addr(out, f.ta);
      break;
    case FrameType::kCts:
    case FrameType::kAck:
      out.push_back(f.type == FrameType::kCts ? kFcCts : kFcAck);
      out.push_back(fc_flags);
      put_u16(out, duration_us(f.duration));
      put_addr(out, f.ra);
      break;
    case FrameType::kData: {
      out.push_back(kFcData);
      out.push_back(fc_flags);
      put_u16(out, duration_us(f.duration));
      put_addr(out, f.ra);  // addr1 = RA
      put_addr(out, f.ta);  // addr2 = TA
      put_addr(out, f.ta);  // addr3 = BSSID stand-in
      const std::uint16_t seqctl = static_cast<std::uint16_t>(
          ((static_cast<unsigned>(f.seq) & 0xfff) << 4) |
          (static_cast<unsigned>(f.frag) & 0xf));
      put_u16(out, seqctl);
      break;
    }
  }
  return out;
}

void PcapWriter::open(const std::string& path) {
  close();
  file_ = std::fopen(path.c_str(), "wb");
  if (!file_) throw std::runtime_error("PcapWriter: cannot open " + path);
  fwrite_all(file_, serialize_header());
}

void PcapWriter::write(const CapturedFrame& f) {
  if (!file_) return;
  fwrite_all(file_, serialize_record(f));
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
  char buf[768];
  int n = std::snprintf(
      buf, sizeof(buf),
      "{\"t\":\"%s\",\"s\":%lld,\"e\":%lld,\"d\":%lld,\"ta\":%d,\"ra\":%d,"
      "\"tt\":%d,\"sq\":%d,\"fg\":%d,\"mf\":%d,\"r\":%d,\"c\":%d,\"cl\":%d,"
      "\"tx\":%d,\"rssi\":%.17g,\"len\":%d,\"rate\":%.17g",
      frame_type_name(f.type), static_cast<long long>(f.start),
      static_cast<long long>(f.end), static_cast<long long>(f.duration), f.ta,
      f.ra, f.true_tx, f.seq, f.frag, f.more_frags ? 1 : 0, f.retry ? 1 : 0,
      f.corrupted ? 1 : 0, f.collided ? 1 : 0, f.tx ? 1 : 0, f.rssi_dbm,
      f.bytes, f.rate_mbps);
  std::string line(buf, static_cast<std::size_t>(n));
  if (f.type == FrameType::kData) {
    n = std::snprintf(
        buf, sizeof(buf),
        ",\"fl\":%d,\"ps\":%lld,\"pu\":%llu,\"sn\":%d,\"dn\":%d,\"cr\":%lld,"
        "\"pr\":%d",
        f.flow_id, static_cast<long long>(f.pkt_seq),
        static_cast<unsigned long long>(f.pkt_uid), f.src_node, f.dst_node,
        static_cast<long long>(f.pkt_created),
        f.probe ? (f.probe_reply ? 2 : 1) : 0);
    line.append(buf, static_cast<std::size_t>(n));
  }
  line += '}';
  return line;
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
  const std::string line = frame_line(f);
  std::fprintf(file_, "%s\n", line.c_str());
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
