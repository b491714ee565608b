#include "src/capture/format_detail.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <type_traits>

#include "src/sim/hot.h"

namespace g80211 {
namespace capture_detail {

void fail(const std::string& what) {
  G80211_ALLOC_OK("error path: builds the message of the exception it throws");
  throw std::runtime_error("capture: " + what);
}

std::uint8_t ByteCursor::u8(const char* what) {
  need(1, what);
  return bytes[pos++];
}

std::uint16_t ByteCursor::u16(const char* what) {
  need(2, what);
  const std::uint16_t v =
      static_cast<std::uint16_t>(bytes[pos] | (bytes[pos + 1] << 8));
  pos += 2;
  return v;
}

std::uint32_t ByteCursor::u32(const char* what) {
  need(4, what);
  const std::uint32_t v = static_cast<std::uint32_t>(bytes[pos]) |
                          (static_cast<std::uint32_t>(bytes[pos + 1]) << 8) |
                          (static_cast<std::uint32_t>(bytes[pos + 2]) << 16) |
                          (static_cast<std::uint32_t>(bytes[pos + 3]) << 24);
  pos += 4;
  return v;
}

namespace {

// 6 address bytes -> node id; throws on an address outside our OUI scheme.
int parse_addr(ByteCursor& c) {
  c.need(6, "802.11 address");
  const std::uint8_t* a = c.bytes + c.pos;
  c.pos += 6;
  bool bcast = true;
  for (int i = 0; i < 6; ++i) bcast = bcast && a[i] == 0xff;
  if (bcast) return kBroadcast;
  if (a[0] != kMacOui[0] || a[1] != kMacOui[1] || a[2] != kMacOui[2] ||
      a[3] != kMacOui[3]) {
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  "foreign MAC address %02x:%02x:%02x:%02x:%02x:%02x", a[0],
                  a[1], a[2], a[3], a[4], a[5]);
    fail(buf);
  }
  return (a[4] << 8) | a[5];
}

// --- minimal strict JSON (flat objects of numbers and plain strings) ---------

struct JsonField {
  std::string raw;  // decoded string, or number token text
  bool is_string = false;
};

using JsonObject = std::map<std::string, JsonField>;

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
}

// The characters of a number token: the strict parser and the canonical
// scan both cut a value at the first byte outside this set.
bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
         c == 'e' || c == 'E' || c == 'n' || c == 'a' || c == 'i' || c == 'f';
}

std::string parse_json_string(std::string_view s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') fail("JSONL: expected string");
  ++i;
  std::string out;
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\') {
      ++i;
      if (i >= s.size()) fail("JSONL: unterminated escape");
      switch (s[i]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        default: fail("JSONL: unsupported escape");
      }
      ++i;
    } else {
      out += s[i++];
    }
  }
  if (i >= s.size()) fail("JSONL: unterminated string");
  ++i;  // closing quote
  return out;
}

JsonObject parse_json_object(std::string_view line) {
  G80211_ALLOC_OK(
      "strict parser: the header line, non-canonical records and error "
      "paths only; canonical frame lines take the in-place scan");
  JsonObject obj;
  std::size_t i = 0;
  skip_ws(line, i);
  if (i >= line.size() || line[i] != '{') fail("JSONL: expected '{'");
  ++i;
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_ws(line, i);
      const std::string key = parse_json_string(line, i);
      skip_ws(line, i);
      if (i >= line.size() || line[i] != ':') fail("JSONL: expected ':'");
      ++i;
      skip_ws(line, i);
      JsonField field;
      if (i < line.size() && line[i] == '"') {
        field.raw = parse_json_string(line, i);
        field.is_string = true;
      } else {
        const std::size_t start = i;
        while (i < line.size() && is_number_char(line[i])) ++i;
        if (i == start) fail("JSONL: expected value");
        field.raw = std::string(line.substr(start, i - start));
      }
      if (!obj.emplace(key, std::move(field)).second) {
        fail("JSONL: duplicate key \"" + key + "\"");
      }
      skip_ws(line, i);
      if (i >= line.size()) fail("JSONL: unterminated object");
      if (line[i] == ',') {
        ++i;
        continue;
      }
      if (line[i] == '}') {
        ++i;
        break;
      }
      fail("JSONL: expected ',' or '}'");
    }
  }
  skip_ws(line, i);
  if (i != line.size()) fail("JSONL: trailing content after object");
  return obj;
}

const JsonField& json_get(const JsonObject& obj, const char* key) {
  const auto it = obj.find(key);
  if (it == obj.end()) fail(std::string("JSONL: missing key \"") + key + "\"");
  return it->second;
}

// Integer value of `key`; throws unless it lies in [lo, hi].
std::int64_t json_i64(const JsonObject& obj, const char* key,
                      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
                      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  const JsonField& f = json_get(obj, key);
  if (f.is_string) fail(std::string("JSONL: key \"") + key + "\" not a number");
  char* endp = nullptr;
  errno = 0;
  const long long v = std::strtoll(f.raw.c_str(), &endp, 10);
  if (endp == f.raw.c_str() || *endp != '\0') {
    fail(std::string("JSONL: key \"") + key + "\" not an integer");
  }
  if (errno == ERANGE || v < lo || v > hi) {
    fail(std::string("JSONL: key \"") + key + "\" out of range: " + f.raw);
  }
  return v;
}

std::uint64_t json_u64(const JsonObject& obj, const char* key) {
  const JsonField& f = json_get(obj, key);
  if (f.is_string) fail(std::string("JSONL: key \"") + key + "\" not a number");
  // strtoull would wrap a leading '-' into a huge value.
  if (f.raw[0] == '-') {
    fail(std::string("JSONL: key \"") + key + "\" must not be negative");
  }
  char* endp = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(f.raw.c_str(), &endp, 10);
  if (endp == f.raw.c_str() || *endp != '\0') {
    fail(std::string("JSONL: key \"") + key + "\" not an integer");
  }
  if (errno == ERANGE) {
    fail(std::string("JSONL: key \"") + key + "\" out of range: " + f.raw);
  }
  return v;
}

double json_dbl(const JsonObject& obj, const char* key) {
  const JsonField& f = json_get(obj, key);
  if (f.is_string) fail(std::string("JSONL: key \"") + key + "\" not a number");
  char* endp = nullptr;
  const double v = std::strtod(f.raw.c_str(), &endp);
  if (endp == f.raw.c_str() || *endp != '\0') {
    fail(std::string("JSONL: key \"") + key + "\" not a number");
  }
  return v;
}

int json_int(const JsonObject& obj, const char* key) {
  return static_cast<int>(json_i64(obj, key, std::numeric_limits<int>::min(),
                                   std::numeric_limits<int>::max()));
}

bool json_flag(const JsonObject& obj, const char* key) {
  return json_i64(obj, key, 0, 1) != 0;
}

FrameType frame_type_from_name(const std::string& name) {
  if (name == "RTS") return FrameType::kRts;
  if (name == "CTS") return FrameType::kCts;
  if (name == "DATA") return FrameType::kData;
  if (name == "ACK") return FrameType::kAck;
  fail("JSONL: unknown frame type \"" + name + "\"");
}

}  // namespace

// --- pcap --------------------------------------------------------------------

bool parse_pcap_file_header(ByteCursor& c) {
  if (c.remaining() < 24) return false;
  if (c.u32("pcap magic") != kPcapMagicNs) {
    fail("bad pcap magic (expected nanosecond-resolution little-endian pcap)");
  }
  const std::uint16_t vmaj = c.u16("pcap version");
  const std::uint16_t vmin = c.u16("pcap version");
  if (vmaj != kPcapVersionMajor || vmin != kPcapVersionMinor) {
    fail("unsupported pcap version");
  }
  c.u32("pcap header");  // thiszone
  c.u32("pcap header");  // sigfigs
  c.u32("pcap header");  // snaplen
  if (c.u32("pcap linktype") != kLinktypeRadiotap) {
    fail("unsupported linktype (want IEEE802_11_RADIOTAP)");
  }
  return true;
}

bool read_pcap_record(ByteCursor& c, PcapRecordHeader& h) {
  if (c.remaining() < 16) return false;
  const std::size_t mark = c.pos;
  const std::uint32_t ts_sec = c.u32("pcap record header");
  const std::uint32_t ts_nsec = c.u32("pcap record header");
  h.incl = c.u32("pcap record header");
  h.orig = c.u32("pcap record header");
  if (c.remaining() < h.incl) {
    c.pos = mark;  // incomplete record: rewind so the caller can retry
    return false;
  }
  h.start = static_cast<Time>(ts_sec) * 1000000000 + ts_nsec;
  return true;
}

bool parse_pcap_record_body(ByteCursor& c, const PcapRecordHeader& h,
                            CapturedFrame& f) {
  const std::size_t record_end = c.pos + h.incl;
  f = CapturedFrame{};
  f.start = h.start;
  f.end = f.start;  // reception end times are not representable in pcap
  f.bytes =
      h.orig >= kRadiotapLen ? static_cast<int>(h.orig - kRadiotapLen) : 0;

  // Radiotap. Version 0 is the only version that exists; anything else is
  // file corruption, not an unknown capture flavour.
  if (c.u8("radiotap header") != 0) fail("bad radiotap version");
  c.u8("radiotap header");  // pad
  const std::uint16_t rt_len = c.u16("radiotap header");
  const std::uint32_t present = c.u32("radiotap header");
  if (rt_len < 8 || rt_len > h.incl) fail("bad radiotap length");
  bool known = rt_len == kRadiotapLen && present == kRadiotapPresent;
  if (known) {
    const std::uint8_t flags = c.u8("radiotap fields");
    f.corrupted = (flags & kRadiotapFlagBadFcs) != 0;
    f.rate_mbps = c.u8("radiotap fields") / 2.0;
    f.rssi_dbm =
        static_cast<double>(static_cast<std::int8_t>(c.u8("radiotap fields")));

    // 802.11 MAC header.
    const std::uint8_t fc = c.u8("frame control");
    const std::uint8_t fc_flags = c.u8("frame control");
    f.retry = (fc_flags & kFcFlagRetry) != 0;
    f.more_frags = (fc_flags & kFcFlagMoreFrags) != 0;
    switch (fc) {
      case kFcRts:
        f.type = FrameType::kRts;
        f.duration = static_cast<Time>(c.u16("duration")) * 1000;
        f.ra = parse_addr(c);
        f.ta = parse_addr(c);
        break;
      case kFcCts:
      case kFcAck:
        f.type = fc == kFcCts ? FrameType::kCts : FrameType::kAck;
        f.duration = static_cast<Time>(c.u16("duration")) * 1000;
        f.ra = parse_addr(c);
        f.ta = kNoAddr;  // CTS/ACK carry no transmitter address on air
        break;
      case kFcData: {
        f.type = FrameType::kData;
        f.duration = static_cast<Time>(c.u16("duration")) * 1000;
        f.ra = parse_addr(c);
        f.ta = parse_addr(c);
        parse_addr(c);  // addr3 duplicates the TA
        const std::uint16_t seqctl = c.u16("sequence control");
        f.seq = seqctl >> 4;
        f.frag = seqctl & 0xf;
        break;
      }
      default:
        known = false;  // unknown type/subtype (e.g. beacons): skip
        break;
    }
  }
  if (known && c.pos != record_end) fail("pcap record length mismatch");
  c.pos = record_end;
  return known;
}

// --- jsonl -------------------------------------------------------------------

void parse_jsonl_header(std::string_view line, int& owner, WifiParams& p) {
  const JsonObject obj = parse_json_object(line);
  if (obj.find(kJsonlHeaderKey) == obj.end()) {
    fail("JSONL: not a g80211 capture (missing header line)");
  }
  if (json_i64(obj, kJsonlHeaderKey) != kJsonlFormatVersion) {
    fail("JSONL: unsupported capture format version");
  }
  owner = json_int(obj, "owner");
  const int standard = json_int(obj, "standard");
  if (standard < 0 || standard > 2) fail("JSONL: bad standard");
  p.standard = static_cast<Standard>(standard);
  p.slot = json_i64(obj, "slot");
  p.sifs = json_i64(obj, "sifs");
  p.difs = json_i64(obj, "difs");
  p.plcp = json_i64(obj, "plcp");
  p.data_rate_mbps = json_dbl(obj, "data_rate_mbps");
  p.basic_rate_mbps = json_dbl(obj, "basic_rate_mbps");
  p.cw_min = json_int(obj, "cw_min");
  p.cw_max = json_int(obj, "cw_max");
  p.short_retry_limit = json_int(obj, "short_retry_limit");
  p.long_retry_limit = json_int(obj, "long_retry_limit");
  p.rts_bytes = json_int(obj, "rts_bytes");
  p.cts_bytes = json_int(obj, "cts_bytes");
  p.ack_bytes = json_int(obj, "ack_bytes");
  p.data_mac_overhead_bytes = json_int(obj, "data_mac_overhead_bytes");
}

namespace {

// The general reader of one post-header line: any key order, whitespace,
// escapes, extra keys; every malformed line fails here with an error that
// names its defect.
JsonlLine parse_jsonl_record_strict(std::string_view line, CapturedFrame& f,
                                    Time& end_time) {
  G80211_ALLOC_OK("the footer, non-canonical records and error paths only");
  const JsonObject obj = parse_json_object(line);
  if (obj.find(kJsonlFooterKey) != obj.end()) {
    end_time = json_i64(obj, kJsonlFooterKey);
    return JsonlLine::kFooter;
  }

  f = CapturedFrame{};
  f.type = frame_type_from_name(json_get(obj, "t").raw);
  f.start = json_i64(obj, "s");
  f.end = json_i64(obj, "e");
  f.duration = json_i64(obj, "d");
  f.ta = json_int(obj, "ta");
  f.ra = json_int(obj, "ra");
  f.true_tx = json_int(obj, "tt");
  f.seq = json_int(obj, "sq");
  f.frag = json_int(obj, "fg");
  f.more_frags = json_flag(obj, "mf");
  f.retry = json_flag(obj, "r");
  f.corrupted = json_flag(obj, "c");
  f.collided = json_flag(obj, "cl");
  f.tx = json_flag(obj, "tx");
  f.rssi_dbm = json_dbl(obj, "rssi");
  f.bytes = json_int(obj, "len");
  f.rate_mbps = json_dbl(obj, "rate");
  if (f.type == FrameType::kData) {
    f.flow_id = json_int(obj, "fl");
    f.pkt_seq = json_i64(obj, "ps");
    f.pkt_uid = json_u64(obj, "pu");
    f.src_node = json_int(obj, "sn");
    f.dst_node = json_int(obj, "dn");
    f.pkt_created = json_i64(obj, "cr");
    const int probe = json_int(obj, "pr");
    if (probe < 0 || probe > 2) fail("JSONL: bad probe marker");
    f.probe = probe != 0;
    f.probe_reply = probe == 2;
  }
  if (f.end < f.start) fail("JSONL: frame ends before it starts");
  return JsonlLine::kFrame;
}

// One forward pass over a line in JsonlWriter::frame_line's exact layout:
// literal keys in the writer's order, no whitespace, each value parsed in
// place. Every method returns false at the first byte that deviates, and
// the caller hands the whole line to the strict parser.
class FrameLineScan {
 public:
  explicit FrameLineScan(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  // Consumes the string literal `s` when the line continues with it. The
  // length is a compile-time constant, so the comparison inlines.
  template <std::size_t N>
  bool literal(const char (&s)[N]) {
    constexpr std::size_t n = N - 1;
    if (static_cast<std::size_t>(end_ - p_) < n ||
        std::memcmp(p_, s, n) != 0) {
      return false;
    }
    p_ += n;
    return true;
  }

  // `key`, then the number token the strict parser would cut, read as
  // from_chars would read it whole: an integer within T's range, or a
  // finite double (strtod and from_chars round decimals identically).
  template <typename T, std::size_t N>
  bool value(const char (&key)[N], T& v) {
    if (!literal(key)) return false;
    if constexpr (std::is_floating_point_v<T>) {
      return real(v);
    } else {
      return integer(v);
    }
  }

  // `key`, then exactly 0 or 1.
  template <std::size_t N>
  bool flag(const char (&key)[N], bool& v) {
    int raw = 0;
    if (!value(key, raw) || (raw != 0 && raw != 1)) return false;
    v = raw != 0;
    return true;
  }

  bool at_end() const { return p_ == end_; }

 private:
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  // The token ends here: from_chars consumed all of it.
  bool token_ends() const { return p_ == end_ || !is_number_char(*p_); }

  // An optional '-' (signed T only), at least one digit and the token's
  // end, with the value inside T: exactly what from_chars accepts.
  template <typename T>
  bool integer(T& v) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    bool negative = false;
    if constexpr (std::is_signed_v<T>) {
      negative = p_ != end_ && *p_ == '-';
      if (negative) ++p_;
    }
    const char* const first = p_;
    std::uint64_t magnitude = 0;
    for (; p_ != end_ && is_digit(*p_); ++p_) {
      const auto d = static_cast<std::uint64_t>(*p_ - '0');
      if (magnitude >= kMax / 10 &&
          (magnitude > kMax / 10 || d > kMax % 10)) {
        return false;  // beyond 64 bits
      }
      magnitude = magnitude * 10 + d;
    }
    if (p_ == first || !token_ends()) return false;
    const auto limit =
        static_cast<std::uint64_t>(std::numeric_limits<T>::max()) +
        (negative ? 1 : 0);
    if (magnitude > limit) return false;
    // Unsigned negation then the modular conversion to T (C++20): exact
    // for every magnitude up to limit, T's minimum included.
    using U = std::make_unsigned_t<T>;
    v = static_cast<T>(negative ? static_cast<U>(0 - magnitude)
                                : static_cast<U>(magnitude));
    return true;
  }

  // An integral token of at most 15 digits is below 2^53, so its digit
  // value converts to double exactly, as from_chars rounds it ("-0" gives
  // -0.0). The writer prints most rates and a transmission's rssi 0 this
  // way; every other token takes from_chars.
  bool real(double& v) {
    constexpr std::ptrdiff_t kExactDigits = 15;
    const char* const token = p_;
    const bool negative = p_ != end_ && *p_ == '-';
    if (negative) ++p_;
    const char* const first = p_;
    std::uint64_t magnitude = 0;
    for (; p_ != end_ && is_digit(*p_) && p_ - first <= kExactDigits; ++p_) {
      magnitude = magnitude * 10 + static_cast<std::uint64_t>(*p_ - '0');
    }
    if (p_ != first && p_ - first <= kExactDigits && token_ends()) {
      const auto d = static_cast<double>(magnitude);
      v = negative ? -d : d;
      return true;
    }
    while (p_ != end_ && is_number_char(*p_)) ++p_;
    const std::from_chars_result r = std::from_chars(token, p_, v);
    return r.ec == std::errc() && r.ptr == p_ && std::isfinite(v);
  }

  const char* p_;
  const char* const end_;
};

// True when `line` is a canonical frame line, with `f` filled exactly as
// the strict parser would fill it. Accepts a subset of what the strict
// parser accepts and never throws: a declined line may still be valid
// (reordered keys, "+5", whitespace) or not, and the strict parser says
// which.
bool scan_frame_line(std::string_view line, CapturedFrame& f) {
  FrameLineScan in(line);
  if (!in.literal("{\"t\":\"")) return false;  // header and footer stop here
  f = CapturedFrame{};
  if (in.literal("RTS\"")) {
    f.type = FrameType::kRts;
  } else if (in.literal("CTS\"")) {
    f.type = FrameType::kCts;
  } else if (in.literal("DATA\"")) {
    f.type = FrameType::kData;
  } else if (in.literal("ACK\"")) {
    f.type = FrameType::kAck;
  } else {
    return false;
  }
  if (!(in.value(",\"s\":", f.start) && in.value(",\"e\":", f.end) &&
        in.value(",\"d\":", f.duration) && in.value(",\"ta\":", f.ta) &&
        in.value(",\"ra\":", f.ra) && in.value(",\"tt\":", f.true_tx) &&
        in.value(",\"sq\":", f.seq) && in.value(",\"fg\":", f.frag) &&
        in.flag(",\"mf\":", f.more_frags) && in.flag(",\"r\":", f.retry) &&
        in.flag(",\"c\":", f.corrupted) && in.flag(",\"cl\":", f.collided) &&
        in.flag(",\"tx\":", f.tx) && in.value(",\"rssi\":", f.rssi_dbm) &&
        in.value(",\"len\":", f.bytes) &&
        in.value(",\"rate\":", f.rate_mbps))) {
    return false;
  }
  if (f.type == FrameType::kData) {
    int probe = 0;
    if (!(in.value(",\"fl\":", f.flow_id) && in.value(",\"ps\":", f.pkt_seq) &&
          in.value(",\"pu\":", f.pkt_uid) && in.value(",\"sn\":", f.src_node) &&
          in.value(",\"dn\":", f.dst_node) &&
          in.value(",\"cr\":", f.pkt_created) && in.value(",\"pr\":", probe)) ||
        probe < 0 || probe > 2) {
      return false;
    }
    f.probe = probe != 0;
    f.probe_reply = probe == 2;
  }
  return in.literal("}") && in.at_end() && f.end >= f.start;
}

}  // namespace

JsonlLine parse_jsonl_record(std::string_view line, CapturedFrame& f,
                             Time& end_time) {
  if (scan_frame_line(line, f)) return JsonlLine::kFrame;
  return parse_jsonl_record_strict(line, f, end_time);
}

}  // namespace capture_detail
}  // namespace g80211
