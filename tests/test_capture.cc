// Capture subsystem: pcap/JSONL round trips, strict-parser rejection of
// corrupt files, the JSONL reader's canonical scan against its strict
// parser, the writer's byte format against its printf reference, block
// reads of a journal several reader blocks long, the committed golden
// fixture, and the headline guarantee
// of src/capture/replay.h — offline replay of a recorded run reproduces
// the live GRC detector verdicts exactly (same flagged stations, same
// counts) for NAV inflation, ACK spoofing, and fake-ACK misbehavior.
//
// All capture files are written under capture_test_artifacts/<Suite>.<Name>/
// in the test working directory, one directory per test so tests run in
// parallel never share a file; CI uploads capture_test_artifacts/ when the
// suite fails, so a red run ships the capture that broke it. Set G80211_REGEN_GOLDEN=1 to
// rewrite the committed fixtures in G80211_TEST_DATA_DIR instead of
// comparing against them (do this only for an intended format change, and
// say so in the commit message).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/capture/capture_reader.h"
#include "src/capture/capture_stream.h"
#include "src/capture/capture_tap.h"
#include "src/capture/capture_writer.h"
#include "src/capture/format_detail.h"
#include "src/capture/replay.h"
#include "src/detect/backoff_monitor.h"
#include "src/detect/cross_layer_detector.h"
#include "src/detect/fake_ack_detector.h"
#include "src/detect/nav_validator.h"
#include "src/detect/spoof_detector.h"
#include "src/greedy/nav_inflation.h"
#include "src/phy/error_model.h"
#include "src/scenario/scenario.h"
#include "src/scenario/topology.h"
#include "tests/test_artifacts.h"

#ifndef G80211_TEST_DATA_DIR
#define G80211_TEST_DATA_DIR "tests/data"
#endif

namespace g80211 {
namespace {

std::string artifact_stem(const char* name) {
  return (test::artifact_dir("capture_test_artifacts") / name).string();
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

std::string slurp_text(const std::string& path) {
  const auto bytes = slurp(path);
  return std::string(bytes.begin(), bytes.end());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Re-serialise a parsed capture with the writers' pure serialisation
// primitives (what CaptureWriter streams, byte for byte).
std::vector<std::uint8_t> reserialize_pcap(const Capture& cap) {
  std::vector<std::uint8_t> out = PcapWriter::serialize_header();
  for (const CapturedFrame& f : cap.frames) {
    const auto rec = PcapWriter::serialize_record(f);
    out.insert(out.end(), rec.begin(), rec.end());
  }
  return out;
}

std::string reserialize_jsonl(const Capture& cap) {
  std::string out = JsonlWriter::header_line(cap.owner, cap.params) + "\n";
  for (const CapturedFrame& f : cap.frames) {
    out += JsonlWriter::frame_line(f) + "\n";
  }
  out += JsonlWriter::footer_line(cap.end_time) + "\n";
  return out;
}

// --- fixed scenarios ----------------------------------------------------------
//
// Each returns with the capture files written and closed; configs are fully
// explicit so G80211_QUICK (set by ctest) has no effect.

struct NavLive {
  std::int64_t validated = 0;
  std::int64_t detections = 0;
  std::map<int, std::int64_t> by_node;
};

// Two UDP pairs, the second receiver inflating its CTS NAV by 31 ms
// (grc_defense scenario 1). Vantage and NAV validator: the victim sender,
// which `extra_tap` (when set) also taps after the capture.
NavLive run_nav_scenario(const std::string& stem, std::uint64_t seed,
                         Time measure, bool with_validator,
                         FrameSink extra_tap = nullptr) {
  SimConfig cfg;
  cfg.warmup = milliseconds(10);
  cfg.measure = measure;
  cfg.seed = seed;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  sim.add_udp_flow(ns, nr);
  sim.add_udp_flow(gs, gr);
  sim.make_nav_inflator(gr, NavFrameMask::cts_only(), milliseconds(31));

  CaptureWriter capture(sim.scheduler(), stem);
  capture.attach(ns.mac());
  if (extra_tap) tap_frames(ns.mac(), std::move(extra_tap));
  NavValidator validator(sim.scheduler(), sim.params());
  if (with_validator) validator.attach(ns.mac());

  sim.run();
  capture.close();
  return NavLive{validator.frames_validated(), validator.detections(),
                 validator.detections_by_node()};
}

}  // namespace

// --- round trips --------------------------------------------------------------

TEST(CaptureRoundTrip, PcapByteExact) {
  const std::string stem = artifact_stem("roundtrip");
  run_nav_scenario(stem, 21, milliseconds(200), false);

  const std::vector<std::uint8_t> original = slurp(stem + ".pcap");
  const Capture cap = read_pcap(stem + ".pcap");
  ASSERT_GT(cap.frames.size(), 100u);
  EXPECT_EQ(cap.skipped_unknown, 0);
  EXPECT_FALSE(cap.has_params);

  // Parse -> serialise reproduces the file byte for byte...
  EXPECT_EQ(reserialize_pcap(cap), original);
  // ...and the reparse of the reserialisation is the same frame list
  // (serialisation is a fixed point after one quantisation).
  EXPECT_EQ(parse_pcap(reserialize_pcap(cap)).frames, cap.frames);
}

TEST(CaptureRoundTrip, JsonlByteExact) {
  const std::string stem = artifact_stem("roundtrip");
  run_nav_scenario(stem, 21, milliseconds(200), false);

  const std::string original = slurp_text(stem + ".jsonl");
  const Capture cap = read_jsonl(stem + ".jsonl");
  ASSERT_GT(cap.frames.size(), 100u);
  ASSERT_TRUE(cap.has_params);
  EXPECT_EQ(cap.owner, 0);  // first node added = the victim sender
  EXPECT_EQ(cap.params.slot, WifiParams::b11().slot);

  EXPECT_EQ(reserialize_jsonl(cap), original);
  const Capture again = parse_jsonl(reserialize_jsonl(cap));
  EXPECT_EQ(again.frames, cap.frames);
  EXPECT_EQ(again.owner, cap.owner);
  EXPECT_EQ(again.end_time, cap.end_time);

  // The journal carries both sides of the vantage: transmissions and
  // receptions, with exact edges.
  bool saw_tx = false, saw_rx = false;
  for (const CapturedFrame& f : cap.frames) {
    (f.tx ? saw_tx : saw_rx) = true;
    EXPECT_GE(f.end, f.start);
  }
  EXPECT_TRUE(saw_tx);
  EXPECT_TRUE(saw_rx);
}

// --- strict parsing -----------------------------------------------------------

TEST(CaptureReader, RejectsCorruptFiles) {
  const std::string stem = artifact_stem("corrupt");
  run_nav_scenario(stem, 22, milliseconds(50), false);

  const std::vector<std::uint8_t> pcap = slurp(stem + ".pcap");
  const std::string jsonl = slurp_text(stem + ".jsonl");
  ASSERT_GT(pcap.size(), 80u);

  // pcap: wrong magic.
  {
    std::vector<std::uint8_t> bad = pcap;
    bad[0] ^= 0xff;
    EXPECT_THROW(parse_pcap(bad), std::runtime_error);
  }
  // pcap: truncated mid-record.
  {
    std::vector<std::uint8_t> bad(pcap.begin(), pcap.begin() + 50);
    EXPECT_THROW(parse_pcap(bad), std::runtime_error);
  }
  // pcap: an address outside the simulator's OUI scheme. The first
  // record's addr1 starts after the record header (16), radiotap (11),
  // FC (2) and Duration (2).
  {
    std::vector<std::uint8_t> bad = pcap;
    bad[24 + 16 + 11 + 4] = 0xaa;
    EXPECT_THROW(parse_pcap(bad), std::runtime_error);
  }
  // jsonl: missing footer = truncated capture.
  {
    const std::size_t cut = jsonl.rfind("{\"" + std::string(kJsonlFooterKey));
    ASSERT_NE(cut, std::string::npos);
    EXPECT_THROW(parse_jsonl(jsonl.substr(0, cut)), std::runtime_error);
  }
  // jsonl: a line that is not JSON.
  {
    std::string bad = jsonl;
    bad.insert(bad.find('\n') + 1, "not json\n");
    EXPECT_THROW(parse_jsonl(bad), std::runtime_error);
  }
  // jsonl: file that never was a capture.
  EXPECT_THROW(parse_jsonl("{\"foo\":1}\n"), std::runtime_error);
  EXPECT_THROW(parse_jsonl(""), std::runtime_error);
  // jsonl: the last line cut before its newline.
  EXPECT_THROW(parse_jsonl(jsonl.substr(0, jsonl.size() - 1)),
               std::runtime_error);

  // jsonl: integers outside their field's range, rejected with an error
  // that names the key instead of being narrowed into another value.
  const auto with_value = [&jsonl](const std::string& key,
                                   const std::string& value) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = jsonl.find(needle, jsonl.find('\n'));
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t begin = at + needle.size();
    const std::size_t end = jsonl.find_first_of(",}", begin);
    return jsonl.substr(0, begin) + value + jsonl.substr(end);
  };
  const auto expect_rejects = [](const std::string& text,
                                 const std::string& key) {
    try {
      parse_jsonl(text);
      ADD_FAILURE() << "accepted an out-of-range \"" << key << "\"";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("\"" + key + "\""),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejects(with_value("ta", "4294967296"), "ta");            // > int
  expect_rejects(with_value("sq", "-2147483649"), "sq");           // < int
  expect_rejects(with_value("s", "99999999999999999999"), "s");    // > int64
  expect_rejects(with_value("pu", "-1"), "pu");                    // unsigned
  expect_rejects(with_value("pu", "18446744073709551616"), "pu");  // > uint64
  expect_rejects(with_value("mf", "2"), "mf");                     // 0/1 flag
}

// --- canonical scan vs. strict parser -----------------------------------------
//
// The reader parses a record line in the writer's exact layout with an
// in-place scan, and hands every other line to the strict parser. A space
// after the opening brace is such a deviation: the scan declines the line
// and the strict parser skips the space, so the "strict twin" of a line is
// the strict parser's reading of the same record.

namespace {

std::string strict_twin(const std::string& line) {
  return "{ " + line.substr(1);
}

// What the public reader makes of one record line: its frame, or the
// error it throws.
struct LineResult {
  std::optional<CapturedFrame> frame;
  std::string error;
};

LineResult read_record_line(const std::string& line) {
  static const std::string header =
      JsonlWriter::header_line(0, WifiParams::b11()) + "\n";
  static const std::string footer = JsonlWriter::footer_line(0) + "\n";
  LineResult r;
  try {
    const Capture cap = parse_jsonl(header + line + "\n" + footer);
    if (cap.frames.size() == 1) {
      r.frame = cap.frames[0];
    } else {
      r.error = std::to_string(cap.frames.size()) + " frames";
    }
  } catch (const std::runtime_error& e) {
    r.error = e.what();
  }
  return r;
}

// Field-wise equality that also holds for NaN: doubles compare by bits.
bool same_frame(CapturedFrame a, CapturedFrame b) {
  for (auto [x, y] : {std::pair{&a.rssi_dbm, &b.rssi_dbm},
                      std::pair{&a.rate_mbps, &b.rate_mbps}}) {
    if (std::bit_cast<std::uint64_t>(*x) != std::bit_cast<std::uint64_t>(*y)) {
      return false;
    }
    *x = *y = 0.0;
  }
  return a == b;
}

void expect_same(const LineResult& a, const LineResult& b,
                 const std::string& line) {
  EXPECT_EQ(a.error, b.error) << line;
  ASSERT_EQ(a.frame.has_value(), b.frame.has_value()) << line;
  if (a.frame) {
    EXPECT_TRUE(same_frame(*a.frame, *b.frame)) << line;
  }
}

// A canonical line as its "key":value parts, in order.
using Fields = std::vector<std::pair<std::string, std::string>>;

Fields split_fields(const std::string& line) {
  Fields out;
  const std::string body = line.substr(1, line.size() - 2);
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = std::min(body.find(',', pos), body.size());
    const std::string part = body.substr(pos, comma - pos);
    const std::size_t colon = part.find(':');
    out.emplace_back(part.substr(0, colon), part.substr(colon + 1));
    if (comma == body.size()) return out;
    pos = comma + 1;
  }
}

std::string join_fields(const Fields& fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ',';
    out += key + ":" + value;
  }
  return out + "}";
}

// Variants of a canonical line: layouts the strict parser accepts but the
// scan must decline, and values the two could read differently or must
// both reject.
std::vector<std::string> mutants(const std::string& line) {
  const Fields fields = split_fields(line);
  std::vector<std::string> out;
  const auto edit = [&](const std::function<void(Fields&)>& change) {
    Fields f = fields;
    change(f);
    out.push_back(join_fields(f));
  };
  const auto set = [&](const std::string& key, const std::string& value) {
    edit([&](Fields& f) {
      for (auto& [k, v] : f) {
        if (k == "\"" + key + "\"") v = value;
      }
    });
  };
  edit([](Fields& f) { std::swap(f[1], f[2]); });  // keys reordered
  edit([](Fields& f) { std::reverse(f.begin(), f.end()); });
  edit([](Fields& f) { f.emplace_back("\"zz\"", "1"); });  // an extra key
  // A DATA key on a control frame; a duplicate key on DATA.
  edit([](Fields& f) { f.emplace(f.begin() + 3, "\"fl\"", "7"); });
  edit([](Fields& f) { f.pop_back(); });  // "pr" missing on DATA
  edit([](Fields& f) { f[1].second = " " + f[1].second; });  // ": " after s
  edit([](Fields& f) { std::swap(f[1].second, f[2].second); });  // e < s
  for (const char* key : {"s", "d", "ta", "len", "mf", "pu", "pr"}) {
    for (const char* v : {"+5", "1e3", "1.0", "007", "-0", "", "\"5\"", "5x"}) {
      set(key, v);
    }
  }
  for (const char* v : {"nan", "-nan", "inf", "-inf", "1e400", "-1e400",
                        "1e-400", "4.9406564584124654e-324", "-0", "+1",
                        ".5", "5.", "1e", "0x1p3", "1.5.5"}) {
    set("rssi", v);
  }
  for (const char* v : {"\"BEACON\"", "\"rts\"", "\"\"", "\"DATA \"",
                        "\"R\\u0054S\"", "\"ACK", "5"}) {
    set("t", v);
  }
  // Integer edges: each limit of int and int64 and one either side of it,
  // UINT64_MAX and one past it, a bare or doubled sign, 16 digits.
  for (const char* key : {"ta", "sq", "len"}) {
    for (const char* v : {"-2147483649", "-2147483648", "-2147483647",
                          "2147483646", "2147483647", "2147483648", "-",
                          "--1", "1234567890123456"}) {
      set(key, v);
    }
  }
  for (const char* key : {"s", "d", "ps", "cr"}) {
    for (const char* v :
         {"-9223372036854775809", "-9223372036854775808",
          "-9223372036854775807", "9223372036854775806",
          "9223372036854775807", "9223372036854775808", "-", "--1",
          "1234567890123456", "-1234567890123456"}) {
      set(key, v);
    }
  }
  for (const char* v : {"18446744073709551614", "18446744073709551615", "-",
                        "--1", "1234567890123456",
                        "00000000000000000000000000042"}) {
    set("pu", v);
  }
  // Doubles read by the digit loop (integral, at most 15 digits) and the
  // tokens just beyond it: 2^53 - 1, 2^53 and 2^53 + 1, 15 and 16 digits.
  for (const char* key : {"rssi", "rate"}) {
    for (const char* v :
         {"0", "-0", "9007199254740991", "9007199254740992",
          "9007199254740993", "-9007199254740993", "123456789012345",
          "-999999999999999", "000000000000042", "1234567890123456",
          "-1234567890123456", "0000000000000042", "-", "--1", "7-"}) {
      set(key, v);
    }
  }
  // The out-of-range values of CaptureReader.RejectsCorruptFiles.
  set("ta", "4294967296");
  set("sq", "-2147483649");
  set("s", "99999999999999999999");
  set("pu", "-1");
  set("pu", "18446744073709551616");
  set("mf", "2");
  out.push_back(line + " ");  // trailing whitespace
  out.push_back(line + "x");  // trailing bytes
  out.push_back(line + "}");
  return out;
}

std::vector<std::string> record_lines(const std::string& journal) {
  std::vector<std::string> lines;
  std::size_t pos = journal.find('\n') + 1;  // past the header
  while (pos < journal.size()) {
    const std::size_t nl = journal.find('\n', pos);
    std::string line = journal.substr(pos, nl - pos);
    if (line.rfind("{\"t\":", 0) == 0) lines.push_back(std::move(line));
    pos = nl + 1;
  }
  return lines;
}

// A DATA-heavy journal: no RTS/CTS, so DATA and ACK records dominate, and
// a probing fake-ACK detector adds probe (pr = 1) and reply (pr = 2) DATA.
std::string record_data_journal(const std::string& stem) {
  SimConfig cfg;
  cfg.warmup = milliseconds(10);
  cfg.measure = milliseconds(100);
  cfg.seed = 5;
  cfg.rts_cts = false;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(1);
  Node& s = sim.add_node(l.senders[0]);
  Node& r = sim.add_node(l.receivers[0]);
  sim.add_udp_flow(s, r);
  FakeAckDetector::Config dc;
  dc.probe_interval = milliseconds(2);
  FakeAckDetector detector(sim.scheduler(), s, r.id(), sim.reserve_flow_id(),
                           dc);
  detector.start(0);
  CaptureWriter capture(sim.scheduler(), stem);
  capture.attach(s.mac());
  sim.run();
  capture.close();
  return slurp_text(stem + ".jsonl");
}

// The record lines of the golden journal and of a fresh DATA-heavy one.
std::vector<std::string> scan_test_lines() {
  std::vector<std::string> lines =
      record_lines(slurp_text(std::string(G80211_TEST_DATA_DIR) +
                              "/golden_capture.jsonl"));
  const std::vector<std::string> data =
      record_lines(record_data_journal(artifact_stem("data_heavy")));
  int probes = 0, replies = 0;
  for (const std::string& line : data) {
    probes += line.find(",\"pr\":1}") != std::string::npos;
    replies += line.find(",\"pr\":2}") != std::string::npos;
  }
  EXPECT_GT(data.size(), 100u);
  EXPECT_GT(probes, 0);
  EXPECT_GT(replies, 0);
  lines.insert(lines.end(), data.begin(), data.end());
  return lines;
}

}  // namespace

TEST(JsonlScan, ReadsEveryLineAsTheStrictParserDoes) {
  for (const std::string& line : scan_test_lines()) {
    const LineResult canonical = read_record_line(line);
    ASSERT_TRUE(canonical.frame.has_value()) << canonical.error;
    expect_same(canonical, read_record_line(strict_twin(line)), line);
    for (const std::string& m : mutants(line)) {
      expect_same(read_record_line(m), read_record_line(strict_twin(m)), m);
    }
  }
}

TEST(JsonlScan, EveryPrefixFailsAsInTheStrictParser) {
  // Every proper prefix of a record line, given as a complete line, is an
  // error, and only the strict parser may report it. Each prefix is also
  // handed to the record parser alone in an exactly-sized heap block, so
  // a scan that read one byte past its line would trip AddressSanitizer.
  for (const std::string& line : scan_test_lines()) {
    for (std::size_t k = 1; k < line.size(); ++k) {
      const std::string prefix = line.substr(0, k);
      const LineResult strict = read_record_line(strict_twin(prefix));
      ASSERT_FALSE(strict.frame.has_value()) << prefix;
      const LineResult whole = read_record_line(prefix);
      EXPECT_FALSE(whole.frame.has_value()) << prefix;
      EXPECT_EQ(whole.error, strict.error) << prefix;

      const auto block = std::make_unique<char[]>(k);
      std::memcpy(block.get(), prefix.data(), k);
      CapturedFrame f;
      Time end_time = 0;
      std::string error = "accepted";
      try {
        capture_detail::parse_jsonl_record(std::string_view(block.get(), k), f,
                                           end_time);
      } catch (const std::runtime_error& e) {
        error = e.what();
      }
      EXPECT_EQ(error, strict.error) << prefix;
    }
  }
}

// --- writer format ------------------------------------------------------------

namespace {

// JsonlWriter::frame_line as it was written with snprintf before it moved
// to to_chars, kept as the byte-level reference of the journal format.
std::string printf_frame_line(const CapturedFrame& f) {
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

template <typename T, std::size_t N>
T pick(std::mt19937_64& rng, const T (&values)[N]) {
  return values[rng() % N];
}

int random_int(std::mt19937_64& rng) {
  const int edge[] = {std::numeric_limits<int>::min(),
                      std::numeric_limits<int>::max(), -1, 0, 1,
                      static_cast<int>(rng())};
  return pick(rng, edge);
}

std::int64_t random_i64(std::mt19937_64& rng) {
  const std::int64_t edge[] = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(), -1, 0,
      static_cast<std::int64_t>(rng()),
      static_cast<std::int64_t>(rng()) >> (rng() % 63)};
  return pick(rng, edge);
}

// Finite doubles: random bit patterns, subnormals, integers on both sides
// of 2^53, and the printf corner cases (-0, exponent switch-overs).
double random_double(std::mt19937_64& rng) {
  const double edge[] = {0.0, -0.0, 1e-5, 1e-4, 1e16, 1e17, 1e21, 0.1, 11.0,
                         5.5, -92.5, 0x1p53, -0x1p53, 0x1p53 - 1, 0x1p53 + 2,
                         std::numeric_limits<double>::denorm_min(),
                         -std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::lowest()};
  switch (rng() % 4) {
    case 0: return pick(rng, edge);
    case 1:  // subnormal: sign and mantissa bits only
      return std::bit_cast<double>(rng() & 0x800fffffffffffffULL);
    case 2:  // integral
      return static_cast<double>(static_cast<std::int64_t>(rng()) >>
                                 (rng() % 64));
    default:
      for (;;) {
        const double d = std::bit_cast<double>(rng());
        if (std::isfinite(d)) return d;
      }
  }
}

CapturedFrame random_frame(std::mt19937_64& rng) {
  constexpr Time kMax = std::numeric_limits<Time>::max();
  const FrameType types[] = {FrameType::kRts, FrameType::kCts,
                             FrameType::kData, FrameType::kAck};
  CapturedFrame f;
  f.type = pick(rng, types);
  f.start = random_i64(rng);
  switch (rng() % 3) {
    case 0: f.end = f.start; break;
    case 1: f.end = kMax; break;
    default:
      f.end = f.start > kMax - 1000000
                  ? f.start
                  : f.start + static_cast<Time>(rng() % 1000000);
  }
  f.duration = random_i64(rng);
  f.ta = random_int(rng);
  f.ra = random_int(rng);
  f.true_tx = random_int(rng);
  f.seq = random_int(rng);
  f.frag = random_int(rng);
  const std::uint64_t bits = rng();
  f.more_frags = bits & 1;
  f.retry = bits & 2;
  f.corrupted = bits & 4;
  f.collided = bits & 8;
  f.tx = bits & 16;
  f.rssi_dbm = random_double(rng);
  f.bytes = random_int(rng);
  f.rate_mbps = random_double(rng);
  if (f.type == FrameType::kData) {
    f.flow_id = random_int(rng);
    f.pkt_seq = random_i64(rng);
    const std::uint64_t uids[] = {0, std::numeric_limits<std::uint64_t>::max(),
                                  rng()};
    f.pkt_uid = pick(rng, uids);
    f.src_node = random_int(rng);
    f.dst_node = random_int(rng);
    f.pkt_created = random_i64(rng);
    const int probe = static_cast<int>(rng() % 3);
    f.probe = probe != 0;
    f.probe_reply = probe == 2;
  }
  // A journal's records run in event-time order from 0.
  if (f.event_time() < 0) {
    f.tx = false;
    f.end = std::max<Time>(f.end, 0);
  }
  return f;
}

}  // namespace

TEST(JsonlWriterFormat, MatchesPrintfAndRoundTripsExactly) {
  std::mt19937_64 rng(2007);
  std::vector<CapturedFrame> frames;
  for (int i = 0; i < 20000; ++i) frames.push_back(random_frame(rng));
  for (const CapturedFrame& f : frames) {
    ASSERT_EQ(JsonlWriter::frame_line(f), printf_frame_line(f));
  }

  std::stable_sort(frames.begin(), frames.end(),
                   [](const CapturedFrame& a, const CapturedFrame& b) {
                     return a.event_time() < b.event_time();
                   });
  const std::string path = artifact_stem("format") + ".jsonl";
  {
    JsonlWriter w;
    w.open(path, 3, WifiParams::b11());
    for (const CapturedFrame& f : frames) w.write(f);
    w.close(frames.back().end);
  }
  const Capture cap = read_jsonl(path);
  EXPECT_EQ(cap.frames, frames);

  // The strict parser reads the same journal into the same frames.
  std::string twin;
  const std::string text = slurp_text(path);
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = text.find('\n', pos);
    const std::string line = text.substr(pos, nl - pos);
    twin += (line.rfind("{\"t\":", 0) == 0 ? strict_twin(line) : line) + "\n";
    pos = nl + 1;
  }
  EXPECT_EQ(parse_jsonl(twin).frames, frames);
}

namespace {

// pcap's address space: 16-bit node ids under the 02:80:02:11 prefix, plus
// the broadcast address.
int pcap_addr(int id) { return id == kBroadcast ? kBroadcast : id & 0xffff; }

// The frame a pcap reader must return for `f`, from the format's
// documented limits (capture.h): timing is the first bit on air, Duration
// rounds to the nearest microsecond and saturates at its 16 bits, RSSI
// rounds to a whole dBm within int8, the rate to 0.5 Mb/s within a byte,
// the on-air length is at least the captured header, CTS/ACK carry no
// transmitter, only DATA carries a sequence number, and nothing the
// simulator alone knows (end time, ground truth, payload identity,
// direction) survives.
CapturedFrame pcap_view(const CapturedFrame& f) {
  CapturedFrame q;
  q.start = f.start;
  q.end = f.start;
  q.type = f.type;
  q.ra = pcap_addr(f.ra);
  const bool control = f.type == FrameType::kCts || f.type == FrameType::kAck;
  q.ta = control ? kNoAddr : pcap_addr(f.ta);
  if (f.duration > 0) {
    const Time us = f.duration / 1000 + (f.duration % 1000 >= 500 ? 1 : 0);
    q.duration = std::min<Time>(us, 0xffff) * 1000;
  }
  if (f.type == FrameType::kData) {
    q.seq = f.seq & 0xfff;
    q.frag = f.frag & 0xf;
  }
  q.more_frags = f.more_frags;
  q.retry = f.retry;
  q.corrupted = f.corrupted;
  q.rssi_dbm = std::clamp(std::round(f.rssi_dbm), -128.0, 127.0);
  q.rate_mbps = std::clamp(std::round(f.rate_mbps * 2.0), 0.0, 255.0) / 2.0;
  const int header = f.type == FrameType::kData ? 24 : control ? 10 : 16;
  q.bytes = std::max(f.bytes, header);
  return q;
}

}  // namespace

// PCAP round trip over generated frames, extremes included (the pcap twin
// of JsonlWriterFormat.MatchesPrintfAndRoundTripsExactly).
TEST(PcapWriterFormat, RoundTripsGeneratedFramesWithinItsQuantisation) {
  // pcap timestamps are unsigned 32-bit seconds: fold each start into
  // that span, the one input restriction the format imposes.
  constexpr std::uint64_t kSpan = (std::uint64_t{1} << 32) * 1000000000ULL;
  std::mt19937_64 rng(1993);
  std::vector<CapturedFrame> frames;
  for (int i = 0; i < 20000; ++i) {
    CapturedFrame f = random_frame(rng);
    f.start = static_cast<Time>(static_cast<std::uint64_t>(f.start) % kSpan);
    frames.push_back(f);
  }
  std::stable_sort(frames.begin(), frames.end(),
                   [](const CapturedFrame& a, const CapturedFrame& b) {
                     return a.start < b.start;
                   });
  const std::string path = artifact_stem("pcap_format") + ".pcap";
  {
    PcapWriter w;
    w.open(path);
    for (const CapturedFrame& f : frames) w.write(f);
  }
  const std::vector<std::uint8_t> original = slurp(path);
  const Capture cap = read_pcap(path);
  ASSERT_EQ(cap.frames.size(), frames.size());
  EXPECT_EQ(cap.skipped_unknown, 0);

  // Parse -> serialise reproduces the file byte for byte, and a second
  // parse reads the same frames.
  EXPECT_EQ(reserialize_pcap(cap), original);
  EXPECT_EQ(parse_pcap(reserialize_pcap(cap)).frames, cap.frames);
  // Every field pcap carries is the generated value, quantised.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(cap.frames[i], pcap_view(frames[i]))
        << "frame " << i << ": " << JsonlWriter::frame_line(frames[i])
        << "\n read back as " << JsonlWriter::frame_line(cap.frames[i]);
  }
}

// --- block reads -----------------------------------------------------------------

namespace {

constexpr std::size_t kBlock = CaptureStreamReader::kBlockBytes;

// A journal six reader blocks long: generated frames in event-time order,
// so block edges fall inside lines, and one frame line longer than two
// blocks that only the strict parser accepts (padded with spaces), so
// one whole block completes no line at all.
std::string multi_block_journal() {
  std::mt19937_64 rng(20);
  std::string text = JsonlWriter::header_line(2, WifiParams::b11()) + "\n";
  Time t = 0;
  for (int i = 0; text.size() < 6 * kBlock; ++i) {
    CapturedFrame f = random_frame(rng);
    f.start = t + static_cast<Time>(1 + rng() % 1000);
    f.end = f.start + static_cast<Time>(rng() % 1000);
    t = f.end;
    const std::string line = JsonlWriter::frame_line(f);
    text += i == 300 ? "{" + std::string(2 * kBlock, ' ') + line.substr(1)
                     : line;
    text += '\n';
  }
  return text + JsonlWriter::footer_line(t) + "\n";
}

std::size_t longest_line(const std::string& text) {
  std::size_t longest = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    longest = std::max(longest, nl - pos);
    pos = nl + 1;
  }
  return longest;
}

struct ReadOutcome {
  Capture cap;
  std::string error;
};

// `text` read from a file by polling to its end, checking the reader's
// buffer bound after every poll. An error loses the "<path>: " that the
// completeness checks put before it, so it compares with parse_jsonl's.
ReadOutcome read_in_blocks(const std::string& path, const std::string& text) {
  spit(path, std::vector<std::uint8_t>(text.begin(), text.end()));
  const std::size_t bound = kBlock + longest_line(text);
  ReadOutcome r;
  try {
    CaptureStreamReader reader(path, CaptureFormat::kJsonl);
    while (reader.poll(r.cap.frames) > 0) {
      EXPECT_LE(reader.pending_bytes(), bound);
    }
    EXPECT_LE(reader.pending_bytes(), bound);
    reader.check_complete();
    r.cap.owner = reader.owner();
    r.cap.end_time = reader.end_time();
  } catch (const std::runtime_error& e) {
    r.error = e.what();
    const std::size_t at = r.error.find(path + ": ");
    if (at != std::string::npos) r.error.erase(at, path.size() + 2);
  }
  return r;
}

ReadOutcome parse_whole(const std::string& text) {
  ReadOutcome r;
  try {
    r.cap = parse_jsonl(text);
  } catch (const std::runtime_error& e) {
    r.error = e.what();
  }
  return r;
}

}  // namespace

TEST(CaptureStream, ReadsAMultiBlockJournalAsParseJsonlDoes) {
  const std::string text = multi_block_journal();
  ASSERT_GT(longest_line(text), 2 * kBlock);
  bool straddled = false;
  for (std::size_t edge = kBlock; edge < text.size(); edge += kBlock) {
    straddled = straddled || text[edge - 1] != '\n';
  }
  EXPECT_TRUE(straddled);

  // The journal itself, then defects placed in later blocks: an
  // out-of-order pair, a line that is not JSON, a frame after the footer,
  // truncations mid-line and on a block edge, and a partial line after
  // the footer.
  const std::size_t mid = text.find('\n', 4 * kBlock) + 1;
  const std::size_t next = text.find('\n', mid) + 1;
  const std::size_t after = text.find('\n', next) + 1;
  const std::size_t footer = text.rfind('\n', text.size() - 2) + 1;
  const std::size_t last = text.rfind('\n', footer - 2) + 1;
  const std::string last_frame = text.substr(last, footer - last);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", text},
      {"records out of order", text.substr(0, mid) +
                                   text.substr(next, after - next) +
                                   text.substr(mid, next - mid) +
                                   text.substr(after)},
      {"expected '{'", text.substr(0, mid) + "not json\n" + text.substr(mid)},
      {"content after footer", text + last_frame},
      {"missing footer", text.substr(0, mid + 10)},
      {"missing footer", text.substr(0, 4 * kBlock)},
      {"bytes after the last complete record",
       text + last_frame.substr(0, 40)},
  };
  const std::string path = artifact_stem("blocks") + ".jsonl";
  for (const auto& [defect, journal] : cases) {
    const ReadOutcome whole = parse_whole(journal);
    const ReadOutcome blocks = read_in_blocks(path, journal);
    EXPECT_EQ(blocks.error, whole.error) << defect;
    EXPECT_NE(whole.error.find(defect), std::string::npos) << whole.error;
    if (defect.empty()) {
      EXPECT_EQ(whole.error, "");
      EXPECT_GT(whole.cap.frames.size(), 1000u);
      EXPECT_EQ(blocks.cap.frames, whole.cap.frames);
      EXPECT_EQ(blocks.cap.owner, whole.cap.owner);
      EXPECT_EQ(blocks.cap.end_time, whole.cap.end_time);
    }
  }
}

TEST(CaptureReader, SkipsUnknownPcapRecords) {
  const std::string stem = artifact_stem("unknown");
  run_nav_scenario(stem, 23, milliseconds(50), false);

  std::vector<std::uint8_t> bytes = slurp(stem + ".pcap");
  const Capture clean = parse_pcap(bytes);
  ASSERT_GT(clean.frames.size(), 10u);
  EXPECT_EQ(clean.first_skipped_offset, -1);

  // Rewrite the first record's Frame Control byte to a management frame
  // (a beacon): unknown to the parser, skipped and counted, not fatal.
  bytes[24 + 16 + 11] = 0x80;
  const Capture cap = parse_pcap(bytes);
  EXPECT_EQ(cap.skipped_unknown, 1);
  EXPECT_EQ(cap.frames.size(), clean.frames.size() - 1);
  // The skip statistics point at the record, not the bad byte: the first
  // record header starts right after the 24-byte pcap file header.
  EXPECT_EQ(cap.first_skipped_offset, 24);
}

TEST(CaptureReader, DispatchesByContent) {
  const std::string stem = artifact_stem("dispatch");
  run_nav_scenario(stem, 24, milliseconds(50), false);
  EXPECT_FALSE(read_capture(stem + ".pcap").has_params);
  EXPECT_TRUE(read_capture(stem + ".jsonl").has_params);
}

TEST(Replay, RequiresTheJsonlJournal) {
  const std::string stem = artifact_stem("dispatch");
  run_nav_scenario(stem, 24, milliseconds(50), false);
  const Capture pcap = read_pcap(stem + ".pcap");
  EXPECT_THROW(replay_capture(pcap), std::runtime_error);
}

// --- the MAC tap ----------------------------------------------------------------

TEST(CaptureTap, JournalHoldsExactlyTheTappedFrames) {
  // CaptureWriter records through the same tap any other sink gets: the
  // journal read back is exactly the frame sequence a second tap saw.
  std::vector<CapturedFrame> tapped;
  const std::string stem = artifact_stem("tap");
  run_nav_scenario(stem, 25, milliseconds(100), false,
                   [&tapped](const CapturedFrame& f) { tapped.push_back(f); });
  ASSERT_GT(tapped.size(), 50u);
  EXPECT_EQ(read_jsonl(stem + ".jsonl").frames, tapped);
  EXPECT_EQ(read_pcap(stem + ".pcap").frames.size(), tapped.size());
}

// --- live vs replay equivalence ----------------------------------------------

TEST(Replay, MatchesLiveNavValidatorVerdicts) {
  const std::string stem = artifact_stem("equiv_nav");
  const NavLive live = run_nav_scenario(stem, 11, seconds(1), true);
  ASSERT_GT(live.validated, 0);
  ASSERT_GT(live.detections, 0) << "scenario must exercise the attack";

  const ReplayResult offline = replay_capture(read_jsonl(stem + ".jsonl"));
  EXPECT_EQ(offline.nav_validated, live.validated);
  EXPECT_EQ(offline.nav_detections, live.detections);
  EXPECT_EQ(offline.nav_detections_by_node, live.by_node);
}

TEST(Replay, MatchesLiveSpoofDetectorVerdicts) {
  // grc_defense scenario 2: two TCP pairs, the far receiver spoofing MAC
  // ACKs for the victim flow, channel lossy enough that spoofs matter.
  SimConfig cfg;
  cfg.warmup = milliseconds(10);
  cfg.measure = seconds(2);
  cfg.seed = 11;
  cfg.default_ber = 2e-4;
  cfg.capture_threshold = 10.0;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  sim.add_tcp_flow(ns, nr);
  sim.add_tcp_flow(gs, gr);
  sim.make_ack_spoofer(gr, 1.0, {nr.id()});

  const std::string stem = artifact_stem("equiv_spoof");
  CaptureWriter capture(sim.scheduler(), stem);
  capture.attach(ns.mac());
  SpoofDetector detector(1.0);
  detector.attach(ns.mac());

  sim.run();
  capture.close();
  const std::int64_t live_checked = detector.true_positives() +
                                    detector.false_positives() +
                                    detector.true_negatives() +
                                    detector.false_negatives();
  ASSERT_GT(live_checked, 0);
  ASSERT_GT(detector.flagged(), 0) << "scenario must exercise the attack";

  const ReplayResult offline = replay_capture(read_jsonl(stem + ".jsonl"));
  EXPECT_EQ(offline.acks_checked, live_checked);
  EXPECT_EQ(offline.spoof_tp, detector.true_positives());
  EXPECT_EQ(offline.spoof_fp, detector.false_positives());
  EXPECT_EQ(offline.spoof_tn, detector.true_negatives());
  EXPECT_EQ(offline.spoof_fn, detector.false_negatives());
  EXPECT_EQ(offline.spoof_flagged(), detector.flagged());
  EXPECT_EQ(offline.acks_ignored,
            static_cast<std::int64_t>(ns.mac().stats().acks_ignored));

  // The learned physical-layer profiles match too: same peers, same sample
  // counts, same sliding-window medians (the journal carries the measured
  // RSSI of every reception, so the offline monitor sees the identical
  // sample sequence).
  const RssiMonitor& live_mon = detector.monitor();
  std::vector<RssiProfile> live_rssi;
  for (const int peer : live_mon.peers()) {
    live_rssi.push_back(
        RssiProfile{peer, static_cast<std::int64_t>(live_mon.samples(peer)),
                    live_mon.median(peer).value_or(0.0)});
  }
  ASSERT_FALSE(live_rssi.empty());
  EXPECT_EQ(offline.rssi, live_rssi);
}

TEST(Replay, MatchesLiveBackoffMonitorVerdicts) {
  // The DOMINO baseline from a bystander vantage: two saturated UDP pairs,
  // the second sender backing off a tenth of what it should. The capture
  // and the live monitor both ride receiver 1's MAC, so replay sees the
  // exact busy/idle history the live channel_observer fed.
  SimConfig cfg;
  cfg.warmup = milliseconds(10);
  cfg.measure = seconds(2);
  cfg.seed = 26;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& honest_s = sim.add_node(l.senders[0]);
  Node& greedy_s = sim.add_node(l.senders[1]);
  Node& r1 = sim.add_node(l.receivers[0]);
  Node& r2 = sim.add_node(l.receivers[1]);
  sim.add_udp_flow(honest_s, r1);
  sim.add_udp_flow(greedy_s, r2);
  greedy_s.mac().set_backoff_cheat(0.1);

  const std::string stem = artifact_stem("equiv_backoff");
  CaptureWriter capture(sim.scheduler(), stem);
  capture.attach(r1.mac());
  BackoffMonitor monitor(sim.scheduler(), sim.params());
  monitor.attach(r1.mac());

  sim.run();
  capture.close();
  ASSERT_GT(monitor.samples(greedy_s.id()), 20);
  ASSERT_TRUE(monitor.flagged(greedy_s.id())) << "scenario must exercise the attack";

  std::vector<BackoffVerdict> live;
  for (const int s : monitor.stations()) {
    live.push_back(BackoffVerdict{s, monitor.observed_backoff(s),
                                  monitor.samples(s), monitor.tx_share(s),
                                  monitor.flagged(s)});
  }

  const ReplayResult offline = replay_capture(read_jsonl(stem + ".jsonl"));
  EXPECT_EQ(offline.backoff, live);
}

TEST(Replay, MatchesLiveCrossLayerVerdicts) {
  // The mobile-client fallback: no RSSI profile, so the victim sender
  // correlates layers instead — TCP retransmissions of segments its MAC
  // says were delivered betray the ACK spoofer. Same scenario as the RSSI
  // test but with no ACK filter installed (live or offline): every spoofed
  // ACK closes the exchange, so the spoofed segments really do get TCP
  // retransmitted later.
  SimConfig cfg;
  cfg.warmup = milliseconds(10);
  cfg.measure = seconds(2);
  cfg.seed = 11;
  cfg.default_ber = 2e-4;
  cfg.capture_threshold = 10.0;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  const Sim::TcpFlow victim = sim.add_tcp_flow(ns, nr);
  sim.add_tcp_flow(gs, gr);
  sim.make_ack_spoofer(gr, 1.0, {nr.id()});

  const std::string stem = artifact_stem("equiv_xlayer");
  CaptureWriter capture(sim.scheduler(), stem);
  capture.attach(ns.mac());
  CrossLayerDetector detector;
  detector.attach(ns.mac(), *victim.sender);

  sim.run();
  capture.close();
  ASSERT_GT(detector.suspicious_retransmissions(), 0)
      << "scenario must exercise the attack";

  ReplayOptions opts;
  opts.spoof = false;  // mirror the live run: no ACK filter installed
  const ReplayResult offline = replay_capture(read_jsonl(stem + ".jsonl"), opts);
  ASSERT_EQ(offline.cross_layer.size(), 1u);
  const CrossLayerVerdict& v = offline.cross_layer[0];
  EXPECT_EQ(v.flow_id, victim.flow_id);
  EXPECT_EQ(v.mac_acked, detector.mac_acked_segments());
  EXPECT_EQ(v.suspicious, detector.suspicious_retransmissions());
  EXPECT_EQ(v.detected, detector.detected());
}

TEST(Replay, MatchesLiveFakeAckVerdict) {
  // grc_defense scenario 3: one UDP pair over a 50% FER link, the receiver
  // faking ACKs for frames it could not decode; the sender probes.
  SimConfig cfg;
  cfg.warmup = milliseconds(10);
  cfg.measure = seconds(4);
  cfg.seed = 11;
  cfg.rts_cts = false;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(1);
  Node& gs = sim.add_node(l.senders[0]);
  Node& gr = sim.add_node(l.receivers[0]);
  sim.channel().error_model().set_link_ber(
      gs.id(), gr.id(),
      ErrorModel::ber_for_fer(0.5, ErrorModel::error_len(FrameType::kData, 1064)));
  sim.add_udp_flow(gs, gr, 1.0);
  sim.make_fake_acker(gr, 1.0);

  const std::string stem = artifact_stem("equiv_fakeack");
  CaptureWriter capture(sim.scheduler(), stem);
  capture.attach(gs.mac());
  FakeAckDetector::Config dc;
  dc.probe_payload_bytes = 512;
  FakeAckDetector detector(sim.scheduler(), gs, gr.id(), sim.reserve_flow_id(),
                           dc);
  detector.start(0);

  sim.run();
  capture.close();
  ASSERT_TRUE(detector.detected()) << "scenario must exercise the attack";

  const ReplayResult offline = replay_capture(read_jsonl(stem + ".jsonl"));
  ASSERT_EQ(offline.fake_ack.size(), 1u);
  const FakeAckVerdict& v = offline.fake_ack[0];
  EXPECT_EQ(v.dest, gr.id());
  EXPECT_EQ(v.probes_seen, detector.probes_sent());
  EXPECT_EQ(v.mac_loss, detector.mac_loss());
  EXPECT_EQ(v.application_loss, detector.application_loss());
  EXPECT_EQ(v.expected_app_loss, detector.expected_app_loss());
  EXPECT_EQ(v.detected, detector.detected());
}

TEST(Replay, HonestRunRaisesNoVerdicts) {
  // Same topology as the NAV scenario but with everyone honest: replay
  // must validate plenty of frames and flag none.
  SimConfig cfg;
  cfg.warmup = milliseconds(10);
  cfg.measure = seconds(1);
  cfg.seed = 12;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  sim.add_udp_flow(ns, nr);
  sim.add_udp_flow(gs, gr);
  (void)gs;
  (void)gr;

  const std::string stem = artifact_stem("honest");
  CaptureWriter capture(sim.scheduler(), stem);
  capture.attach(ns.mac());
  sim.run();
  capture.close();

  const ReplayResult offline = replay_capture(read_jsonl(stem + ".jsonl"));
  EXPECT_GT(offline.nav_validated, 0);
  EXPECT_EQ(offline.nav_detections, 0);
  for (const FakeAckVerdict& v : offline.fake_ack) EXPECT_FALSE(v.detected);
}

// --- golden fixture -----------------------------------------------------------

TEST(CaptureGolden, CommittedFixtureIsBitStable) {
  // Regenerate the fixture scenario and compare byte-for-byte against the
  // committed files: any drift in the capture byte format (or in the
  // simulation it records) fails here. With G80211_REGEN_GOLDEN=1 the
  // fixtures are rewritten instead (for intended format changes only).
  const std::string stem = artifact_stem("golden_regen");
  run_nav_scenario(stem, 7, milliseconds(100), false);

  const std::string data_dir = G80211_TEST_DATA_DIR;
  const std::string golden_pcap = data_dir + "/golden_capture.pcap";
  const std::string golden_jsonl = data_dir + "/golden_capture.jsonl";

  if (const char* regen = std::getenv("G80211_REGEN_GOLDEN");
      regen && std::string(regen) == "1") {
    std::filesystem::create_directories(data_dir);
    spit(golden_pcap, slurp(stem + ".pcap"));
    spit(golden_jsonl, slurp(stem + ".jsonl"));
    GTEST_SKIP() << "golden capture fixtures regenerated";
  }

  EXPECT_EQ(slurp(stem + ".pcap"), slurp(golden_pcap))
      << "capture pcap byte format drifted from the committed fixture";
  EXPECT_EQ(slurp_text(stem + ".jsonl"), slurp_text(golden_jsonl))
      << "capture jsonl format drifted from the committed fixture";

  // The committed fixture itself must parse and replay: the journal
  // records the 31 ms CTS inflation attack, so offline detection flags
  // the greedy receiver (station 3) without any live simulation.
  const Capture cap = read_capture(golden_jsonl);
  const ReplayResult res = replay_capture(cap);
  EXPECT_GT(res.nav_validated, 0);
  EXPECT_GT(res.nav_detections, 0);
  ASSERT_EQ(res.nav_detections_by_node.size(), 1u);
  EXPECT_EQ(res.nav_detections_by_node.begin()->first, 3);

  const Capture pc = read_capture(golden_pcap);
  EXPECT_EQ(pc.frames.size(), cap.frames.size());
  EXPECT_EQ(pc.skipped_unknown, 0);
}

}  // namespace g80211
