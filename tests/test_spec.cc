// Scenario-spec subsystem: parser front-ends, schema validation with
// line-anchored errors, describe() round-trip losslessness, deterministic
// world planning, the sharded-subset compile (byte-identical at any shard
// count, reusing the PR 8 equality contract), streaming statistics, and
// the MetricSink window path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/runner/metric_sink.h"
#include "src/runner/stream_stats.h"
#include "src/scenario/sharded.h"
#include "src/scenario/spec/parser.h"
#include "src/scenario/spec/world_builder.h"
#include "src/scenario/spec/world_spec.h"
#include "src/sim/rng.h"

using namespace g80211;
using namespace g80211::spec;

namespace {

// A spec exercising every section and all three traffic classes; durations
// kept tiny so BuiltWorld-based tests stay fast.
const char* kFullToml = R"(# full-feature fixture
[world]
name = "fixture"
standard = "b"
rts_cts = true
seed = 42
warmup_s = 0.25
measure_s = 1.0
comm_range_m = 55.0
cs_range_m = 99.0

[aps]
cols = 2
rows = 2
pitch_m = 60.0
grc_coverage = 0.5

[stations]
per_ap = 3
radius_m = 15.0

[churn]
fraction = 0.3
mean_on_s = 0.5
mean_off_s = 0.25

[roaming]
fraction = 0.25
speed_mps = 2.0
hysteresis_m = 4.0

[[traffic]]
class = "cbr"
weight = 1.0
rate_mbps = 1.0
payload_bytes = 512

[[traffic]]
class = "web"
weight = 2.0
rate_mbps = 2.0
burst_s = 0.5
idle_s = 0.5

[[traffic]]
class = "tcp"
weight = 1.0

[greedy]
fraction = 0.3
nav_inflation = 1.0
ack_spoofing = 1.0
fake_ack = 1.0
nav_inflation_ms = 10.0
gp = 0.9

[metrics]
window_s = 0.25
ring_m = 25.0
)";

WorldSpec full_spec() { return parse_world_spec_text(kFullToml, "fixture"); }

int expect_line(const std::string& toml, const std::string& needle) {
  try {
    (void)parse_world_spec_text(toml, "t");
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
    return e.line();
  }
  ADD_FAILURE() << "expected SpecError containing: " << needle;
  return -1;
}

// --- parser ----------------------------------------------------------------

TEST(SpecParser, ParsesTheFullTomlFixture) {
  const WorldSpec s = full_spec();
  EXPECT_EQ(s.name, "fixture");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_EQ(s.num_aps(), 4);
  EXPECT_EQ(s.num_stations(), 12);
  EXPECT_EQ(s.traffic.size(), 3u);
  EXPECT_EQ(s.traffic[1].cls, TrafficClass::kWeb);
  EXPECT_DOUBLE_EQ(s.traffic[1].weight, 2.0);
  EXPECT_DOUBLE_EQ(s.grc_coverage, 0.5);
  EXPECT_DOUBLE_EQ(s.gp, 0.9);
}

TEST(SpecParser, JsonAndTomlProduceTheSameSpec) {
  // Same world as a JSON document (format sniffed from the '{').
  const char* json = R"({
    "world": {"name": "j", "seed": 9, "warmup_s": 0.5, "measure_s": 1.0},
    "aps": {"positions": [[0, 0], [80, 0]], "grc_coverage": 1.0},
    "stations": {"per_ap": 2},
    "traffic": [{"class": "cbr", "rate_mbps": 3.0}]
  })";
  const WorldSpec s = parse_world_spec_text(json, "j.json");
  EXPECT_EQ(s.name, "j");
  EXPECT_EQ(s.num_aps(), 2);
  EXPECT_DOUBLE_EQ(s.positions[1].x, 80.0);
  EXPECT_DOUBLE_EQ(s.grc_coverage, 1.0);

  const char* toml = R"(
[world]
name = "j"
seed = 9
warmup_s = 0.5
measure_s = 1.0

[aps]
positions = [[0.0, 0.0], [80.0, 0.0]]
grc_coverage = 1.0

[stations]
per_ap = 2

[[traffic]]
class = "cbr"
rate_mbps = 3.0
)";
  EXPECT_TRUE(parse_world_spec_text(toml, "j.toml") == s);
}

TEST(SpecParser, TomlNumbersCommentsAndEscapes) {
  const Value v = parse_toml(
      "a = 1_000\n"
      "b = -2.5e-1  # trailing comment\n"
      "c = \"q\\\"uo\\\\te\\n\"\n"
      "d = [1, [2, 3],\n     4]\n"
      "e = true\n",
      "t");
  EXPECT_EQ(v.table.at("a").i, 1000);
  EXPECT_DOUBLE_EQ(v.table.at("b").f, -0.25);
  EXPECT_EQ(v.table.at("c").s, "q\"uo\\te\n");
  EXPECT_EQ(v.table.at("d").array.size(), 3u);
  EXPECT_EQ(v.table.at("d").array[1].array[1].i, 3);
  EXPECT_TRUE(v.table.at("e").b);
}

TEST(SpecParser, RejectsMalformedDocumentsWithLineNumbers) {
  EXPECT_THROW(parse_toml("a = \n", "t"), SpecError);
  EXPECT_THROW(parse_toml("a = 1 b = 2\n", "t"), SpecError);
  EXPECT_THROW(parse_toml("[t]\n[t]\n", "t"), SpecError);
  EXPECT_THROW(parse_toml("a = 1\na = 2\n", "t"), SpecError);
  EXPECT_THROW(parse_json("{\"a\": null}", "t"), SpecError);
  EXPECT_THROW(parse_json("{\"a\": 1} x", "t"), SpecError);
  try {
    parse_toml("ok = 1\nbad = !\n", "file.toml");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("file.toml:2:"), std::string::npos);
  }
  // Numbers beyond int64/double: rejected at their line, never saturated
  // into another value or read as infinity.
  const auto out_of_range = [](const std::string& text, int line) {
    try {
      text[0] == '{' ? parse_json(text, "t") : parse_toml(text, "t");
      ADD_FAILURE() << "accepted: " << text;
    } catch (const SpecError& e) {
      EXPECT_EQ(e.line(), line) << text;
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
    }
  };
  out_of_range("a = 1\nseed = 99999999999999999999\n", 2);
  out_of_range("seed = -99999999999999999999\n", 1);
  out_of_range("a = 1\nb = 2\nmeasure_s = 1e999\n", 3);
  out_of_range("warmup_s = -1e999\n", 1);
  out_of_range("{\"world\":\n {\"measure_s\": 1e999}}", 2);
}

// --- schema validation -----------------------------------------------------

TEST(SpecSchema, ErrorsAreLineAnchored) {
  // Unknown key: anchored to the key's own line.
  EXPECT_EQ(expect_line("[world]\nname = \"x\"\nwarmupt_s = 1.0\n"
                        "[aps]\ncols = 1\nrows = 1\npitch_m = 10.0\n"
                        "[[traffic]]\nclass = \"cbr\"\n",
                        "unknown key 'warmupt_s'"),
            3);
  // Unknown section: anchored to the section header.
  EXPECT_EQ(expect_line("[world]\nname = \"x\"\n[stationz]\nper_ap = 1\n",
                        "unknown section [stationz]"),
            3);
  // Type error.
  expect_line("[world]\nseed = \"one\"\n", "seed must be an integer");
  // Constraint errors.
  expect_line("[world]\ncs_range_m = 10.0\ncomm_range_m = 20.0\n",
              "cs_range_m must be >= comm_range_m");
  expect_line("[aps]\ncols = 2\nrows = 2\npitch_m = 10.0\n"
              "positions = [[0.0, 0.0]]\n",
              "positions excludes cols/rows/pitch_m");
  expect_line("[aps]\ncols = 2\nrows = 2\n", "grid needs pitch_m > 0");
  expect_line("[world]\nname = \"x\"\n", "needs cols > 0 and rows > 0");
  expect_line("[aps]\ncols = 1\nrows = 1\npitch_m = 5.0\n"
              "[[traffic]]\nclass = \"cbr\"\n"
              "[greedy]\nfraction = 0.5\nnav_inflation = 0.0\n",
              "misbehavior mix must have positive total weight");
  expect_line("[aps]\ncols = 1\nrows = 1\npitch_m = 5.0\n"
              "[[traffic]]\nclass = \"cbr\"\n"
              "[greedy]\ngp = 1.5\n",
              "gp must be in (0, 1]");
  expect_line("[aps]\ncols = 1\nrows = 1\npitch_m = 5.0\n"
              "[churn]\nfraction = 1.5\n",
              "fraction must be a number in [0, 1]");
  // Missing traffic.
  expect_line("[aps]\ncols = 1\nrows = 1\npitch_m = 5.0\n",
              "needs at least one [[traffic]] class");
  // int-typed keys reject values outside int at the value's line instead
  // of wrapping them (4294967298 would otherwise build 2 stations per AP).
  const std::string grid = "[aps]\ncols = 1\nrows = 1\npitch_m = 5.0\n";
  EXPECT_EQ(expect_line(grid + "[[traffic]]\nclass = \"cbr\"\n"
                               "[stations]\nper_ap = 4294967298\n",
                        "per_ap out of range"),
            8);
  EXPECT_EQ(expect_line("[aps]\ncols = 4294967297\nrows = 1\npitch_m = 5.0\n",
                        "cols out of range"),
            2);
  EXPECT_EQ(expect_line("[aps]\ncols = 1\nrows = -4294967295\npitch_m = 5.0\n",
                        "rows out of range"),
            3);
  EXPECT_EQ(expect_line(grid + "[[traffic]]\nclass = \"cbr\"\n"
                               "payload_bytes = 2147483648\n",
                        "payload_bytes out of range"),
            7);
  // Durations are bounded at 1e6 s, at the value's line. Unbounded, the
  // builder's conversion to int64 nanoseconds was undefined: a run with
  // measure_s = 1e300 validated, then reported 0 windows.
  EXPECT_EQ(expect_line("[world]\nmeasure_s = 1e300\n",
                        "measure_s is longer than 1e6 s"),
            2);
  EXPECT_EQ(expect_line("[world]\nname = \"x\"\nwarmup_s = 1000000.5\n",
                        "warmup_s is longer than 1e6 s"),
            3);
  const std::string cbr = grid + "[[traffic]]\nclass = \"cbr\"\n";  // 6 lines
  EXPECT_EQ(expect_line(cbr + "[metrics]\nwindow_s = 2e6\n",
                        "window_s is longer than 1e6 s"),
            8);
  EXPECT_EQ(expect_line(cbr + "[churn]\nmean_on_s = 1e7\n",
                        "mean_on_s is longer than 1e6 s"),
            8);
  EXPECT_EQ(expect_line(cbr + "[churn]\nmean_on_s = 1.0\nmean_off_s = 1e20\n",
                        "mean_off_s is longer than 1e6 s"),
            9);
  EXPECT_EQ(expect_line(grid + "[[traffic]]\nclass = \"web\"\nburst_s = 1e300\n",
                        "burst_s is longer than 1e6 s"),
            7);
  EXPECT_EQ(expect_line(grid + "[[traffic]]\nclass = \"web\"\nidle_s = 3e6\n",
                        "idle_s is longer than 1e6 s"),
            7);
  // nav_inflation_ms is in milliseconds: 1e9 ms is the 1e6 s bound.
  EXPECT_EQ(expect_line(cbr + "[greedy]\nnav_inflation_ms = 1.5e9\n",
                        "nav_inflation_ms is longer than 1e6 s"),
            8);
  EXPECT_NO_THROW(parse_world_spec_text(
      cbr + "[world]\nmeasure_s = 1e6\n[greedy]\nnav_inflation_ms = 1e9\n",
      "t"));
  // AP and station counts are products of int keys, computed in 64 bits;
  // beyond int they fail at the key that overflowed them (per_ap, or rows
  // when per_ap keeps its default of 4).
  EXPECT_EQ(expect_line("[aps]\ncols = 65536\nrows = 65536\npitch_m = 5.0\n",
                        "cols * rows = 4294967296 APs is out of range"),
            3);
  EXPECT_EQ(expect_line("[aps]\ncols = 46341\nrows = 46341\npitch_m = 5.0\n",
                        "APs is out of range"),
            3);
  EXPECT_EQ(expect_line("[aps]\ncols = 46340\nrows = 46340\npitch_m = 5.0\n"
                        "[stations]\nper_ap = 2\n",
                        "APs * per_ap = 4294791200 stations is out of range"),
            6);
  EXPECT_EQ(expect_line("[aps]\ncols = 65536\nrows = 8192\npitch_m = 5.0\n",
                        "stations is out of range"),
            3);
  // APs plus stations are capped at 2^20, at the key that crosses the cap:
  // the grid when its APs alone do (46340 x 46340 used to end in
  // std::bad_alloc from plan_world), per_ap otherwise, or the grid when
  // per_ap keeps its default.
  EXPECT_EQ(expect_line("[aps]\ncols = 46340\nrows = 46340\npitch_m = 5.0\n"
                        "[stations]\nper_ap = 1\n",
                        "[stations] cols * rows = 2147395600 APs is over the "
                        "limit of 1048576 APs plus stations"),
            3);
  EXPECT_EQ(expect_line("[aps]\ncols = 1024\nrows = 512\npitch_m = 5.0\n"
                        "[stations]\nper_ap = 2\n",
                        "APs * (per_ap + 1) = 1572864 nodes is over the limit"),
            6);
  EXPECT_EQ(expect_line("[aps]\ncols = 1024\nrows = 256\npitch_m = 5.0\n",
                        "APs * (per_ap + 1) = 1310720 nodes is over the limit"),
            3);
  EXPECT_NO_THROW(parse_world_spec_text(
      "[aps]\ncols = 1024\nrows = 512\npitch_m = 5.0\n"
      "[stations]\nper_ap = 1\n[[traffic]]\nclass = \"cbr\"\n",
      "t"))
      << "exactly 2^20 nodes is within the limit";
}

TEST(SpecSchema, DescribeRoundTripIsLossless) {
  const WorldSpec s = full_spec();
  const std::string canon = describe(s);
  const WorldSpec again = parse_world_spec_text(canon, "canon");
  EXPECT_TRUE(again == s);
  // And describe() is a fixed point: canonical text re-describes to itself.
  EXPECT_EQ(describe(again), canon);

  // Explicit positions and irrational-ish floats survive the %.17g cycle.
  WorldSpec p = s;
  p.positions = {{0.1, 0.2}, {1.0 / 3.0, 60.0}};
  p.grid_cols = p.grid_rows = 0;
  p.pitch_m = 0.0;
  p.window_s = 0.1;  // not exactly representable
  const WorldSpec q = parse_world_spec_text(describe(p), "canon2");
  EXPECT_TRUE(q == p);

  // [0, 2^63) is the seed's one domain: its top round-trips, and describe()
  // refuses anything above it, naming the seed, rather than print text that
  // would not parse.
  WorldSpec top = s;
  top.seed = std::numeric_limits<std::uint64_t>::max() >> 1;  // 2^63 - 1
  EXPECT_TRUE(parse_world_spec_text(describe(top), "top") == top);
  for (const std::uint64_t seed :
       {std::uint64_t{1} << 63, std::numeric_limits<std::uint64_t>::max()}) {
    WorldSpec big = s;
    big.seed = seed;
    try {
      describe(big);
      ADD_FAILURE() << "seed " << seed << " described";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("[world] seed"), std::string::npos)
          << e.what();
    }
  }
}

// A seeded generator of valid WorldSpecs for the round-trip property. It
// covers names built from pieces that need escaping, grid and explicit AP
// placement, one to four traffic classes of every kind, and values at the
// schema's edges: 1e6 s durations, fractions of 0 and 1, cs_range_m equal
// to comm_range_m, seeds 0 and 2^63 - 1, payloads of INT_MAX bytes and a
// world of exactly 2^20 nodes.
class SpecGenerator {
 public:
  explicit SpecGenerator(std::uint64_t seed) : rng_(seed) {}

  WorldSpec next() {
    WorldSpec s;
    s.name.clear();
    static const char* const kPieces[] = {
        "a\"b\\c", "\"", "\\", "\n", "\t", "tab\there", "line\nbreak",
        "plain", "# not a comment", "[aps]", "caf\xc3\xa9", " ", "="};
    for (int n = pick(5); n > 0; --n) {
      s.name += kPieces[pick(std::size(kPieces))];
    }
    static const Standard kStandards[] = {Standard::B80211, Standard::A80211,
                                          Standard::G80211};
    s.standard = kStandards[pick(std::size(kStandards))];
    s.rts_cts = pick(2) == 0;
    switch (pick(3)) {
      case 0: s.seed = 0; break;
      case 1: s.seed = std::numeric_limits<std::int64_t>::max(); break;
      default: s.seed = rng_.next_u64() >> 1;
    }
    s.warmup_s = duration();
    s.measure_s = duration();
    s.comm_range_m = positive(500.0);
    s.cs_range_m = pick(3) == 0 ? s.comm_range_m
                                : s.comm_range_m + positive(500.0);
    s.ber = fraction();

    // AP placement; the node total stays within 2^20.
    if (pick(4) == 0) {
      s.grid_cols = 1024;  // exactly 2^20 nodes with one station per AP
      s.grid_rows = 512;
      s.pitch_m = positive(100.0);
      s.per_ap = 1;
    } else if (pick(2) == 0) {
      s.grid_cols = 1 + pick(40);
      s.grid_rows = 1 + pick(40);
      s.pitch_m = positive(100.0);
      s.per_ap = 1 + pick(16);
    } else {
      for (int n = 1 + pick(6); n > 0; --n) {
        s.positions.push_back({coordinate(), coordinate()});
      }
      s.per_ap = 1 + pick(16);
    }
    s.grc_coverage = fraction();
    s.radius_m = pick(2) == 0 ? 0.0 : positive(50.0);

    s.churn_fraction = fraction();
    s.mean_on_s = duration();
    s.mean_off_s = duration();
    s.roam_fraction = fraction();
    s.speed_mps = positive(10.0);
    s.hysteresis_m = pick(2) == 0 ? 0.0 : positive(20.0);

    for (int n = 1 + pick(4); n > 0; --n) {
      TrafficSpec t;
      static const TrafficClass kClasses[] = {
          TrafficClass::kCbr, TrafficClass::kWeb, TrafficClass::kTcp};
      t.cls = kClasses[pick(std::size(kClasses))];
      t.weight = positive(5.0);
      t.rate_mbps = positive(54.0);
      t.payload_bytes = pick(4) == 0 ? std::numeric_limits<int>::max()
                                     : 1 + pick(2000);
      t.burst_s = duration();
      t.idle_s = duration();
      s.traffic.push_back(t);
    }

    s.greedy_fraction = fraction();
    s.mix_nav = positive(1.0);  // keeps the mix's total weight positive
    s.mix_spoof = pick(2) == 0 ? 0.0 : positive(1.0);
    s.mix_fake = pick(2) == 0 ? 0.0 : positive(1.0);
    s.nav_inflation_ms = pick(4) == 0 ? 1e9 : positive(32.767);  // 1e9 ms: 1e6 s
    s.gp = pick(3) == 0 ? 1.0 : positive(1.0);
    s.window_s = duration();
    s.ring_m = positive(100.0);
    return s;
  }

 private:
  // In [0, n); uniform_int(k) is in [0, k].
  int pick(std::size_t n) {
    return static_cast<int>(
        rng_.uniform_int(static_cast<std::int64_t>(n) - 1));
  }
  // In (0, scale]: uniform() is in [0, 1).
  double positive(double scale) { return scale * (1.0 - rng_.uniform()); }
  double fraction() {
    switch (pick(4)) {
      case 0: return 0.0;
      case 1: return 1.0;
      default: return rng_.uniform();
    }
  }
  double duration() {
    switch (pick(4)) {
      case 0: return 1e6;  // the longest duration a spec may hold
      case 1: return 1e-9;
      default: return positive(100.0);
    }
  }
  double coordinate() { return (rng_.uniform() - 0.5) * 2e4; }

  Rng rng_;
};

TEST(SpecSchema, GeneratedSpecsRoundTripThroughDescribe) {
  SpecGenerator gen(20260801);
  for (int i = 0; i < 500; ++i) {
    const WorldSpec s = gen.next();
    const std::string text = describe(s);
    SCOPED_TRACE("spec " + std::to_string(i) + ":\n" + text);
    WorldSpec back;
    try {
      back = parse_world_spec_text(text, "generated");
    } catch (const SpecError& e) {
      FAIL() << e.what();
    }
    EXPECT_TRUE(back == s);
    EXPECT_EQ(describe(back), text);
  }
}

// --- planning --------------------------------------------------------------

TEST(SpecPlan, IsAPureFunctionOfTheSpec) {
  const WorldSpec s = full_spec();
  const WorldPlan a = plan_world(s);
  const WorldPlan b = plan_world(s);
  ASSERT_EQ(a.stations.size(), b.stations.size());
  ASSERT_EQ(a.stations.size(), 12u);
  for (std::size_t i = 0; i < a.stations.size(); ++i) {
    EXPECT_EQ(a.stations[i].greedy, b.stations[i].greedy);
    EXPECT_EQ(a.stations[i].traffic, b.stations[i].traffic);
    EXPECT_EQ(a.stations[i].roams, b.stations[i].roams);
    EXPECT_EQ(a.stations[i].churns, b.stations[i].churns);
    EXPECT_EQ(a.stations[i].ring, b.stations[i].ring);
    EXPECT_DOUBLE_EQ(a.stations[i].pos.x, b.stations[i].pos.x);
  }
  EXPECT_EQ(a.num_rings, b.num_rings);
}

TEST(SpecPlan, RolePrecedenceAndRings) {
  // Large population so every role appears.
  WorldSpec s = full_spec();
  s.grid_cols = s.grid_rows = 4;
  s.per_ap = 8;
  const WorldPlan plan = plan_world(s);
  ASSERT_EQ(plan.stations.size(), 128u);
  int greedy = 0, roam = 0, churn = 0, tcp = 0;
  for (const StationPlan& st : plan.stations) {
    const bool is_tcp = s.traffic[static_cast<std::size_t>(st.traffic)].cls ==
                        TrafficClass::kTcp;
    tcp += is_tcp ? 1 : 0;
    if (st.greedy) {
      ++greedy;
      EXPECT_FALSE(st.roams);   // greedy stations camp
      EXPECT_FALSE(st.churns);
      EXPECT_EQ(st.ring, -1);   // rings hold honest stations only
    } else {
      EXPECT_GE(st.ring, 0);
      EXPECT_LT(st.ring, plan.num_rings);
    }
    if (is_tcp) {
      EXPECT_FALSE(st.roams);   // the long-download anchor population
      EXPECT_FALSE(st.churns);
    }
    if (st.roams) {
      ++roam;
      EXPECT_FALSE(st.churns);  // the walk is the session
      EXPECT_GE(st.roam_target_ap, 0);
      EXPECT_NE(st.roam_target_ap, st.ap);
    }
    churn += st.churns ? 1 : 0;
  }
  // Fractions are hash-thresholded per station: expect them in the right
  // ballpark (binomial, n >= 89 per eligible pool).
  EXPECT_NEAR(greedy / 128.0, s.greedy_fraction, 0.15);
  EXPECT_GT(roam, 0);
  EXPECT_GT(churn, 0);
  EXPECT_GT(tcp, 0);
  EXPECT_GT(plan.num_rings, 1);
}

TEST(SpecPlan, GrcCoverageIsExactAtTheExtremes) {
  WorldSpec s = full_spec();
  s.grc_coverage = 0.0;
  for (bool g : plan_world(s).grc) EXPECT_FALSE(g);
  s.grc_coverage = 1.0;
  for (bool g : plan_world(s).grc) EXPECT_TRUE(g);
}

// --- sharded compile -------------------------------------------------------

WorldSpec sharded_spec() {
  return parse_world_spec_text(R"(
[world]
name = "shardable"
seed = 11
warmup_s = 0.25
measure_s = 0.5

[aps]
cols = 4
rows = 1
pitch_m = 250.0

[stations]
per_ap = 3

[[traffic]]
class = "cbr"
rate_mbps = 4.0
payload_bytes = 768
)",
                               "shardable");
}

bool identical(const std::vector<ShardedSim::FlowMetrics>& a,
               const std::vector<ShardedSim::FlowMetrics>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise doubles: the contract is byte identity (PR 8).
    if (a[i].flow_id != b[i].flow_id ||
        a[i].goodput_mbps != b[i].goodput_mbps ||
        a[i].packets != b[i].packets || a[i].highest_seq != b[i].highest_seq) {
      return false;
    }
  }
  return true;
}

TEST(SpecSharded, OneAndNShardsAreByteIdentical) {
  const ShardedWorldSpec world = to_sharded(sharded_spec());
  ASSERT_EQ(world.bsss.size(), 4u);
  EXPECT_EQ(world.bsss[1].n_stations, 3);
  EXPECT_EQ(world.bsss[1].payload_bytes, 768);

  ShardedSim one(world, 1, /*threaded=*/false);
  one.run();
  ShardedSim two(world, 2);
  two.run();
  ShardedSim four(world, 4);
  four.run();
  const auto m1 = one.metrics();
  ASSERT_FALSE(m1.empty());
  EXPECT_GT(m1[0].packets, 0);
  EXPECT_TRUE(identical(m1, two.metrics()));
  EXPECT_TRUE(identical(m1, four.metrics()));
}

TEST(SpecSharded, RejectsSpecsOutsideTheSubsetByName) {
  const auto rejects = [](void (*mutate)(WorldSpec&), const char* needle) {
    WorldSpec s = sharded_spec();
    mutate(s);
    try {
      (void)to_sharded(s);
      ADD_FAILURE() << "expected rejection: " << needle;
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("not sharded-representable"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  rejects([](WorldSpec& s) { s.churn_fraction = 0.5; }, "[churn]");
  rejects([](WorldSpec& s) { s.roam_fraction = 0.5; }, "[roaming]");
  rejects([](WorldSpec& s) { s.greedy_fraction = 0.5; }, "[greedy]");
  rejects([](WorldSpec& s) { s.grc_coverage = 0.5; }, "grc_coverage");
  rejects([](WorldSpec& s) { s.radius_m = 10.0; }, "radius_m");
  rejects([](WorldSpec& s) { s.traffic.push_back(TrafficSpec{}); },
          "single cbr");
}

// --- built world -----------------------------------------------------------

TEST(SpecBuiltWorld, RunsWindowedWithConsistentSummary) {
  const WorldSpec s = full_spec();
  BuiltWorld world(s);
  int windows = 0;
  double last_end = s.warmup_s;
  world.run([&](const BuiltWorld::WindowReport& rep) {
    EXPECT_EQ(rep.index, windows);
    EXPECT_DOUBLE_EQ(rep.t_start_s, last_end);
    EXPECT_GT(rep.t_end_s, rep.t_start_s);
    EXPECT_EQ(rep.rings.size(), static_cast<std::size_t>(world.num_rings()));
    last_end = rep.t_end_s;
    ++windows;
  });
  // measure_s = 1.0 in window_s = 0.25 slices.
  EXPECT_EQ(windows, 4);
  EXPECT_EQ(world.summary().windows, 4);
  EXPECT_DOUBLE_EQ(last_end, s.warmup_s + s.measure_s);
  EXPECT_GT(world.summary().honest_mbps.mean(), 0.0);
}

TEST(SpecBuiltWorld, GreedyReceiversDepressNeighbours) {
  // One 5-station cell, one NAV inflator: honest goodput must drop vs the
  // greedy-free world (the paper's core effect, through the spec path).
  const char* base = R"(
[world]
name = "cell"
seed = 2
warmup_s = 0.5
measure_s = 1.5

[aps]
cols = 1
rows = 1
pitch_m = 1.0

[stations]
per_ap = 5

[[traffic]]
class = "cbr"
rate_mbps = 6.0

[greedy]
fraction = %F
nav_inflation = 1.0
nav_inflation_ms = 31.0
)";
  const auto run_with = [&](const char* frac) {
    std::string toml(base);
    toml.replace(toml.find("%F"), 2, frac);
    BuiltWorld world(parse_world_spec_text(toml, "cell"));
    world.run();
    return world.summary().honest_mbps.mean();
  };
  const double honest_clean = run_with("0.0");
  const double honest_attacked = run_with("0.3");
  EXPECT_GT(honest_clean, 0.0);
  EXPECT_LT(honest_attacked, 0.8 * honest_clean);
}

// --- metric sink window path -----------------------------------------------

TEST(SpecMetricSink, StreamsWindowRowsToWindowFiles) {
  const std::string dir =
      ::testing::TempDir() + "/spec_sink_" + std::to_string(::getpid());
  ASSERT_EQ(setenv("G80211_METRICS_DIR", dir.c_str(), 1), 0);
  {
    MetricSink sink("cityx");
    ASSERT_TRUE(sink.enabled());
    WindowRow row;
    row.figure = "cityx";
    row.label = "ring0";
    row.metric = "goodput_mbps";
    row.t_start_s = 1.0;
    row.t_end_s = 2.0;
    row.count = 3;
    row.mean = 0.5;
    row.p25 = 0.25;
    row.p50 = 0.5;
    row.p75 = 0.75;
    sink.write(row);
    row.label = "ring1";
    row.t_start_s = 2.0;
    row.t_end_s = 3.0;
    sink.write(row);
  }
  ASSERT_EQ(unsetenv("G80211_METRICS_DIR"), 0);

  std::ifstream jsonl(dir + "/cityx.windows.jsonl");
  ASSERT_TRUE(jsonl.good());
  std::string line;
  int lines = 0;
  while (std::getline(jsonl, line)) {
    ++lines;
    EXPECT_NE(line.find("\"figure\":\"cityx\""), std::string::npos);
    EXPECT_NE(line.find("\"count\":3"), std::string::npos);
  }
  EXPECT_EQ(lines, 2);

  std::ifstream csv(dir + "/cityx.windows.csv");
  ASSERT_TRUE(csv.good());
  std::getline(csv, line);
  EXPECT_EQ(line, "figure,label,metric,t_start_s,t_end_s,count,mean,p25,p50,p75");
  std::getline(csv, line);
  EXPECT_NE(line.find("ring0"), std::string::npos);
}

// --- streaming statistics --------------------------------------------------

TEST(StreamStats, P2TracksKnownQuantiles) {
  // Exact for <= 5 samples.
  P2Quantile median(0.5);
  for (double x : {5.0, 1.0, 3.0}) median.add(x);
  EXPECT_DOUBLE_EQ(median.value(), 3.0);

  // Uniform ramp 1..1000 (already sorted is the estimator's easy case;
  // interleave to exercise the parabolic updates).
  P2Quantile q25(0.25), q75(0.75);
  for (int i = 0; i < 1000; ++i) {
    const double x = static_cast<double>((i * 617) % 1000) + 1.0;
    q25.add(x);
    q75.add(x);
  }
  EXPECT_NEAR(q25.value(), 250.0, 25.0);
  EXPECT_NEAR(q75.value(), 750.0, 25.0);
}

TEST(StreamStats, StreamingStatSummarizesAndResets) {
  StreamingStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_EQ(s.count(), 100);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.p50(), 50.5, 5.0);
  s.reset();
  EXPECT_EQ(s.count(), 0);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_DOUBLE_EQ(s.p50(), 7.0);
}

}  // namespace
