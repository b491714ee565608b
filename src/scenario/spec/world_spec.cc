#include "src/scenario/spec/world_spec.h"

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <string>

#include "src/scenario/spec/parser.h"

namespace g80211::spec {
namespace {

// Upper bound on every spec duration. The builder turns durations into
// int64 nanoseconds, and churn/web periods are exponential draws of up to
// ~37x their mean, so the bound keeps that headroom far below 2^63 ns
// (~292 years) while sitting far above any realistic run.
constexpr double kMaxDurationS = 1e6;

// Upper bound on APs plus stations. plan_world allocates every node's
// plan up front, so a grid far past any real deployment (46340 x 46340
// APs asks for 2.1e9 positions) would otherwise end in std::bad_alloc or
// an out-of-memory kill instead of an error at the key. 2^20 sits above
// every committed world and above a 10^6-station city.
constexpr std::int64_t kMaxNodes = std::int64_t{1} << 20;

// Typed, consumed-key-tracking view of one table. Every getter removes
// the key from the pending set; finish() rejects leftovers, so a typo
// like `warmupt_s` fails with its own line number instead of silently
// keeping the default.
class TableReader {
 public:
  TableReader(const Value& table, const std::string& source,
              const std::string& section)
      : table_(table), source_(source), section_(section) {
    for (const auto& [key, value] : table_.table) {
      (void)value;
      pending_.push_back(key);
    }
  }

  [[noreturn]] void fail(const Value& v, const std::string& what) const {
    throw SpecError(source_, v.line, section_ + what);
  }

  const Value* find(const std::string& key) {
    const auto it = table_.table.find(key);
    if (it == table_.table.end()) return nullptr;
    for (auto p = pending_.begin(); p != pending_.end(); ++p) {
      if (*p == key) {
        pending_.erase(p);
        break;
      }
    }
    return &it->second;
  }

  double number(const std::string& key, double def) {
    const Value* v = find(key);
    if (v == nullptr) return def;
    if (!v->is_number()) fail(*v, key + " must be a number");
    return v->as_number();
  }

  std::int64_t integer(const std::string& key, std::int64_t def) {
    const Value* v = find(key);
    if (v == nullptr) return def;
    if (v->kind != Value::Kind::kInt) fail(*v, key + " must be an integer");
    return v->i;
  }

  // An integer that must fit an int.
  int int32(const std::string& key, int def) {
    const std::int64_t v = integer(key, def);
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      fail(*find(key), key + " out of range");
    }
    return static_cast<int>(v);
  }

  bool boolean(const std::string& key, bool def) {
    const Value* v = find(key);
    if (v == nullptr) return def;
    if (v->kind != Value::Kind::kBool) fail(*v, key + " must be a bool");
    return v->b;
  }

  std::string string(const std::string& key, const std::string& def) {
    const Value* v = find(key);
    if (v == nullptr) return def;
    if (v->kind != Value::Kind::kString) fail(*v, key + " must be a string");
    return v->s;
  }

  double fraction(const std::string& key, double def) {
    const Value* v = find(key);
    if (v == nullptr) return def;
    if (!v->is_number() || v->as_number() < 0.0 || v->as_number() > 1.0) {
      fail(*v, key + " must be a number in [0, 1]");
    }
    return v->as_number();
  }

  double positive(const std::string& key, double def) {
    const Value* v = find(key);
    if (v == nullptr) return def;
    if (!v->is_number() || v->as_number() <= 0.0) {
      fail(*v, key + " must be a positive number");
    }
    return v->as_number();
  }

  // A positive duration of at most kMaxDurationS; `unit_s` is the key's
  // unit in seconds (1 for *_s keys, 1e-3 for *_ms keys).
  double duration(const std::string& key, double def, double unit_s) {
    const double v = positive(key, def);
    if (v * unit_s > kMaxDurationS) {
      fail(*find(key), key + " is longer than 1e6 s");
    }
    return v;
  }

  void finish() const {
    if (pending_.empty()) return;
    const Value& v = table_.table.at(pending_.front());
    throw SpecError(source_, v.line,
                    section_ + "unknown key '" + pending_.front() + "'");
  }

  const Value& raw() const { return table_; }

 private:
  const Value& table_;
  std::string source_;
  std::string section_;  // "[world] " prefix for messages
  std::vector<std::string> pending_;
};

TableReader section(const Value& doc, const std::string& source,
                    const std::string& name, const Value& empty) {
  const auto it = doc.table.find(name);
  const Value& v = it == doc.table.end() ? empty : it->second;
  if (!v.is_table()) {
    throw SpecError(source, v.line, "[" + name + "] must be a table");
  }
  return TableReader(v, source, "[" + name + "] ");
}

const char* standard_name(Standard s) {
  switch (s) {
    case Standard::A80211: return "a";
    case Standard::G80211: return "g";
    case Standard::B80211: break;
  }
  return "b";
}

const char* class_name(TrafficClass c) {
  switch (c) {
    case TrafficClass::kWeb: return "web";
    case TrafficClass::kTcp: return "tcp";
    case TrafficClass::kCbr: break;
  }
  return "cbr";
}

std::string fmt(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  std::string s(buf);
  // A bare integer would re-parse as kInt; canonical TOML keeps floats
  // recognizable so describe() -> parse round trips exactly.
  if (s.find_first_of(".eEn") == std::string::npos) s += ".0";
  return s;
}

// `s` as a quoted string, escaped the way the parser reads it back.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::vector<Position> WorldSpec::ap_positions() const {
  if (!positions.empty()) return positions;
  std::vector<Position> out;
  out.reserve(static_cast<std::size_t>(grid_cols) *
              static_cast<std::size_t>(grid_rows));
  for (int r = 0; r < grid_rows; ++r) {
    for (int c = 0; c < grid_cols; ++c) {
      out.push_back(Position{static_cast<double>(c) * pitch_m,
                             static_cast<double>(r) * pitch_m});
    }
  }
  return out;
}

int WorldSpec::num_aps() const {
  return positions.empty() ? grid_cols * grid_rows
                           : static_cast<int>(positions.size());
}

WorldSpec parse_world_spec(const Value& doc, const std::string& source) {
  if (!doc.is_table()) {
    throw SpecError(source, doc.line, "spec must be a table of sections");
  }
  // Reject unknown sections first so the message names the actual typo.
  for (const auto& [key, value] : doc.table) {
    if (key != "world" && key != "aps" && key != "stations" &&
        key != "churn" && key != "roaming" && key != "traffic" &&
        key != "greedy" && key != "metrics") {
      throw SpecError(source, value.line, "unknown section [" + key + "]");
    }
  }
  Value empty;  // shared default for absent optional sections

  WorldSpec out;
  const Value* aps_at = nullptr;  // the key that sets the AP count

  {
    TableReader r = section(doc, source, "world", empty);
    out.name = r.string("name", out.name);
    const std::string std_name = r.string("standard", "b");
    if (std_name == "b") {
      out.standard = Standard::B80211;
    } else if (std_name == "a") {
      out.standard = Standard::A80211;
    } else if (std_name == "g") {
      out.standard = Standard::G80211;
    } else {
      r.fail(r.raw().table.at("standard"),
             "standard must be \"b\", \"a\" or \"g\"");
    }
    out.rts_cts = r.boolean("rts_cts", out.rts_cts);
    const std::int64_t seed = r.integer("seed", 1);
    if (seed < 0) r.fail(r.raw().table.at("seed"), "seed must be >= 0");
    out.seed = static_cast<std::uint64_t>(seed);
    out.warmup_s = r.duration("warmup_s", out.warmup_s, 1.0);
    out.measure_s = r.duration("measure_s", out.measure_s, 1.0);
    out.comm_range_m = r.positive("comm_range_m", out.comm_range_m);
    out.cs_range_m = r.positive("cs_range_m", out.cs_range_m);
    if (out.cs_range_m < out.comm_range_m) {
      r.fail(r.raw(), "cs_range_m must be >= comm_range_m");
    }
    out.ber = r.fraction("ber", out.ber);
    r.finish();
  }

  {
    TableReader r = section(doc, source, "aps", empty);
    const Value* positions = r.find("positions");
    out.grid_cols = r.int32("cols", 0);
    out.grid_rows = r.int32("rows", 0);
    out.pitch_m = r.number("pitch_m", 0.0);
    if (positions != nullptr) {
      if (out.grid_cols != 0 || out.grid_rows != 0 || out.pitch_m != 0.0) {
        r.fail(*positions, "positions excludes cols/rows/pitch_m");
      }
      if (!positions->is_array() || positions->array.empty()) {
        r.fail(*positions, "positions must be a non-empty array of [x, y]");
      }
      for (const Value& p : positions->array) {
        if (!p.is_array() || p.array.size() != 2 || !p.array[0].is_number() ||
            !p.array[1].is_number()) {
          r.fail(p, "each position must be [x, y]");
        }
        out.positions.push_back(
            Position{p.array[0].as_number(), p.array[1].as_number()});
      }
    } else {
      if (out.grid_cols <= 0 || out.grid_rows <= 0) {
        r.fail(r.raw(), "needs cols > 0 and rows > 0 (or positions)");
      }
      if (out.pitch_m <= 0.0) {
        r.fail(r.raw(), "grid needs pitch_m > 0");
      }
      const std::int64_t aps =
          std::int64_t{out.grid_cols} * std::int64_t{out.grid_rows};
      if (aps > std::numeric_limits<int>::max()) {
        r.fail(*r.find("rows"), "cols * rows = " + std::to_string(aps) +
                                    " APs is out of range");
      }
    }
    aps_at = positions != nullptr ? positions : r.find("rows");
    out.grc_coverage = r.fraction("grc_coverage", out.grc_coverage);
    r.finish();
  }

  {
    TableReader r = section(doc, source, "stations", empty);
    out.per_ap = r.int32("per_ap", out.per_ap);
    if (out.per_ap < 1) r.fail(r.raw(), "per_ap must be >= 1");
    const std::int64_t stations =
        std::int64_t{out.num_aps()} * std::int64_t{out.per_ap};
    // Anchored at per_ap, or at the AP count when per_ap is the default.
    const Value* per_ap = r.find("per_ap");
    if (stations > std::numeric_limits<int>::max()) {
      r.fail(per_ap != nullptr ? *per_ap : *aps_at,
             "APs * per_ap = " + std::to_string(stations) +
                 " stations is out of range");
    }
    const std::string limit = " is over the limit of " +
                              std::to_string(kMaxNodes) +
                              " APs plus stations";
    if (out.num_aps() > kMaxNodes) {
      const std::string aps = std::to_string(out.num_aps()) + " APs";
      r.fail(*aps_at, (out.positions.empty() ? "cols * rows = " + aps
                                             : "positions lists " + aps) +
                          limit);
    }
    if (out.num_aps() + stations > kMaxNodes) {
      r.fail(per_ap != nullptr ? *per_ap : *aps_at,
             "APs * (per_ap + 1) = " +
                 std::to_string(out.num_aps() + stations) + " nodes" + limit);
    }
    out.radius_m = r.number("radius_m", out.radius_m);
    if (out.radius_m < 0.0) r.fail(r.raw(), "radius_m must be >= 0");
    r.finish();
  }

  {
    TableReader r = section(doc, source, "churn", empty);
    out.churn_fraction = r.fraction("fraction", out.churn_fraction);
    out.mean_on_s = r.duration("mean_on_s", out.mean_on_s, 1.0);
    out.mean_off_s = r.duration("mean_off_s", out.mean_off_s, 1.0);
    r.finish();
  }

  {
    TableReader r = section(doc, source, "roaming", empty);
    out.roam_fraction = r.fraction("fraction", out.roam_fraction);
    out.speed_mps = r.positive("speed_mps", out.speed_mps);
    out.hysteresis_m = r.number("hysteresis_m", out.hysteresis_m);
    if (out.hysteresis_m < 0.0) r.fail(r.raw(), "hysteresis_m must be >= 0");
    r.finish();
  }

  {
    const auto it = doc.table.find("traffic");
    if (it == doc.table.end()) {
      throw SpecError(source, doc.line,
                      "spec needs at least one [[traffic]] class");
    }
    if (!it->second.is_array() || it->second.array.empty()) {
      throw SpecError(source, it->second.line,
                      "[[traffic]] must be an array of tables");
    }
    for (const Value& entry : it->second.array) {
      if (!entry.is_table()) {
        throw SpecError(source, entry.line, "[[traffic]] must be tables");
      }
      TableReader r(entry, source, "[[traffic]] ");
      TrafficSpec t;
      const std::string cls = r.string("class", "cbr");
      if (cls == "cbr") {
        t.cls = TrafficClass::kCbr;
      } else if (cls == "web") {
        t.cls = TrafficClass::kWeb;
      } else if (cls == "tcp") {
        t.cls = TrafficClass::kTcp;
      } else {
        r.fail(entry, "class must be \"cbr\", \"web\" or \"tcp\"");
      }
      t.weight = r.positive("weight", t.weight);
      t.rate_mbps = r.positive("rate_mbps", t.rate_mbps);
      t.payload_bytes = r.int32("payload_bytes", t.payload_bytes);
      if (t.payload_bytes < 1) r.fail(entry, "payload_bytes must be >= 1");
      t.burst_s = r.duration("burst_s", t.burst_s, 1.0);
      t.idle_s = r.duration("idle_s", t.idle_s, 1.0);
      r.finish();
      out.traffic.push_back(t);
    }
  }

  {
    TableReader r = section(doc, source, "greedy", empty);
    out.greedy_fraction = r.fraction("fraction", out.greedy_fraction);
    out.mix_nav = r.number("nav_inflation", out.mix_nav);
    out.mix_spoof = r.number("ack_spoofing", out.mix_spoof);
    out.mix_fake = r.number("fake_ack", out.mix_fake);
    if (out.mix_nav < 0.0 || out.mix_spoof < 0.0 || out.mix_fake < 0.0) {
      r.fail(r.raw(), "misbehavior weights must be >= 0");
    }
    if (out.greedy_fraction > 0.0 &&
        out.mix_nav + out.mix_spoof + out.mix_fake <= 0.0) {
      r.fail(r.raw(), "misbehavior mix must have positive total weight");
    }
    out.nav_inflation_ms =
        r.duration("nav_inflation_ms", out.nav_inflation_ms, 1e-3);
    out.gp = r.positive("gp", out.gp);
    if (out.gp > 1.0) r.fail(r.raw(), "gp must be in (0, 1]");
    r.finish();
  }

  {
    TableReader r = section(doc, source, "metrics", empty);
    out.window_s = r.duration("window_s", out.window_s, 1.0);
    out.ring_m = r.positive("ring_m", out.ring_m);
    r.finish();
  }

  return out;
}

WorldSpec parse_world_spec_text(const std::string& text,
                                const std::string& source) {
  return parse_world_spec(parse_text(text, source), source);
}

WorldSpec load_world_spec(const std::string& path) {
  return parse_world_spec(parse_file(path), path);
}

std::string describe(const WorldSpec& spec) {
  // The parser reads `seed` as a TOML integer, signed 64-bit, so [0, 2^63)
  // is the seed's one domain: a larger seed would describe to text that
  // does not parse.
  if (spec.seed >
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    throw SpecError("describe", 0,
                    "[world] seed " + std::to_string(spec.seed) +
                        " is outside [0, 2^63)");
  }
  std::string out;
  char buf[256];
  auto line = [&out, &buf](const char* k, const std::string& v) {
    out += k;
    out += " = ";
    out += v;
    out += "\n";
    (void)buf;
  };

  out += "[world]\n";
  line("name", quoted(spec.name));
  line("standard", quoted(standard_name(spec.standard)));
  line("rts_cts", spec.rts_cts ? "true" : "false");
  std::snprintf(buf, sizeof(buf), "%" PRIu64, spec.seed);
  line("seed", buf);
  line("warmup_s", fmt(spec.warmup_s));
  line("measure_s", fmt(spec.measure_s));
  line("comm_range_m", fmt(spec.comm_range_m));
  line("cs_range_m", fmt(spec.cs_range_m));
  line("ber", fmt(spec.ber));

  out += "\n[aps]\n";
  if (!spec.positions.empty()) {
    std::string arr = "[";
    for (std::size_t i = 0; i < spec.positions.size(); ++i) {
      if (i > 0) arr += ", ";
      arr += "[" + fmt(spec.positions[i].x) + ", " + fmt(spec.positions[i].y) +
             "]";
    }
    arr += "]";
    line("positions", arr);
  } else {
    std::snprintf(buf, sizeof(buf), "%d", spec.grid_cols);
    line("cols", buf);
    std::snprintf(buf, sizeof(buf), "%d", spec.grid_rows);
    line("rows", buf);
    line("pitch_m", fmt(spec.pitch_m));
  }
  line("grc_coverage", fmt(spec.grc_coverage));

  out += "\n[stations]\n";
  std::snprintf(buf, sizeof(buf), "%d", spec.per_ap);
  line("per_ap", buf);
  line("radius_m", fmt(spec.radius_m));

  out += "\n[churn]\n";
  line("fraction", fmt(spec.churn_fraction));
  line("mean_on_s", fmt(spec.mean_on_s));
  line("mean_off_s", fmt(spec.mean_off_s));

  out += "\n[roaming]\n";
  line("fraction", fmt(spec.roam_fraction));
  line("speed_mps", fmt(spec.speed_mps));
  line("hysteresis_m", fmt(spec.hysteresis_m));

  for (const TrafficSpec& t : spec.traffic) {
    out += "\n[[traffic]]\n";
    line("class", quoted(class_name(t.cls)));
    line("weight", fmt(t.weight));
    line("rate_mbps", fmt(t.rate_mbps));
    std::snprintf(buf, sizeof(buf), "%d", t.payload_bytes);
    line("payload_bytes", buf);
    line("burst_s", fmt(t.burst_s));
    line("idle_s", fmt(t.idle_s));
  }

  out += "\n[greedy]\n";
  line("fraction", fmt(spec.greedy_fraction));
  line("nav_inflation", fmt(spec.mix_nav));
  line("ack_spoofing", fmt(spec.mix_spoof));
  line("fake_ack", fmt(spec.mix_fake));
  line("nav_inflation_ms", fmt(spec.nav_inflation_ms));
  line("gp", fmt(spec.gp));

  out += "\n[metrics]\n";
  line("window_s", fmt(spec.window_s));
  line("ring_m", fmt(spec.ring_m));

  return out;
}

}  // namespace g80211::spec
