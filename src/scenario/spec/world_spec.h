// WorldSpec — the validated schema of a city-scale scenario description.
//
// A spec file (TOML subset or JSON, see parser.h) describes a hotspot
// deployment declaratively:
//
//   [world]     radio standard, ranges, seed, warmup/measure durations
//   [aps]       AP placement — a cols x rows floor-plan grid with a fixed
//               pitch, or explicit positions — plus the fraction of APs
//               running the GRC detection/mitigation bundle
//   [stations]  population per AP: on the canonical 2 m arc (radius_m = 0,
//               the sharded-engine-compatible layout) or scattered on a
//               disc of the given radius
//   [churn]     arrival/departure sessions: a fraction of stations whose
//               traffic alternates exponential on/off periods
//   [roaming]   a fraction of stations that walk between their home AP
//               and its nearest neighbour, re-associating with hysteresis
//   [[traffic]] weighted traffic classes: "cbr" (fixed-rate downlink),
//               "web" (bursty on/off downlink), "tcp" (long download)
//   [greedy]    fraction of stations that are greedy receivers, with a
//               weighted mix over the paper's misbehaviors
//   [metrics]   streaming aggregation window and damage-radius ring width
//
// Every per-station and per-AP role (class, greedy, roaming, churn, GRC)
// is assigned by deterministic hashing of (seed, entity index) — never by
// drawing from a shared RNG sequence — so the world is a pure function of
// the spec and is identical however it is compiled (one Sim, N shards).
//
// parse_world_spec rejects invalid documents with SpecErrors anchored to
// the offending line. describe() serializes back to canonical TOML with
// every default resolved; parse(describe(spec)) == spec (round-trip
// losslessness is a tested invariant).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/phy/propagation.h"
#include "src/scenario/scenario.h"
#include "src/scenario/spec/value.h"

namespace g80211::spec {

enum class TrafficClass { kCbr, kWeb, kTcp };

struct TrafficSpec {
  TrafficClass cls = TrafficClass::kCbr;
  double weight = 1.0;
  double rate_mbps = 12.0;  // payload rate (cbr and web ON periods)
  int payload_bytes = 1024;
  double burst_s = 1.0;  // web: mean ON burst duration
  double idle_s = 1.0;   // web: mean OFF gap duration

  bool operator==(const TrafficSpec&) const = default;
};

struct WorldSpec {
  // [world]
  std::string name = "city";
  Standard standard = Standard::B80211;
  bool rts_cts = true;
  std::uint64_t seed = 1;  // in [0, 2^63): a TOML integer is signed 64-bit
  double warmup_s = 1.0;
  double measure_s = 10.0;
  double comm_range_m = 55.0;
  double cs_range_m = 99.0;
  double ber = 0.0;

  // [aps] — grid mode (cols > 0) XOR explicit positions.
  int grid_cols = 0;
  int grid_rows = 0;
  double pitch_m = 0.0;
  std::vector<Position> positions;
  double grc_coverage = 0.0;

  // [stations]
  int per_ap = 4;
  double radius_m = 0.0;  // 0 = canonical 2 m arc (sharded-compatible)

  // [churn]
  double churn_fraction = 0.0;
  double mean_on_s = 5.0;
  double mean_off_s = 5.0;

  // [roaming]
  double roam_fraction = 0.0;
  double speed_mps = 1.5;
  double hysteresis_m = 5.0;

  // [[traffic]]
  std::vector<TrafficSpec> traffic;

  // [greedy]
  double greedy_fraction = 0.0;
  double mix_nav = 1.0;    // NAV inflation weight
  double mix_spoof = 0.0;  // ACK spoofing weight
  double mix_fake = 0.0;   // fake-ACK weight
  double nav_inflation_ms = 31.0;
  double gp = 1.0;  // greedy percentage (fraction of opportunities taken)

  // [metrics]
  double window_s = 1.0;
  double ring_m = 25.0;

  // Resolved AP placement: explicit positions, or the grid row-major.
  std::vector<Position> ap_positions() const;
  int num_aps() const;
  int num_stations() const { return num_aps() * per_ap; }

  // Every field, so parse(describe(s)) == s covers fields added later.
  bool operator==(const WorldSpec&) const = default;
};

// Validate a parsed document against the schema. `source` names the file
// in error messages.
WorldSpec parse_world_spec(const Value& doc, const std::string& source);
// Convenience: parse text/file (format-sniffed) and validate.
WorldSpec parse_world_spec_text(const std::string& text,
                                const std::string& source);
WorldSpec load_world_spec(const std::string& path);

// Canonical TOML with every default resolved. Lossless:
// parse_world_spec_text(describe(s)) == s. Throws a SpecError naming
// `seed` for a seed outside [0, 2^63), which no spec text can hold.
std::string describe(const WorldSpec& spec);

}  // namespace g80211::spec
