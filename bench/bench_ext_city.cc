// Extension: the city-scale campaign (ROADMAP item 2) — how far does one
// greedy receiver's damage reach in a dense deployment, and how does GRC
// coverage change the answer? A 12x12-AP street grid (144 APs, 1152
// stations; neighbouring cells contend) with churn, roaming and a mixed
// cbr/web/tcp population is described as a scenario-spec TOML document,
// compiled by WorldBuilder, and run with streaming per-window metrics —
// memory stays constant however long the campaign runs.
//
// Reported:
//   * damage radius — per-ring honest per-station goodput vs distance to
//     the nearest greedy receiver (rings of ring_m = 25 m), and the radius
//     at which stations recover to >= 80% of the far-field level;
//   * GRC-coverage sweep — honest goodput and detections as greedy
//     fraction x GRC coverage varies over the same grid.
//
// Both tables are one named campaign, `ext_city`: the damage world is one
// point whose metrics are its rings' columns, and each sweep row is one
// point. Each point is one run at the spec's fixed seed (5).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/scenario/spec/world_builder.h"

using namespace g80211;
using namespace g80211::bench;
using namespace g80211::spec;

namespace {

// The spec's fixed seed: every point is one run at it.
constexpr std::uint64_t kCitySeed = 5;

std::string city_toml(double greedy_fraction, double grc_coverage,
                      std::uint64_t seed) {
  const bool quick = quick_mode();
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "[world]\n"
                "name = \"city\"\n"
                "seed = %llu\n"
                "warmup_s = 1.0\n"
                "measure_s = %s\n"
                "[aps]\n"
                "cols = %d\n"
                "rows = %d\n"
                "pitch_m = 60.0\n"
                "grc_coverage = %.3f\n"
                "[stations]\n"
                "per_ap = %d\n"
                "radius_m = 20.0\n"
                "[churn]\n"
                "fraction = 0.2\n"
                "mean_on_s = 4.0\n"
                "mean_off_s = 3.0\n"
                "[roaming]\n"
                "fraction = 0.1\n"
                "[[traffic]]\n"
                "class = \"cbr\"\n"
                "weight = 1.0\n"
                "rate_mbps = 1.0\n"
                "[[traffic]]\n"
                "class = \"web\"\n"
                "weight = 2.0\n"
                "rate_mbps = 2.0\n"
                "burst_s = 1.0\n"
                "idle_s = 2.0\n"
                "[[traffic]]\n"
                "class = \"tcp\"\n"
                "weight = 1.0\n"
                "[greedy]\n"
                "fraction = %.3f\n"
                "nav_inflation = 1.0\n"
                "ack_spoofing = 1.0\n"
                "fake_ack = 1.0\n"
                "[metrics]\n"
                "window_s = 1.0\n"
                "ring_m = 25.0\n",
                static_cast<unsigned long long>(seed), quick ? "2.0" : "5.0",
                quick ? 4 : 12, quick ? 4 : 12, grc_coverage, quick ? 4 : 8,
                greedy_fraction);
  return buf;
}

WorldSpec city_spec(double greedy_fraction, double grc_coverage,
                    std::uint64_t seed) {
  return parse_world_spec_text(city_toml(greedy_fraction, grc_coverage, seed),
                               "city");
}

// Ring r's label on the damage table's axis, "0-25", "25-50", ...
std::string ring_label(std::size_t r) {
  return std::to_string(static_cast<int>(r * 25)) + "-" +
         std::to_string(static_cast<int>((r + 1) * 25));
}

// The damage world's metrics: each ring's honest stations and its mean
// window goodput per station, ring by ring.
std::vector<double> damage_rings(std::uint64_t seed) {
  BuiltWorld world(city_spec(0.05, 0.0, seed));
  world.run();
  const BuiltWorld::Summary& sum = world.summary();
  std::vector<double> out;
  for (std::size_t r = 0; r < sum.ring_mbps.size(); ++r) {
    const std::int64_t n = sum.ring_stations[r];
    const double stations = static_cast<double>(n > 0 ? n : 1);
    out.push_back(static_cast<double>(n));
    out.push_back(sum.ring_mbps[r].mean() / stations);
  }
  return out;
}

// One GRC-coverage row: honest and greedy goodput, and detections.
std::vector<double> coverage_row(double greedy, double coverage,
                                 std::uint64_t seed) {
  BuiltWorld world(city_spec(greedy, coverage, seed));
  world.run();
  const BuiltWorld::Summary& sum = world.summary();
  return {sum.honest_mbps.mean(), sum.greedy_mbps.mean(),
          static_cast<double>(sum.nav_detections + sum.spoof_detections)};
}

}  // namespace

int main() {
  // The damage world's ring count comes from its plan, a pure function of
  // the spec, so the point's metric names are known before it runs.
  const WorldSpec dmg_spec = city_spec(0.05, 0.0, kCitySeed);
  const auto num_rings =
      static_cast<std::size_t>(plan_world(dmg_spec).num_rings);
  std::vector<std::string> ring_names;
  for (std::size_t r = 0; r < num_rings; ++r) {
    const std::string ring = "ring_" + std::to_string(r * 25) + "_" +
                             std::to_string((r + 1) * 25);
    ring_names.push_back(ring + "_stations");
    ring_names.push_back(ring + "_mbps_per_stn");
  }

  Campaign campaign("ext_city", {"honest", "greedy_gp", "detect"});
  campaign.add("damage", 0.05, kCitySeed, 1, damage_rings, ring_names);
  struct Row {
    double greedy;
    double coverage;
  };
  std::vector<Row> rows;
  for (const double greedy : {0.0, 0.02, 0.05}) {
    for (const double coverage : {0.0, 0.5, 1.0}) {
      if (greedy == 0.0 && coverage > 0.0) continue;  // GRC idles w/o attack
      rows.push_back({greedy, coverage});
      campaign.add(std::to_string(greedy).substr(0, 4) + "_" +
                       std::to_string(coverage).substr(0, 3),
                   coverage, kCitySeed, 1,
                   [greedy, coverage](std::uint64_t seed) {
                     return coverage_row(greedy, coverage, seed);
                   });
    }
  }
  const auto points = campaign.run();

  std::printf("Extension: city-scale hotspot campaign (%s)\n\n",
              quick_mode() ? "quick: 16 APs" : "144 APs, 1152 stations");

  // --- damage radius: greedy receivers at large, no GRC -------------------
  const std::vector<double>& dmg = points[0].median;
  std::printf("Damage radius (greedy fraction 0.05, no GRC):\n");
  TableWriter rings({"ring_m", "stations", "mbps_per_stn"}, 12);
  rings.print_header();
  double far_field = 0.0;
  for (std::size_t r = 0; r < num_rings; ++r) {
    rings.print_row({dmg[2 * r], dmg[2 * r + 1]}, ring_label(r));
    far_field = dmg[2 * r + 1];  // outermost ring = far-field reference
  }
  double damage_radius_m = 0.0;
  for (std::size_t r = 0; r < num_rings; ++r) {
    if (dmg[2 * r + 1] < 0.8 * far_field) {
      damage_radius_m = static_cast<double>((r + 1) * 25);
    }
  }
  std::printf("\nDamage radius (last ring below 80%% of far field): %.0f m\n\n",
              damage_radius_m);

  // --- greedy fraction x GRC coverage sweep -------------------------------
  std::printf("GRC-coverage sweep (honest goodput, Mb/s):\n");
  TableWriter sweep({"greedy", "coverage", "honest", "greedy_gp", "detect"}, 10);
  sweep.print_header();
  double baseline = 0.0, attacked = 0.0, protected_all = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto [greedy, coverage] = rows[i];
    const std::vector<double>& m = points[i + 1].median;
    sweep.print_row({coverage, m[0], m[1], m[2]},
                    std::to_string(greedy).substr(0, 4));
    if (greedy == 0.0) baseline = m[0];
    if (greedy == 0.05 && coverage == 0.0) attacked = m[0];
    if (greedy == 0.05 && coverage == 1.0) protected_all = m[0];
  }
  std::printf(
      "\nHonest goodput: %.1f Mb/s clean, %.1f under attack, %.1f with GRC "
      "everywhere.\n\n",
      baseline, attacked, protected_all);

  const double n_stations = static_cast<double>(dmg_spec.num_stations());
  print_headlines({{"damage_radius_m", damage_radius_m},
                   {"honest_baseline_mbps", baseline},
                   {"honest_attacked_mbps", attacked},
                   {"honest_grc_mbps", protected_all},
                   {"stations", n_stations}});
}
