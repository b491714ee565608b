// Fig 18: fake ACKs under hidden-terminal collision losses. Two APs are
// mutually out of carrier-sense range while both receivers hear both, so
// overlapping data frames collide at the receivers. Faking ACKs keeps the
// greedy flow's sender at CWmin; with both receivers greedy, exponential
// backoff is gone entirely and everyone collides more.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

// One campaign per sub-figure: a point per greedy percentage, seeded from
// `base_seed + gp`.
std::vector<CampaignPoint> sweep(const char* figure,
                                 std::initializer_list<int> gps,
                                 std::uint64_t base_seed, bool both_fake) {
  Campaign campaign(figure, {"R1_mbps", "R2_mbps"});
  for (const int gp : gps) {
    HiddenSpec spec;
    spec.fake_gp_r2 = gp / 100.0;
    if (both_fake) spec.fake_gp_r1 = gp / 100.0;
    campaign.add(std::to_string(gp), gp, base_seed + gp, default_runs(),
                 [spec](std::uint64_t s) {
                   const auto r = run_hidden(spec, s);
                   return std::vector<double>{r.goodput_r1, r.goodput_r2};
                 });
  }
  return campaign.run();
}

}  // namespace

int main() {
  const auto solo =
      sweep("fig18a_fake_hidden_one", {0, 25, 50, 75, 100}, 1900, false);
  std::printf("Fig 18(a): hidden terminals, R2 fakes ACKs, GP sweep\n");
  TableWriter table({"gp_pct", "R1_mbps", "R2_mbps"});
  table.print_header();
  print_points(table, solo);
  std::printf("\n");

  const auto mutual =
      sweep("fig18b_fake_hidden_both", {25, 50, 75, 100}, 1950, true);
  std::printf("Fig 18(b): hidden terminals, both receivers fake ACKs\n");
  TableWriter table2({"gp_pct", "R1_mbps", "R2_mbps"});
  table2.print_header();
  print_points(table2, mutual);
  std::printf("\n");
  print_headlines({{"greedy_mbps_solo_gp100", solo.back().median[1]},
                   {"greedy_mbps_mutual_gp100", mutual.back().median[1]}});
}
