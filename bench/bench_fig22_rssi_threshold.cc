// Fig 22: spoofed-ACK detection error rates versus the RSSI threshold.
// False positive: an honest sample farther than the threshold from its own
// link median. False negative: an attacker's sample (drawn from a
// different link to the same receiver) within the threshold of the
// victim's median. The paper picks 1 dB as the operating point.
//
// Campaign-run: each threshold is one job that builds its own
// deterministically-seeded RssiStudy, so points are independent of
// execution order (the study's attack sampling carries a mutable RNG that
// would otherwise make the sweep order-dependent) and run concurrently.
#include <cstdio>

#include "bench/common.h"
#include "src/rssi/rssi_trace.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  Campaign campaign("fig22_rssi_threshold", {"false_pos", "false_neg"});
  for (const double t : {0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0}) {
    char label[32];
    std::snprintf(label, sizeof(label), "%g", t);
    campaign.add(label, t, 2800, 1, [t](std::uint64_t seed) {
      const RssiStudy study(RssiStudyConfig{}, Rng(seed));
      const auto r = study.rates_at(t);
      return std::vector<double>{r.false_positive, r.false_negative};
    });
  }
  const auto points = campaign.run();

  std::printf("Fig 22: detection error rates vs RSSI threshold\n");
  TableWriter table({"thresh_db", "false_pos", "false_neg"});
  table.print_header();
  print_points(table, points);
  double fp_1db = 0.0, fn_1db = 0.0;
  for (const auto& pt : points) {
    if (pt.x == 1.0) {
      fp_1db = pt.median[0];
      fn_1db = pt.median[1];
    }
  }
  std::printf("at 1 dB: FP=%.3f FN=%.3f (paper: both low at 1 dB)\n\n", fp_1db,
              fn_1db);
  print_headlines({{"false_positive_1db", fp_1db},
                   {"false_negative_1db", fn_1db}});
}
