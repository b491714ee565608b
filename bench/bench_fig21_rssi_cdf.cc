// Fig 21: CDF of |RSSI - median RSSI| over all links of the 16-node
// office-floor measurement study (synthetic substitute calibrated to the
// paper's headline: ~95% of samples within 1 dB of the link median).
#include <cstdio>

#include "bench/common.h"
#include "src/analysis/stats.h"
#include "src/rssi/rssi_trace.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  std::printf("Fig 21: CDF of |RSSI - median RSSI| over all links (16 nodes)\n");
  RssiStudyConfig cfg;
  const RssiStudy study(cfg, Rng(2700));
  const auto cdf = empirical_cdf(study.deviations());

  TableWriter table({"dev_db", "cdf"});
  table.print_header();
  for (const double x : {0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0}) {
    table.print_row({x, cdf_at(cdf, x)});
  }
  const double within_1db = cdf_at(cdf, 1.0);
  std::printf("fraction within 1 dB: %.3f (paper: ~0.95)\n\n", within_1db);
  print_headlines({{"fraction_within_1db", within_1db}});
}
