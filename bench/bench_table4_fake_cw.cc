// Table IV: contention-window size of the normal and greedy flows' senders
// under hidden-terminal losses with GP=100%, for 802.11b and 802.11a —
// faking ACKs pins GS near CWmin while NS's window balloons; with two
// greedy receivers both senders sit low (and collide constantly).
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

constexpr Standard kStandards[] = {Standard::B80211, Standard::A80211};
constexpr int kNumGreedy[] = {0, 1, 2};

}  // namespace

int main() {
  Campaign campaign("table4_fake_cw", {"cw_s1", "cw_s2"});
  for (const Standard std_ : kStandards) {
    for (const int n_greedy : kNumGreedy) {
      HiddenSpec spec;
      spec.standard = std_;
      if (n_greedy >= 1) spec.fake_gp_r2 = 1.0;
      if (n_greedy >= 2) spec.fake_gp_r1 = 1.0;
      campaign.add(std::string(std_ == Standard::B80211 ? "11b" : "11a") + "_" +
                       std::to_string(n_greedy) + "GR",
                   n_greedy, 2000 + n_greedy, default_runs(),
                   [spec](std::uint64_t s) {
                     const auto r = run_hidden(spec, s);
                     return std::vector<double>{r.cw_s1, r.cw_s2};
                   });
    }
  }
  const auto points = campaign.run();

  std::printf("Table IV: sender average CW under hidden terminals (GP=100%%)\n");
  std::printf("%10s %10s %10s %10s %10s %10s %10s\n", "", "noGR_S1", "noGR_S2",
              "1GR_NS", "1GR_GS", "2GR_S1", "2GR_S2");
  std::size_t i = 0;
  for (const Standard std_ : kStandards) {
    std::vector<double> cells;
    for (std::size_t n = 0; n < std::size(kNumGreedy); ++n) {
      const auto& med = points[i++].median;
      cells.push_back(med[0]);
      cells.push_back(med[1]);
    }
    std::printf("%10s %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f\n",
                std_ == Standard::B80211 ? "802.11b" : "802.11a", cells[0],
                cells[1], cells[2], cells[3], cells[4], cells[5]);
  }
  std::printf("\n");
  // 802.11b, one greedy receiver.
  print_headlines({{"cw_NS_1GR_11b", points[1].median[0]},
                   {"cw_GS_1GR_11b", points[1].median[1]}});
}
