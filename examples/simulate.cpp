// Command-line experiment driver: assemble a hotspot scenario from flags,
// run it, and print per-flow goodput, fairness, and detection results.
//
//   $ ./build/examples/simulate --help
//   $ ./build/examples/simulate --attack nav --inflation-us 600
//   $ ./build/examples/simulate --attack spoof --ber 2e-4 --tcp --grc
//   $ ./build/examples/simulate --attack fake --hidden --gp 50
//   $ ./build/examples/simulate --pairs 4 --tcp --seconds 20 --trace 12
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "src/analysis/stats.h"
#include "src/capture/capture_tap.h"
#include "src/detect/grc.h"
#include "src/scenario/scenario.h"
#include "src/scenario/topology.h"

using namespace g80211;

namespace {

struct Options {
  int pairs = 2;
  bool tcp = false;
  bool rts_cts = true;
  bool hidden = false;
  bool a80211 = false;
  bool g80211_ = false;
  int frag = 0;
  bool grc = false;
  bool auto_rate = false;
  double ber = 0.0;
  double gp = 100.0;
  std::string attack = "none";  // none | nav | spoof | fake | sender
  double inflation_us = 10000.0;
  double seconds_ = 10.0;
  std::uint64_t seed = 1;
  int trace = 0;  // print the first N sniffed frames
};

void usage() {
  std::printf(
      "simulate — greedy-receiver hotspot scenarios from the command line\n\n"
      "  --pairs N          sender/receiver pairs (default 2)\n"
      "  --tcp | --udp      transport (default UDP)\n"
      "  --no-rtscts        disable RTS/CTS\n"
      "  --hidden           hidden-terminal topology (2 pairs, no RTS/CTS)\n"
      "  --80211a           802.11a at 6 Mbps (default 802.11b at 11)\n"
      "  --80211g           802.11g at 54 Mbps\n"
      "  --frag N           fragmentation threshold in bytes (0 = off)\n"
      "  --ber X            channel bit error rate (paper scale)\n"
      "  --attack KIND      none | nav | spoof | fake | sender\n"
      "  --inflation-us X   NAV inflation for --attack nav (default 10000)\n"
      "  --gp X             greedy percentage 0-100 (default 100)\n"
      "  --grc              attach the GRC detectors to honest stations\n"
      "  --autorate         enable ARF rate adaptation on the senders\n"
      "  --seconds X        measurement window (default 10)\n"
      "  --seed N           RNG seed (default 1)\n"
      "  --trace N          print the first N frames seen by an observer\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](double& out) {
      if (i + 1 >= argc) return false;
      out = std::atof(argv[++i]);
      return true;
    };
    if (a == "--help" || a == "-h") return false;
    if (a == "--tcp") {
      o.tcp = true;
    } else if (a == "--udp") {
      o.tcp = false;
    } else if (a == "--no-rtscts") {
      o.rts_cts = false;
    } else if (a == "--hidden") {
      o.hidden = true;
    } else if (a == "--80211a") {
      o.a80211 = true;
    } else if (a == "--80211g") {
      o.g80211_ = true;
    } else if (a == "--frag") {
      double v;
      if (!next(v)) return false;
      o.frag = static_cast<int>(v);
    } else if (a == "--grc") {
      o.grc = true;
    } else if (a == "--autorate") {
      o.auto_rate = true;
    } else if (a == "--attack" && i + 1 < argc) {
      o.attack = argv[++i];
    } else if (a == "--pairs") {
      double v;
      if (!next(v)) return false;
      o.pairs = static_cast<int>(v);
    } else if (a == "--ber") {
      if (!next(o.ber)) return false;
    } else if (a == "--gp") {
      if (!next(o.gp)) return false;
    } else if (a == "--inflation-us") {
      if (!next(o.inflation_us)) return false;
    } else if (a == "--seconds") {
      if (!next(o.seconds_)) return false;
    } else if (a == "--seed") {
      double v;
      if (!next(v)) return false;
      o.seed = static_cast<std::uint64_t>(v);
    } else if (a == "--trace") {
      double v;
      if (!next(v)) return false;
      o.trace = static_cast<int>(v);
    } else {
      std::printf("unknown flag: %s\n\n", a.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 1;
  }
  if (o.hidden) {
    o.pairs = 2;
    o.rts_cts = false;
  }

  SimConfig cfg;
  cfg.standard = o.g80211_ ? Standard::G80211
                           : (o.a80211 ? Standard::A80211 : Standard::B80211);
  cfg.rts_cts = o.rts_cts;
  cfg.default_ber = o.ber;
  cfg.measure = static_cast<Time>(o.seconds_ * 1e9);
  cfg.seed = o.seed;
  if (o.attack == "spoof") cfg.capture_threshold = 10.0;

  PairLayout layout;
  if (o.hidden) {
    const auto h = hidden_pairs();
    layout.senders = h.senders;
    layout.receivers = h.receivers;
    cfg.comm_range_m = h.comm_range_m;
    cfg.cs_range_m = h.cs_range_m;
  } else {
    layout = pairs_in_range(o.pairs);
  }

  Sim sim(cfg);
  std::vector<Node*> senders, receivers;
  for (int i = 0; i < o.pairs; ++i) senders.push_back(&sim.add_node(layout.senders[i]));
  for (int i = 0; i < o.pairs; ++i) receivers.push_back(&sim.add_node(layout.receivers[i]));

  std::vector<Sim::TcpFlow> tcp_flows;
  std::vector<Sim::UdpFlow> udp_flows;
  for (int i = 0; i < o.pairs; ++i) {
    if (o.tcp) {
      tcp_flows.push_back(sim.add_tcp_flow(*senders[i], *receivers[i]));
    } else {
      udp_flows.push_back(sim.add_udp_flow(*senders[i], *receivers[i]));
    }
    if (o.auto_rate) senders[i]->mac().enable_auto_rate();
    if (o.frag > 0) senders[i]->mac().set_fragmentation_threshold(o.frag);
  }

  // The last pair's receiver (or sender) misbehaves.
  Node* gr = receivers.back();
  const double gp = o.gp / 100.0;
  if (o.attack == "nav") {
    sim.make_nav_inflator(*gr, NavFrameMask::cts_only(),
                          static_cast<Time>(o.inflation_us * 1000.0), gp);
  } else if (o.attack == "spoof") {
    std::set<int> victims;
    for (int i = 0; i + 1 < o.pairs; ++i) victims.insert(receivers[i]->id());
    sim.make_ack_spoofer(*gr, gp, victims);
  } else if (o.attack == "fake") {
    sim.make_fake_acker(*gr, gp);
  } else if (o.attack == "sender") {
    senders.back()->mac().set_backoff_cheat(0.25);
  } else if (o.attack != "none") {
    std::printf("unknown attack: %s\n", o.attack.c_str());
    return 1;
  }

  Grc grc(sim.scheduler(), sim.params());
  if (o.grc) {
    for (int i = 0; i + 1 < o.pairs; ++i) {
      grc.protect(senders[i]->mac());
      grc.protect(receivers[i]->mac());
    }
  }

  int printed = 0;
  if (o.trace > 0) {
    // Frames the observer hears; its own CTS/ACKs are not printed.
    tap_frames(receivers[0]->mac(), [&](const CapturedFrame& r) {
      if (!r.tx && printed++ < o.trace) {
        std::printf("%s\n", trace_line(r).c_str());
      }
    });
  }

  sim.run();

  std::printf("\n%-6s %-10s %12s\n", "flow", "role", "goodput_mbps");
  std::vector<double> goodputs;
  for (int i = 0; i < o.pairs; ++i) {
    const double g =
        o.tcp ? tcp_flows[i].goodput_mbps() : udp_flows[i].goodput_mbps();
    goodputs.push_back(g);
    const bool is_greedy = o.attack != "none" && i == o.pairs - 1;
    std::printf("%-6d %-10s %12.3f\n", i, is_greedy ? "greedy" : "normal", g);
  }
  std::printf("\nJain fairness index: %.3f\n", jain_fairness(goodputs));
  if (o.grc) {
    std::printf("GRC: %lld inflated NAVs corrected, %lld spoofed ACKs rejected\n",
                static_cast<long long>(grc.nav_detections()),
                static_cast<long long>(grc.spoof_detections()));
  }
  return 0;
}
