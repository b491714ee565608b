#include "bench/common.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/capture/capture_writer.h"

namespace g80211::bench {

bool quick_mode() {
  const char* v = std::getenv("G80211_QUICK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

int default_runs() { return quick_mode() ? 2 : 5; }

Time default_measure() { return quick_mode() ? seconds(2) : seconds(10); }

TableWriter::TableWriter(std::vector<std::string> columns, int width)
    : columns_(std::move(columns)), width_(width) {}

void TableWriter::print_header() const {
  for (const auto& c : columns_) std::printf("%*s", width_, c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    for (int j = 0; j < width_; ++j) std::printf("-");
  }
  std::printf("\n");
}

void TableWriter::print_row(const std::vector<double>& values,
                            const std::string& label) const {
  if (!label.empty()) std::printf("%*s", width_, label.c_str());
  for (const double v : values) std::printf("%*.4g", width_, v);
  std::printf("\n");
}

void TableWriter::print_text_row(const std::vector<std::string>& cells) const {
  for (const auto& c : cells) std::printf("%*s", width_, c.c_str());
  std::printf("\n");
}

SimConfig base_config(Standard standard, std::uint64_t seed) {
  SimConfig cfg;
  cfg.standard = standard;
  cfg.rts_cts = true;
  cfg.measure = default_measure();
  cfg.seed = seed;
  return cfg;
}

PairsResult run_pairs(const PairsSpec& spec, std::uint64_t seed) {
  SimConfig cfg = spec.cfg;
  cfg.seed = seed;
  Sim sim(cfg);
  const PairLayout layout = pairs_in_range(spec.n_pairs);
  std::vector<Node*> senders, receivers;
  for (int i = 0; i < spec.n_pairs; ++i) {
    senders.push_back(&sim.add_node(layout.senders[i]));
  }
  for (int i = 0; i < spec.n_pairs; ++i) {
    receivers.push_back(&sim.add_node(layout.receivers[i]));
  }
  std::vector<Sim::TcpFlow> tcp_flows;
  std::vector<Sim::UdpFlow> udp_flows;
  for (int i = 0; i < spec.n_pairs; ++i) {
    if (spec.tcp) {
      tcp_flows.push_back(sim.add_tcp_flow(*senders[i], *receivers[i]));
    } else {
      udp_flows.push_back(
          sim.add_udp_flow(*senders[i], *receivers[i], spec.udp_rate_mbps));
    }
  }
  if (spec.customize) spec.customize(sim, senders, receivers);
  // Per-run capture at the first sender's vantage (the station GRC
  // detectors attach to in the paper's scenarios). Attached after
  // customize() so the capture also journals detector-driven behaviour.
  // Attaching makes the vantage radio draw its own RSSI noise (a radio
  // nobody observes skips it); that stream feeds nothing else, so the run
  // itself is unperturbed.
  std::unique_ptr<CaptureWriter> capture;
  if (!spec.capture_stem.empty() && !senders.empty()) {
    capture = std::make_unique<CaptureWriter>(
        sim.scheduler(), spec.capture_stem + "_seed" + std::to_string(seed));
    capture->attach(senders[0]->mac());
  }
  sim.run();
  if (capture) capture->close();

  PairsResult out;
  for (int i = 0; i < spec.n_pairs; ++i) {
    out.goodput_mbps.push_back(spec.tcp ? tcp_flows[i].goodput_mbps()
                                        : udp_flows[i].goodput_mbps());
    out.sender_avg_cw.push_back(senders[i]->mac().backoff().average_cw());
    out.rts_sent.push_back(
        static_cast<double>(senders[i]->mac().stats().rts_sent));
    if (spec.tcp) out.avg_cwnd.push_back(tcp_flows[i].sender->avg_cwnd());
  }
  out.ready_queue = sim.scheduler().ready_queue_stats();
  out.events = sim.scheduler().executed();
  out.receptions_sensed = sim.channel().receptions_sensed();
  out.rx_callbacks = sim.channel().rx_callbacks();
  out.frames_demodulated = sim.channel().frames_demodulated();
  out.measurements_drawn = sim.channel().measurements_drawn();
  out.tails_skipped = sim.channel().tails_skipped();
  for (int id = 0; id < sim.num_nodes(); ++id) {
    out.queue_drops += sim.node(id).mac().stats().queue_drops;
  }
  return out;
}

SharedApResult run_shared_ap(const SharedApSpec& spec, std::uint64_t seed) {
  SimConfig cfg = spec.cfg;
  cfg.seed = seed;
  Sim sim(cfg);
  const SharedApLayout layout = spec.spoof_layout
                                    ? spoof_shared_ap(spec.n_clients)
                                    : shared_ap(spec.n_clients);
  Node& ap = sim.add_node(layout.ap);
  std::vector<Node*> clients;
  for (int i = 0; i < spec.n_clients; ++i) {
    clients.push_back(&sim.add_node(layout.clients[i]));
  }
  std::vector<Sim::TcpFlow> tcp_flows;
  std::vector<Sim::UdpFlow> udp_flows;
  for (int i = 0; i < spec.n_clients; ++i) {
    if (spec.tcp) {
      tcp_flows.push_back(sim.add_tcp_flow(ap, *clients[i]));
    } else {
      udp_flows.push_back(sim.add_udp_flow(ap, *clients[i], spec.udp_rate_mbps));
    }
  }
  if (spec.customize) spec.customize(sim, ap, clients);
  sim.run();

  SharedApResult out;
  for (int i = 0; i < spec.n_clients; ++i) {
    out.goodput_mbps.push_back(spec.tcp ? tcp_flows[i].goodput_mbps()
                                        : udp_flows[i].goodput_mbps());
    if (spec.tcp) out.avg_cwnd.push_back(tcp_flows[i].sender->avg_cwnd());
  }
  return out;
}

std::vector<double> run_remote(const RemoteSpec& spec, std::uint64_t seed) {
  SimConfig cfg = spec.cfg;
  cfg.seed = seed;
  Sim sim(cfg);
  // Remote-sender scenarios carry ACK spoofing: capture-safe layout.
  const SharedApLayout layout = spoof_shared_ap(2);
  Node& ap = sim.add_node(layout.ap);
  std::vector<Node*> clients;
  clients.push_back(&sim.add_node(layout.clients[0]));
  clients.push_back(&sim.add_node(layout.clients[1]));
  WiredHost& h1 = sim.add_wired_host(ap, spec.wired_latency);
  WiredHost& h2 = sim.add_wired_host(ap, spec.wired_latency);
  auto f1 = sim.add_remote_tcp_flow(h1, ap, *clients[0]);
  auto f2 = sim.add_remote_tcp_flow(h2, ap, *clients[1]);
  if (spec.customize) spec.customize(sim, ap, clients);
  sim.run();
  return {f1.goodput_mbps(), f2.goodput_mbps()};
}

HiddenResult run_hidden(const HiddenSpec& spec, std::uint64_t seed) {
  const HiddenPairsLayout layout = hidden_pairs();
  SimConfig cfg;
  cfg.standard = spec.standard;
  cfg.rts_cts = false;  // the paper disables RTS/CTS to create collisions
  cfg.comm_range_m = layout.comm_range_m;
  cfg.cs_range_m = layout.cs_range_m;
  cfg.measure = spec.measure > 0 ? spec.measure : default_measure();
  cfg.seed = seed;
  Sim sim(cfg);
  Node& s1 = sim.add_node(layout.senders[0]);
  Node& s2 = sim.add_node(layout.senders[1]);
  Node& r1 = sim.add_node(layout.receivers[0]);
  Node& r2 = sim.add_node(layout.receivers[1]);
  auto f1 = sim.add_udp_flow(s1, r1);
  auto f2 = sim.add_udp_flow(s2, r2);
  if (spec.fake_gp_r1 > 0) sim.make_fake_acker(r1, spec.fake_gp_r1);
  if (spec.fake_gp_r2 > 0) sim.make_fake_acker(r2, spec.fake_gp_r2);
  sim.run();
  HiddenResult out;
  out.goodput_r1 = f1.goodput_mbps();
  out.goodput_r2 = f2.goodput_mbps();
  out.cw_s1 = s1.mac().backoff().average_cw();
  out.cw_s2 = s2.mac().backoff().average_cw();
  return out;
}

std::vector<std::string> goodput_names(int n_normal) {
  std::vector<std::string> names;
  for (int i = 1; i <= n_normal; ++i) {
    names.push_back("normal" + std::to_string(i) + "_mbps");
  }
  names.emplace_back("greedy_mbps");
  return names;
}

void print_points(const TableWriter& table,
                  const std::vector<CampaignPoint>& points) {
  for (const auto& pt : points) {
    std::vector<double> row;
    row.reserve(pt.median.size() + 1);
    row.push_back(pt.x);
    row.insert(row.end(), pt.median.begin(), pt.median.end());
    table.print_row(row);
  }
}

void register_once(const char* name,
                   const std::function<void(benchmark::State&)>& fn) {
  benchmark::RegisterBenchmark(name, [fn](benchmark::State& state) {
    for (auto _ : state) {
      fn(state);
    }
  })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace g80211::bench
