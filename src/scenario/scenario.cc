#include "src/scenario/scenario.h"

#include "src/sim/check.h"

namespace g80211 {
namespace {

WifiParams params_for(Standard s) {
  switch (s) {
    case Standard::A80211:
      return WifiParams::a6();
    case Standard::G80211:
      return WifiParams::g54();
    case Standard::B80211:
      break;
  }
  return WifiParams::b11();
}

}  // namespace

Sim::Sim(const SimConfig& cfg)
    : cfg_(cfg),
      params_(params_for(cfg.standard)),
      sched_(cfg.scheduler_backend),
      rng_(cfg.seed * 0x9e3779b97f4a7c15ULL + 0x517cc1b727220a95ULL),
      channel_(sched_, params_) {
  channel_.set_ranges(cfg.comm_range_m, cfg.cs_range_m);
  channel_.capture_threshold = cfg.capture_threshold;
  channel_.error_model().set_default_ber(cfg.default_ber);
}

Node& Sim::add_node(Position pos) { return add_node(pos, rng_.fork()); }

Node& Sim::add_node(Position pos, Rng rng) {
  const int id = next_node_id_++;
  nodes_.push_back(std::make_unique<Node>(sched_, channel_, id, pos, rng));
  nodes_.back()->mac().set_rts_cts(cfg_.rts_cts);
  return *nodes_.back();
}

void Sim::set_build_counters(int next_node_id, int next_flow_id,
                             int flows_started) {
  G80211_CHECK(next_node_id >= next_node_id_ && next_flow_id >= next_flow_id_ &&
               "build counters only move forward");
  next_node_id_ = next_node_id;
  next_flow_id_ = next_flow_id;
  flows_started_ = flows_started;
}

Sim::UdpFlow Sim::add_udp_flow(Node& src, Node& dst, double rate_mbps,
                               int payload_bytes) {
  return add_udp_flow(src, dst, rate_mbps, payload_bytes, rng_.fork());
}

Sim::UdpFlow Sim::add_udp_flow(Node& src, Node& dst, double rate_mbps,
                               int payload_bytes, Rng rng) {
  UdpFlow flow;
  flow.flow_id = next_flow_id_++;
  // Stagger flow starts by 1 ms to avoid pathological synchronisation.
  flow.source = &add_cbr_source(src, flow.flow_id, dst.id(), rate_mbps,
                                payload_bytes, rng,
                                milliseconds(flows_started_++));
  flow.sink = &add_udp_sink(dst, flow.flow_id, payload_bytes);
  return flow;
}

CbrSource& Sim::add_cbr_source(Node& src, int flow_id, int dst_node,
                               double rate_mbps, int payload_bytes, Rng rng,
                               Time start_at) {
  CbrSource::Config cc;
  cc.payload_bytes = payload_bytes;
  cc.rate_mbps = rate_mbps;
  cbr_sources_.push_back(std::make_unique<CbrSource>(sched_, cc, flow_id,
                                                     src.id(), dst_node, rng));
  CbrSource& source = *cbr_sources_.back();
  source.feed(src);
  source.start(start_at);
  return source;
}

UdpSink& Sim::add_udp_sink(Node& dst, int flow_id, int payload_bytes) {
  udp_sinks_.push_back(std::make_unique<UdpSink>(sched_, payload_bytes));
  dst.register_sink(flow_id, udp_sinks_.back().get());
  return *udp_sinks_.back();
}

Sim::TcpFlow Sim::add_tcp_flow(Node& src, Node& dst, TcpSender::Config cfg) {
  TcpFlow flow;
  flow.flow_id = next_flow_id_++;
  tcp_senders_.push_back(std::make_unique<TcpSender>(sched_, cfg, flow.flow_id,
                                                     src.id(), dst.id()));
  flow.sender = tcp_senders_.back().get();
  flow.sender->output = [&src](PacketPtr p) { src.send_packet(std::move(p)); };
  src.register_sink(flow.flow_id, flow.sender);  // TCP ACKs come back here

  tcp_sinks_.push_back(std::make_unique<TcpSink>(sched_, flow.flow_id, dst.id(),
                                                 src.id(), cfg.mss_bytes,
                                                 cfg.header_bytes));
  flow.sink = tcp_sinks_.back().get();
  flow.sink->output = [&dst](PacketPtr p) { dst.send_packet(std::move(p)); };
  dst.register_sink(flow.flow_id, flow.sink);

  flow.sender->start(milliseconds(flows_started_++));
  return flow;
}

WiredHost& Sim::add_wired_host(Node& ap, Time one_way_latency) {
  wired_links_.push_back(std::make_unique<WiredLink>(sched_, one_way_latency));
  const int id = next_node_id_++;  // host ids share the node id space
  wired_hosts_.push_back(
      std::make_unique<WiredHost>(id, *wired_links_.back(), ap));
  return *wired_hosts_.back();
}

Sim::TcpFlow Sim::add_remote_tcp_flow(WiredHost& host, Node& ap, Node& dst,
                                      TcpSender::Config cfg) {
  TcpFlow flow;
  flow.flow_id = next_flow_id_++;
  tcp_senders_.push_back(std::make_unique<TcpSender>(sched_, cfg, flow.flow_id,
                                                     host.id(), dst.id()));
  flow.sender = tcp_senders_.back().get();
  flow.sender->output = [&host](PacketPtr p) { host.send_packet(std::move(p)); };
  host.register_sink(flow.flow_id, flow.sender);

  tcp_sinks_.push_back(std::make_unique<TcpSink>(sched_, flow.flow_id, dst.id(),
                                                 host.id(), cfg.mss_bytes,
                                                 cfg.header_bytes));
  flow.sink = tcp_sinks_.back().get();
  flow.sink->output = [&dst](PacketPtr p) { dst.send_packet(std::move(p)); };
  dst.register_sink(flow.flow_id, flow.sink);
  // The station reaches the remote host through the AP.
  dst.set_route(host.id(), ap.id());

  flow.sender->start(milliseconds(flows_started_++));
  return flow;
}

NavInflationPolicy& Sim::make_nav_inflator(Node& receiver, NavFrameMask mask,
                                           Time inflation, double gp) {
  auto policy = std::make_unique<NavInflationPolicy>(mask, inflation, gp);
  auto& ref = *policy;
  policies_.push_back(std::move(policy));
  receiver.mac().set_greedy_policy(&ref);
  return ref;
}

AckSpoofingPolicy& Sim::make_ack_spoofer(Node& receiver, double gp,
                                         std::set<int> victims) {
  auto policy = std::make_unique<AckSpoofingPolicy>(gp, std::move(victims));
  auto& ref = *policy;
  policies_.push_back(std::move(policy));
  receiver.mac().set_greedy_policy(&ref);
  return ref;
}

FakeAckPolicy& Sim::make_fake_acker(Node& receiver, double gp) {
  auto policy = std::make_unique<FakeAckPolicy>(gp);
  auto& ref = *policy;
  policies_.push_back(std::move(policy));
  receiver.mac().set_greedy_policy(&ref);
  return ref;
}

void Sim::run() {
  begin_run();
  advance_to(end_time());
}

void Sim::begin_run() {
  G80211_CHECK(!ran_ && "Sim::run() may only be called once; use run_more()");
  ran_ = true;
  sched_.at(cfg_.warmup, [this] {
    for (auto& s : udp_sinks_) s->reset();
    for (auto& s : tcp_sinks_) s->reset();
    for (auto& s : tcp_senders_) s->reset_stats();
  });
}

void Sim::advance_to(Time t) { sched_.run_until(t); }

void Sim::run_more(Time extra) {
  G80211_CHECK(ran_);
  sched_.run_until(sched_.now() + extra);
}

}  // namespace g80211
