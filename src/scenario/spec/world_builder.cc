#include "src/scenario/spec/world_builder.h"

#include <algorithm>
#include <cmath>

#include "src/scenario/topology.h"
#include "src/sim/check.h"

namespace g80211::spec {
namespace {

// Role-assignment streams: the same splitmix64 mixing family as the
// sharded engine's stream_seed, finalized so the low bits are usable as a
// uniform threshold test. Kinds are disjoint from sharded.cc's node/flow
// stream kinds by construction (different call sites, same principle:
// every role is a pure function of (seed, kind, entity index)).
constexpr std::uint64_t kGrcRole = 10;
constexpr std::uint64_t kClassRole = 11;
constexpr std::uint64_t kGreedyRole = 12;
constexpr std::uint64_t kMisbehaviorRole = 13;
constexpr std::uint64_t kRoamRole = 14;
constexpr std::uint64_t kChurnRole = 15;
constexpr std::uint64_t kScatterRole = 16;

std::uint64_t role_hash(std::uint64_t seed, std::uint64_t kind,
                        std::uint64_t index) {
  std::uint64_t h = seed * 0x9e3779b97f4a7c15ULL + 0x517cc1b727220a95ULL;
  h ^= kind * 0xbf58476d1ce4e5b9ULL;
  h ^= index * 0x94d049bb133111ebULL;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

// Uniform double in [0, 1) from a role hash (53 mantissa bits, like Rng).
double role_unit(std::uint64_t seed, std::uint64_t kind, std::uint64_t index) {
  return static_cast<double>(role_hash(seed, kind, index) >> 11) * 0x1.0p-53;
}

// Casting a double outside int64 is undefined. The schema bounds every
// spec duration; this also stops a spec built in code.
Time to_time(double s) {
  const double ns = s * 1e9;
  G80211_CHECK(std::fabs(ns) < 0x1p63);
  return static_cast<Time>(ns);
}

// Damage-radius rings are capped so a sparse-greedy world still yields a
// readable handful of bands; everything farther lands in the last ring.
constexpr int kMaxRings = 8;

constexpr Time kRoamTick = milliseconds(200);

}  // namespace

WorldPlan plan_world(const WorldSpec& spec) {
  WorldPlan plan;
  plan.aps = spec.ap_positions();
  const int num_aps = static_cast<int>(plan.aps.size());
  const std::uint64_t seed = spec.seed;

  plan.grc.resize(static_cast<std::size_t>(num_aps));
  for (int a = 0; a < num_aps; ++a) {
    plan.grc[static_cast<std::size_t>(a)] =
        role_unit(seed, kGrcRole, static_cast<std::uint64_t>(a)) <
        spec.grc_coverage;
  }

  // Nearest other AP, the roaming target (O(A^2); fine at city scale).
  std::vector<int> nearest(static_cast<std::size_t>(num_aps), -1);
  for (int a = 0; a < num_aps; ++a) {
    double best = 0.0;
    for (int b = 0; b < num_aps; ++b) {
      if (b == a) continue;
      const double d = distance(plan.aps[static_cast<std::size_t>(a)],
                                plan.aps[static_cast<std::size_t>(b)]);
      if (nearest[static_cast<std::size_t>(a)] < 0 || d < best) {
        nearest[static_cast<std::size_t>(a)] = b;
        best = d;
      }
    }
  }

  double total_weight = 0.0;
  for (const TrafficSpec& t : spec.traffic) total_weight += t.weight;

  const SharedApLayout arc = shared_ap(spec.per_ap);
  for (int a = 0; a < num_aps; ++a) {
    const Position& ap = plan.aps[static_cast<std::size_t>(a)];
    for (int j = 0; j < spec.per_ap; ++j) {
      const std::uint64_t s =
          static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(spec.per_ap) +
          static_cast<std::uint64_t>(j);
      StationPlan st;
      st.ap = a;
      if (spec.radius_m <= 0.0) {
        st.pos = Position{ap.x + arc.clients[static_cast<std::size_t>(j)].x,
                          ap.y + arc.clients[static_cast<std::size_t>(j)].y};
      } else {
        // Disc scatter, held >= 1 m off the AP so propagation never sees a
        // zero distance. Area-uniform via sqrt.
        const std::uint64_t h = role_hash(seed, kScatterRole, s);
        const double u_r =
            static_cast<double>(h >> 11) * 0x1.0p-53;  // radius share
        const double u_t = static_cast<double>(
                               role_hash(seed, kScatterRole, s ^ 0x5bf03635ULL) >>
                               11) *
                           0x1.0p-53;  // angle share
        const double r =
            1.0 + (std::max(spec.radius_m, 1.0) - 1.0) * std::sqrt(u_r);
        const double theta = 2.0 * 3.14159265358979323846 * u_t;
        st.pos = Position{ap.x + r * std::cos(theta), ap.y + r * std::sin(theta)};
      }

      // Weighted traffic-class pick.
      double pick = role_unit(seed, kClassRole, s) * total_weight;
      st.traffic = 0;
      for (std::size_t t = 0; t < spec.traffic.size(); ++t) {
        pick -= spec.traffic[t].weight;
        if (pick < 0.0) {
          st.traffic = static_cast<int>(t);
          break;
        }
      }
      const bool tcp = spec.traffic[static_cast<std::size_t>(st.traffic)].cls ==
                       TrafficClass::kTcp;

      st.greedy = role_unit(seed, kGreedyRole, s) < spec.greedy_fraction;
      if (st.greedy) {
        const double mix_total = spec.mix_nav + spec.mix_spoof + spec.mix_fake;
        double m = role_unit(seed, kMisbehaviorRole, s) * mix_total;
        if ((m -= spec.mix_nav) < 0.0) {
          st.misbehavior = 0;
        } else if ((m -= spec.mix_spoof) < 0.0) {
          st.misbehavior = 1;
        } else {
          st.misbehavior = 2;
        }
      }
      // Role precedence (see world_builder.h): greedy stations camp; TCP
      // stations anchor; only the rest roam or churn.
      st.roams = !st.greedy && !tcp && num_aps > 1 &&
                 role_unit(seed, kRoamRole, s) < spec.roam_fraction;
      if (st.roams) st.roam_target_ap = nearest[static_cast<std::size_t>(a)];
      st.churns = !st.greedy && !tcp && !st.roams &&
                  role_unit(seed, kChurnRole, s) < spec.churn_fraction;
      plan.stations.push_back(st);
    }
  }

  // Damage-radius rings: honest stations banded by distance (of their home
  // position) to the nearest greedy receiver's home position.
  std::vector<Position> greedy_pos;
  for (const StationPlan& st : plan.stations) {
    if (st.greedy) greedy_pos.push_back(st.pos);
  }
  if (!greedy_pos.empty()) {
    int max_ring = 0;
    for (StationPlan& st : plan.stations) {
      if (st.greedy) continue;
      double d = distance(st.pos, greedy_pos.front());
      for (const Position& g : greedy_pos) {
        d = std::min(d, distance(st.pos, g));
      }
      st.ring = std::min(static_cast<int>(d / spec.ring_m), kMaxRings - 1);
      max_ring = std::max(max_ring, st.ring);
    }
    plan.num_rings = max_ring + 1;
  }
  return plan;
}

SimConfig to_sim_config(const WorldSpec& spec) {
  SimConfig cfg;
  cfg.standard = spec.standard;
  cfg.rts_cts = spec.rts_cts;
  cfg.default_ber = spec.ber;
  cfg.comm_range_m = spec.comm_range_m;
  cfg.cs_range_m = spec.cs_range_m;
  cfg.warmup = to_time(spec.warmup_s);
  cfg.measure = to_time(spec.measure_s);
  cfg.seed = spec.seed;
  return cfg;
}

ShardedWorldSpec to_sharded(const WorldSpec& spec) {
  const auto reject = [&spec](const std::string& what) {
    throw SpecError(spec.name, 0, "not sharded-representable: " + what);
  };
  if (spec.churn_fraction > 0.0) reject("[churn] fraction must be 0");
  if (spec.roam_fraction > 0.0) reject("[roaming] fraction must be 0");
  if (spec.greedy_fraction > 0.0) reject("[greedy] fraction must be 0");
  if (spec.grc_coverage > 0.0) reject("[aps] grc_coverage must be 0");
  if (spec.radius_m != 0.0) {
    reject("[stations] radius_m must be 0 (canonical arc layout)");
  }
  if (spec.traffic.size() != 1 ||
      spec.traffic[0].cls != TrafficClass::kCbr) {
    reject("traffic must be a single cbr class");
  }
  ShardedWorldSpec out;
  out.base = to_sim_config(spec);
  for (const Position& pos : spec.ap_positions()) {
    HotspotBssSpec bss;
    bss.ap = pos;
    bss.n_stations = spec.per_ap;
    bss.rate_mbps = spec.traffic[0].rate_mbps;
    bss.payload_bytes = spec.traffic[0].payload_bytes;
    out.bsss.push_back(bss);
  }
  return out;
}

BuiltWorld::BuiltWorld(const WorldSpec& spec)
    : spec_(spec),
      plan_(plan_world(spec)),
      sim_(std::make_unique<Sim>(to_sim_config(spec))) {
  ap_nodes_.reserve(plan_.aps.size());
  for (const Position& pos : plan_.aps) {
    ap_nodes_.push_back(&sim_->add_node(pos));
  }
  station_nodes_.reserve(plan_.stations.size());
  for (const StationPlan& st : plan_.stations) {
    station_nodes_.push_back(&sim_->add_node(st.pos));
  }

  // Flows, AP-major station order (the same order the ids were assigned).
  flows_.resize(plan_.stations.size());
  delivery_ap_.resize(plan_.stations.size());
  sessions_by_station_.assign(plan_.stations.size(), nullptr);
  roamers_by_station_.assign(plan_.stations.size(), nullptr);
  for (std::size_t s = 0; s < plan_.stations.size(); ++s) {
    const StationPlan& st = plan_.stations[s];
    delivery_ap_[s] = st.ap;
    const TrafficSpec& t = spec_.traffic[static_cast<std::size_t>(st.traffic)];
    Node& ap = *ap_nodes_[static_cast<std::size_t>(st.ap)];
    Node& stn = *station_nodes_[s];
    FlowRef& f = flows_[s];
    if (t.cls == TrafficClass::kTcp) {
      const TcpSender::Config tcp_cfg;
      Sim::TcpFlow flow = sim_->add_tcp_flow(ap, stn, tcp_cfg);
      f.tcp = flow.sink;
      f.unit_bytes = tcp_cfg.mss_bytes;
    } else {
      Sim::UdpFlow flow =
          sim_->add_udp_flow(ap, stn, t.rate_mbps, t.payload_bytes);
      f.udp = flow.sink;
      f.source = flow.source;
      f.unit_bytes = t.payload_bytes;
      if (st.roams) {
        // Deliver through whichever AP the station is associated with;
        // handoffs re-point delivery_ap_ and flush the old AP's queue.
        f.source->send_to([this, s](PacketPtr p) {
          ap_nodes_[static_cast<std::size_t>(delivery_ap_[s])]->send_packet(
              std::move(p));
        });
      }
    }
  }

  // Greedy receivers.
  for (std::size_t s = 0; s < plan_.stations.size(); ++s) {
    const StationPlan& st = plan_.stations[s];
    if (!st.greedy) continue;
    Node& stn = *station_nodes_[s];
    switch (st.misbehavior) {
      case 0:
        sim_->make_nav_inflator(stn, NavFrameMask::cts_only(),
                                to_time(spec_.nav_inflation_ms * 1e-3),
                                spec_.gp);
        break;
      case 1:
        sim_->make_ack_spoofer(stn, spec_.gp);
        break;
      default:
        sim_->make_fake_acker(stn, spec_.gp);
        break;
    }
  }

  // GRC-protected APs.
  for (std::size_t a = 0; a < plan_.grc.size(); ++a) {
    if (!plan_.grc[a]) continue;
    grcs_.push_back(std::make_unique<Grc>(sim_->scheduler(), sim_->params()));
    grcs_.back()->protect(ap_nodes_[a]->mac());
  }

  // On/off sessions: churned stations use the churn timescale, bursty web
  // stations their class's burst/idle timescale (a churned web station
  // churns — the coarser process dominates).
  for (std::size_t s = 0; s < plan_.stations.size(); ++s) {
    const StationPlan& st = plan_.stations[s];
    const TrafficSpec& t = spec_.traffic[static_cast<std::size_t>(st.traffic)];
    const bool web = t.cls == TrafficClass::kWeb;
    if (!st.churns && !web) continue;
    auto session = std::make_unique<OnOffSession>(
        sim_->scheduler(), [this, s] { toggle_session(*sessions_by_station_[s]); },
        sim_->fork_rng());
    session->source = flows_[s].source;
    session->mean_on_s = st.churns ? spec_.mean_on_s : t.burst_s;
    session->mean_off_s = st.churns ? spec_.mean_off_s : t.idle_s;
    // The flow starts ON (Sim staggered its start); first toggle after an
    // exponential ON period.
    session->timer.start_at(to_time(session->rng.exponential(session->mean_on_s)));
    sessions_by_station_[s] = session.get();
    sessions_.push_back(std::move(session));
  }

  // Roamers: walk between the home anchor and the mirrored anchor at the
  // nearest other AP, re-associating with hysteresis every kRoamTick.
  for (std::size_t s = 0; s < plan_.stations.size(); ++s) {
    const StationPlan& st = plan_.stations[s];
    if (!st.roams) continue;
    auto roamer = std::make_unique<Roamer>(sim_->scheduler(), [this, s] {
      roam_step(*roamers_by_station_[s]);
    });
    roamer->station = static_cast<int>(s);
    roamer->node = station_nodes_[s];
    roamer->aps[0] = st.ap;
    roamer->aps[1] = st.roam_target_ap;
    const Position& home_ap = plan_.aps[static_cast<std::size_t>(st.ap)];
    const Position& target_ap =
        plan_.aps[static_cast<std::size_t>(st.roam_target_ap)];
    roamer->anchors[0] = st.pos;
    roamer->anchors[1] = Position{target_ap.x + (st.pos.x - home_ap.x),
                                  target_ap.y + (st.pos.y - home_ap.y)};
    roamer->walk = std::make_unique<WaypointMobility>(
        sim_->scheduler(), roamer->node->phy(),
        std::vector<Position>{roamer->anchors[1]}, spec_.speed_mps);
    roamer->walk->start(0);
    roamer->timer.start_at(kRoamTick);
    roamers_by_station_[s] = roamer.get();
    roamers_.push_back(std::move(roamer));
  }
}

void BuiltWorld::toggle_session(OnOffSession& s) {
  const Time now = sim_->scheduler().now();
  double next_s = 0.0;
  if (s.on) {
    s.source->stop(now);
    s.on = false;
    next_s = s.rng.exponential(s.mean_off_s);
  } else {
    s.source->start(now);
    s.on = true;
    next_s = s.rng.exponential(s.mean_on_s);
  }
  s.timer.start(std::max<Time>(to_time(next_s), milliseconds(1)));
}

void BuiltWorld::roam_step(Roamer& r) {
  const Time now = sim_->scheduler().now();
  if (r.walk->finished()) {
    // Next leg: ping-pong between the two anchors, one fresh
    // WaypointMobility per leg so memory never grows with duration.
    r.leg ^= 1;
    r.walk = std::make_unique<WaypointMobility>(
        sim_->scheduler(), r.node->phy(),
        std::vector<Position>{r.anchors[r.leg]}, spec_.speed_mps);
    r.walk->start(now);
  }
  const Position p = r.node->phy().position();
  const double d_cur =
      distance(p, plan_.aps[static_cast<std::size_t>(r.aps[r.associated])]);
  const double d_other =
      distance(p, plan_.aps[static_cast<std::size_t>(r.aps[1 - r.associated])]);
  if (d_other + spec_.hysteresis_m < d_cur) {
    const int from = r.aps[r.associated];
    r.associated = 1 - r.associated;
    const int to = r.aps[r.associated];
    // The old AP stops delivering: flush its queued frames for this
    // station and re-point generation at the new AP.
    ap_nodes_[static_cast<std::size_t>(from)]->mac().abort_queued_to(
        r.node->id());
    delivery_ap_[static_cast<std::size_t>(r.station)] = to;
    ++summary_.handoffs;
    if (on_handoff) on_handoff(r.station, from, to, now);
  }
  r.timer.start(kRoamTick);
}

void BuiltWorld::run(const std::function<void(const WindowReport&)>& on_window) {
  G80211_CHECK(!ran_ && "BuiltWorld::run is single-shot");
  ran_ = true;
  sim_->begin_run();
  const Time warmup = sim_->config().warmup;
  const Time end = sim_->end_time();
  const Time window = to_time(spec_.window_s);

  sim_->advance_to(warmup);
  prev_units_.resize(flows_.size());
  for (std::size_t s = 0; s < flows_.size(); ++s) {
    prev_units_[s] = flows_[s].units();
  }

  const int rings = plan_.num_rings;
  summary_.ring_mbps.assign(static_cast<std::size_t>(rings), StreamingStat{});
  summary_.ring_stations.assign(static_cast<std::size_t>(rings), 0);
  for (const StationPlan& st : plan_.stations) {
    if (st.ring >= 0) ++summary_.ring_stations[static_cast<std::size_t>(st.ring)];
  }

  // Per-window scratch, reused: run() memory does not grow with duration.
  std::vector<StreamingStat> ring_window(static_cast<std::size_t>(rings));
  std::vector<double> ring_total(static_cast<std::size_t>(rings));
  WindowReport rep;
  rep.rings.resize(static_cast<std::size_t>(rings));

  Time t = warmup;
  int index = 0;
  while (t < end) {
    const Time next = std::min(t + window, end);
    sim_->advance_to(next);
    const double dt = to_seconds(next - t);

    rep.index = index;
    rep.t_start_s = to_seconds(t);
    rep.t_end_s = to_seconds(next);
    rep.honest_mbps = 0.0;
    rep.greedy_mbps = 0.0;
    std::fill(ring_total.begin(), ring_total.end(), 0.0);
    for (std::size_t s = 0; s < flows_.size(); ++s) {
      const std::int64_t units = flows_[s].units();
      const std::int64_t delta = units - prev_units_[s];
      prev_units_[s] = units;
      const double mbps = static_cast<double>(delta) *
                          static_cast<double>(flows_[s].unit_bytes) * 8.0 /
                          dt / 1e6;
      const StationPlan& st = plan_.stations[s];
      if (st.greedy) {
        rep.greedy_mbps += mbps;
      } else {
        rep.honest_mbps += mbps;
        if (st.ring >= 0) {
          ring_window[static_cast<std::size_t>(st.ring)].add(mbps);
          ring_total[static_cast<std::size_t>(st.ring)] += mbps;
        }
      }
    }
    for (int r = 0; r < rings; ++r) {
      const std::size_t ri = static_cast<std::size_t>(r);
      rep.rings[ri].stations = ring_window[ri].count();
      rep.rings[ri].total_mbps = ring_total[ri];
      rep.rings[ri].mean_mbps = ring_window[ri].mean();
      rep.rings[ri].p25 = ring_window[ri].p25();
      rep.rings[ri].p50 = ring_window[ri].p50();
      rep.rings[ri].p75 = ring_window[ri].p75();
      summary_.ring_mbps[ri].add(ring_total[ri]);
      ring_window[ri].reset();
    }
    summary_.honest_mbps.add(rep.honest_mbps);
    summary_.greedy_mbps.add(rep.greedy_mbps);
    ++summary_.windows;
    if (on_window) on_window(rep);
    t = next;
    ++index;
  }

  for (const auto& grc : grcs_) {
    summary_.nav_detections += grc->nav_detections();
    summary_.spoof_detections += grc->spoof_detections();
  }
}

}  // namespace g80211::spec
