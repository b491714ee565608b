#include "src/scenario/sharded.h"

#include <algorithm>
#include <numeric>

#include "src/scenario/topology.h"
#include "src/sim/check.h"

namespace g80211 {
namespace {

// Shard-count-invariant RNG streams: every node and every flow seeds from
// (global seed, kind, global id) so its whole random future is independent
// of which shard builds it and of how many streams other shards forked
// first. The mixing constants are splitmix64's, like Sim's own root seed.
constexpr std::uint64_t kNodeStream = 1;
constexpr std::uint64_t kFlowStream = 2;

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t kind,
                          std::uint64_t index) {
  std::uint64_t h = seed * 0x9e3779b97f4a7c15ULL + 0x517cc1b727220a95ULL;
  h ^= kind * 0xbf58476d1ce4e5b9ULL;
  h ^= index * 0x94d049bb133111ebULL;
  return h;
}

// Global build bases: cell b's node ids, flow ids and start-stagger slots
// are functions of the spec alone, never of the partition.
struct BssBases {
  int node = 0;     // AP id; stations follow
  int flow = 0;     // first downlink flow id
  int stagger = 0;  // first start-stagger slot (flow starts at ms(slot))
};

std::vector<BssBases> compute_bases(const ShardedWorldSpec& spec) {
  std::vector<BssBases> bases(spec.bsss.size());
  int node = 0, flow = 1, stagger = 0;
  for (std::size_t b = 0; b < spec.bsss.size(); ++b) {
    bases[b] = BssBases{node, flow, stagger};
    node += 1 + spec.bsss[b].n_stations;
    flow += spec.bsss[b].n_stations;
    stagger += spec.bsss[b].n_stations;
  }
  return bases;
}

}  // namespace

std::vector<std::vector<int>> partition_bsss(const ShardedWorldSpec& spec,
                                             int num_shards) {
  const int n = static_cast<int>(spec.bsss.size());
  G80211_CHECK(num_shards >= 1 && num_shards <= n &&
               "shard count must be in [1, #BSS]");
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&spec](int a, int b) {
    const Position& pa = spec.bsss[static_cast<std::size_t>(a)].ap;
    const Position& pb = spec.bsss[static_cast<std::size_t>(b)].ap;
    if (pa.x != pb.x) return pa.x < pb.x;
    if (pa.y != pb.y) return pa.y < pb.y;
    return a < b;
  });
  // Greedy contiguous cut balanced by station count: walk the sorted cells
  // and close a shard once it holds its proportional share of the stations
  // (always leaving at least one cell per remaining shard).
  int total_stations = 0;
  for (const HotspotBssSpec& b : spec.bsss) total_stations += b.n_stations;
  std::vector<std::vector<int>> shards(static_cast<std::size_t>(num_shards));
  int shard = 0, taken = 0;
  for (int i = 0; i < n; ++i) {
    shards[static_cast<std::size_t>(shard)].push_back(order[i]);
    taken += spec.bsss[static_cast<std::size_t>(order[i])].n_stations;
    const int remaining_cells = n - i - 1;
    const int remaining_shards = num_shards - shard - 1;
    const bool quota_met =
        static_cast<long long>(taken) * num_shards >=
        static_cast<long long>(total_stations) * (shard + 1);
    if (remaining_shards > 0 &&
        (quota_met || remaining_cells == remaining_shards)) {
      ++shard;
      }
  }
  return shards;
}

ShardedSim::ShardedSim(const ShardedWorldSpec& spec, int num_shards,
                       bool threaded)
    : pool_(threaded && num_shards > 1 ? static_cast<unsigned>(num_shards)
                                       : 0u),
      assignment_(partition_bsss(spec, num_shards)) {
  try {
    for (const CrossFlowSpec& cf : spec.cross_flows) {
      G80211_CHECK(cf.latency > 0 && "cross-flow latency must be positive");
      G80211_CHECK(cf.src_bss >= 0 &&
                   cf.src_bss < static_cast<int>(spec.bsss.size()) &&
                   cf.dst_bss >= 0 &&
                   cf.dst_bss < static_cast<int>(spec.bsss.size()) &&
                   cf.dst_station >= 0 &&
                   cf.dst_station <
                       spec.bsss[static_cast<std::size_t>(cf.dst_bss)]
                           .n_stations &&
                   "cross-flow endpoints out of range");
    }
    // Lookahead: the conservative bound is the minimum one-way latency of
    // any wire — a partition-independent quantity, so epoch boundaries
    // (and with them all delivery orderings) do not depend on the shard
    // count. With no cross flows the whole run is one epoch.
    lookahead_ = spec.base.warmup + spec.base.measure;
    for (const CrossFlowSpec& cf : spec.cross_flows) {
      lookahead_ = std::min(lookahead_, cf.latency);
    }

    shards_.resize(assignment_.size());
    bss_.resize(spec.bsss.size());
    cross_.resize(spec.cross_flows.size());
    mailboxes_.resize(spec.cross_flows.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].bsss = assignment_[s];
      for (int b : assignment_[s]) {
        bss_[static_cast<std::size_t>(b)].shard = static_cast<int>(s);
      }
    }
    // Each shard's Sim is built on its pinned worker so every node, event
    // and packet it will ever own is born on the thread that runs it.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      pool_.submit_to(
          static_cast<unsigned>(s),
          // pool_.wait() below fences every build_shard before `spec` dies.
          // NOLINTNEXTLINE(callback-capture): frame outlives the pool
          [this, &spec, s] { build_shard(spec, static_cast<int>(s)); });
    }
    pool_.wait();
    validate_partition();
  } catch (...) {
    teardown();
    throw;
  }
}

void ShardedSim::build_shard(const ShardedWorldSpec& spec, int s) {
  const std::vector<BssBases> bases = compute_bases(spec);
  Shard& shard = shards_[static_cast<std::size_t>(s)];
  shard.sim = std::make_unique<Sim>(spec.base);
  Sim& sim = *shard.sim;
  const std::uint64_t seed = spec.base.seed;

  // Build in ascending global index order (cells are independent, so any
  // order yields the same world; ascending keeps each Sim's id counters
  // monotone, which set_build_counters checks).
  std::vector<int> build_order = shard.bsss;
  std::sort(build_order.begin(), build_order.end());
  for (int b : build_order) {
    const HotspotBssSpec& cell = spec.bsss[static_cast<std::size_t>(b)];
    const BssBases& base = bases[static_cast<std::size_t>(b)];
    BssHandles& h = bss_[static_cast<std::size_t>(b)];
    sim.set_build_counters(base.node, base.flow, base.stagger);
    h.ap = &sim.add_node(
        cell.ap, Rng(stream_seed(seed, kNodeStream,
                                 static_cast<std::uint64_t>(base.node))));
    const SharedApLayout arc = shared_ap(cell.n_stations);
    for (int i = 0; i < cell.n_stations; ++i) {
      const Position pos{cell.ap.x + arc.clients[static_cast<std::size_t>(i)].x,
                         cell.ap.y + arc.clients[static_cast<std::size_t>(i)].y};
      h.stations.push_back(&sim.add_node(
          pos, Rng(stream_seed(seed, kNodeStream,
                               static_cast<std::uint64_t>(base.node + 1 + i)))));
    }
    for (int i = 0; i < cell.n_stations; ++i) {
      Sim::UdpFlow flow = sim.add_udp_flow(
          *h.ap, *h.stations[static_cast<std::size_t>(i)], cell.rate_mbps,
          cell.payload_bytes,
          Rng(stream_seed(seed, kFlowStream,
                          static_cast<std::uint64_t>(base.flow + i))));
      h.sinks.push_back(flow.sink);
    }
  }

  // Cross-flow halves owned by this shard. Flow ids and stagger slots
  // continue after every cell's, in spec order; both halves are built from
  // the spec alone so src and dst shards agree without communicating.
  int total_stations = 0;
  for (const HotspotBssSpec& cell : spec.bsss) {
    total_stations += cell.n_stations;
  }
  for (std::size_t c = 0; c < spec.cross_flows.size(); ++c) {
    const CrossFlowSpec& cf = spec.cross_flows[c];
    const int flow_id = 1 + total_stations + static_cast<int>(c);
    CrossHandles& h = cross_[c];
    const int src_shard = bss_[static_cast<std::size_t>(cf.src_bss)].shard;
    const int dst_shard = bss_[static_cast<std::size_t>(cf.dst_bss)].shard;
    if (dst_shard == s) {
      const BssHandles& dst = bss_[static_cast<std::size_t>(cf.dst_bss)];
      h.dst_shard = dst_shard;
      h.dst_ap = dst.ap;
      h.sink = &sim.add_udp_sink(
          *dst.stations[static_cast<std::size_t>(cf.dst_station)], flow_id,
          cf.payload_bytes);
    }
    if (src_shard == s) {
      const BssHandles& src = bss_[static_cast<std::size_t>(cf.src_bss)];
      CbrSource& source = sim.add_cbr_source(
          *src.ap, flow_id,
          bases[static_cast<std::size_t>(cf.dst_bss)].node + 1 + cf.dst_station,
          cf.rate_mbps, cf.payload_bytes,
          Rng(stream_seed(seed, kFlowStream,
                          static_cast<std::uint64_t>(flow_id))),
          milliseconds(total_stations + static_cast<int>(c)));
      // The wired side of the source AP: emissions enter the backhaul
      // mailbox instead of the air. EVERY cross flow routes through the
      // mailbox — even when both ends share a shard — so delivery order is
      // a function of the spec, never of the partition.
      Scheduler* sched = &sim.scheduler();
      EpochMailbox<RoutedPacket>* box = &mailboxes_[c];
      const Time latency = cf.latency;
      const int link = static_cast<int>(c);
      source.send_to([sched, box, latency, link](PacketPtr p) {
        box->push(RoutedPacket{sched->now() + latency, link, *p});
      });
      h.source = &source;
    }
  }
}

void ShardedSim::validate_partition() const {
  // Wireless must not straddle the partition: if any node of shard a could
  // sense (or be sensed by) any node of shard b on a shared medium, the
  // split would erase real interference/deferral. Refuse loudly.
  for (std::size_t a = 0; a < shards_.size(); ++a) {
    for (std::size_t b = a + 1; b < shards_.size(); ++b) {
      G80211_CHECK(!shards_[a].sim->channel().may_interact(
                       shards_[b].sim->channel()) &&
                   "partition splits nodes within carrier-sense range; "
                   "wireless may not cross shards");
    }
  }
}

void ShardedSim::schedule_deliveries(int s, const std::vector<Delivery>& batch) {
  // Runs on shard s's pinned worker at the start of an epoch. The packet
  // is re-allocated from THIS thread's arena (it crossed by value) and the
  // event captures only {Node*, PacketPtr} — 16 bytes, well inside the
  // scheduler's in-place closure buffer.
  Sim& sim = *shards_[static_cast<std::size_t>(s)].sim;
  for (const Delivery& d : batch) {
    Node* ap = cross_[static_cast<std::size_t>(d.link)].dst_ap;
    G80211_CHECK(d.deliver_at >= sim.scheduler().now() &&
                 "boundary event arrived in this shard's past "
                 "(lookahead violated)");
    PacketPtr p = make_packet(d.packet);
    sim.scheduler().at(d.deliver_at, [ap, p = std::move(p)]() mutable {
      ap->send_packet(std::move(p));
    });
  }
}

std::vector<ShardedSim::Delivery> ShardedSim::drain_mailboxes() {
  std::vector<Delivery> out;
  for (std::size_t c = 0; c < mailboxes_.size(); ++c) {
    for (auto& stamped : mailboxes_[c].drain()) {
      out.push_back(Delivery{stamped.item.deliver_at, stamped.item.link,
                             stamped.seq, stamped.item.packet});
    }
  }
  // The deterministic merge: (time, link, per-link seq) is identical for
  // every shard count, so ties between links resolve the same way whether
  // the packets came out of one mailbox drain or four.
  std::sort(out.begin(), out.end(), [](const Delivery& a, const Delivery& b) {
    if (a.deliver_at != b.deliver_at) return a.deliver_at < b.deliver_at;
    if (a.link != b.link) return a.link < b.link;
    return a.seq < b.seq;
  });
  return out;
}

void ShardedSim::run() {
  G80211_CHECK(!ran_ && "ShardedSim::run() may only be called once");
  ran_ = true;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Sim* sim = shards_[s].sim.get();
    pool_.submit_to(static_cast<unsigned>(s), [sim] { sim->begin_run(); });
  }
  pool_.wait();

  const Time end = shards_[0].sim->end_time();
  std::vector<Delivery> pending;  // boundary events drained last barrier
  Time now = 0;
  while (now < end) {
    const Time horizon = std::min(now + lookahead_, end);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      // One task per shard per epoch: inject this shard's deliveries,
      // then advance to the epoch horizon. Both run on the pinned worker.
      std::vector<Delivery> batch;
      for (const Delivery& d : pending) {
        if (cross_[static_cast<std::size_t>(d.link)].dst_shard ==
            static_cast<int>(s)) {
          batch.push_back(d);
        }
      }
      Sim* sim = shards_[s].sim.get();
      pool_.submit_to(
          static_cast<unsigned>(s),
          [this, s, horizon, sim, batch = std::move(batch)] {
            schedule_deliveries(static_cast<int>(s), batch);
            sim->advance_to(horizon);
          });
    }
    // The barrier: returns when every shard reached the horizon, with a
    // happens-before edge over everything the workers wrote — which is
    // what makes the lock-free mailbox drain below sound.
    pool_.wait();
    ++epochs_;
    pending = drain_mailboxes();
    now = horizon;
  }
  // Boundary events emitted in the final epoch would deliver past the end
  // of the run; they are dropped with the mailboxes at teardown.
}

std::vector<ShardedSim::FlowMetrics> ShardedSim::metrics() const {
  // Safe to read from the coordinator: the last pool_.wait() ordered every
  // shard's writes before this load, and nothing runs concurrently now.
  std::vector<FlowMetrics> out;
  int flow_id = 1;
  for (const BssHandles& h : bss_) {
    for (const UdpSink* sink : h.sinks) {
      out.push_back(FlowMetrics{flow_id++, sink->goodput_mbps(),
                                sink->packets(), sink->highest_seq()});
    }
  }
  for (const CrossHandles& h : cross_) {
    out.push_back(FlowMetrics{flow_id++, h.sink->goodput_mbps(),
                              h.sink->packets(), h.sink->highest_seq()});
  }
  return out;
}

std::uint64_t ShardedSim::events_executed() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.sim->scheduler().executed();
  return total;
}

std::uint64_t ShardedSim::cross_packets_routed() const {
  std::uint64_t total = 0;
  for (const EpochMailbox<RoutedPacket>& box : mailboxes_) {
    total += box.total_pushed();
  }
  return total;
}

void ShardedSim::teardown() {
  if (torn_down_) return;
  torn_down_ = true;
  // Each Sim must die on the worker that built it: teardown releases every
  // live packet (queued frames, in-flight TxRecords, pending events) back
  // to that thread's arena. submit_to + wait keeps the confinement.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard* shard = &shards_[s];
    if (shard->sim == nullptr) continue;
    pool_.submit_to(static_cast<unsigned>(s), [shard] { shard->sim.reset(); });
  }
  try {
    pool_.wait();
  } catch (...) {
    // Teardown runs on destructor/exception paths; a failure here must
    // not terminate. The pool's own destructor still drains cleanly.
  }
}

ShardedSim::~ShardedSim() { teardown(); }

}  // namespace g80211
