// Conservative parallel discrete-event engine: one multi-BSS world sharded
// across cores.
//
// A ShardedWorldSpec describes several 802.11 hotspot cells (BSSs) plus
// optional wired backhaul flows between cells. ShardedSim partitions the
// cells spatially into shards, builds each shard as its own complete Sim
// (own Scheduler, EventPool, Channel, nodes and traffic agents), and runs
// them in lockstep epochs on a pinned ThreadPool:
//
//   epoch k:   every shard advances its clock to h_k = k * lookahead
//   barrier:   the coordinator drains the cross-shard mailboxes, merges
//              the boundary events deterministically, and hands each
//              shard its deliveries for epoch k+1
//
// The lookahead is the classic conservative (Chandy-Misra-Bryant) bound:
// the minimum one-way latency of any cross-shard wired link. A packet
// handed to the wire at time t <= h_k arrives at t + latency >= h_k, i.e.
// never inside an epoch the destination shard has already simulated, so
// barrier-drained delivery can never violate causality. Wireless never
// crosses shards at all: the constructor walks every cross-shard pair of
// channels and refuses (throws g80211::CheckFailure) any partition where a
// node of one shard could carrier-sense a node of another — splitting such
// a world would silently change the physics.
//
// Determinism contract: the metrics() vector is byte-identical for every
// shard count (1, 2, ..., #BSS) and for threaded vs inline execution.
// Three mechanisms carry the contract:
//   * every node and flow draws from an RNG stream derived from
//     (global seed, its global id) — not from a per-Sim fork sequence, so
//     streams do not depend on which shard built how many nodes first;
//   * node ids, flow ids and flow start staggers come from global per-BSS
//     bases (Sim::set_build_counters), so a BSS is built identically no
//     matter which Sim it lands in;
//   * cross-shard deliveries go through the mailbox/barrier machinery at
//     EVERY shard count (including 1), sorted by (deliver_at, link, seq) —
//     a shard-count-invariant key — before being rescheduled.
// A single shard run with no worker threads is therefore the bit-exact
// sequential reference (the G80211_JOBS=1 convention of the campaign
// runner), and N shards reproduce it exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/node.h"
#include "src/runner/thread_pool.h"
#include "src/scenario/scenario.h"
#include "src/sim/mailbox.h"
#include "src/transport/cbr.h"
#include "src/transport/udp_sink.h"

namespace g80211 {

// One hotspot cell: an AP at `ap` pushing saturated-or-not UDP downlink to
// `n_stations` stations on a 2 m arc around it (the shared_ap layout,
// translated to the cell's position).
struct HotspotBssSpec {
  Position ap;
  int n_stations = 4;
  double rate_mbps = 12.0;  // downlink CBR rate per station
  int payload_bytes = 1024;
};

// A wired backhaul flow between two cells: a CBR source on the wired side
// of the source cell's AP pushes UDP across a fixed-latency lossless pipe
// to the destination cell's AP, which relays it over the air to one of its
// stations. The latency is the flow's contribution to the engine's
// lookahead, so it must be strictly positive.
struct CrossFlowSpec {
  int src_bss = 0;
  int dst_bss = 0;
  int dst_station = 0;  // station index within dst_bss
  Time latency = milliseconds(2);
  double rate_mbps = 1.0;
  int payload_bytes = 1024;
};

struct ShardedWorldSpec {
  SimConfig base;  // per-shard SimConfig (ranges must isolate the cells)
  std::vector<HotspotBssSpec> bsss;
  std::vector<CrossFlowSpec> cross_flows;
};

// Spatial auto-partitioner: cells sorted by AP position (x, then y, then
// spec index) and cut into `num_shards` contiguous chunks balanced by
// station count. Returns shard -> list of BSS indices; deterministic.
std::vector<std::vector<int>> partition_bsss(const ShardedWorldSpec& spec,
                                             int num_shards);

class ShardedSim {
 public:
  // Builds the world across `num_shards` shards. With `threaded` (and more
  // than one shard) each shard is pinned 1:1 to a ThreadPool worker for
  // its whole lifetime — build, every epoch, teardown — which is what
  // keeps each Sim, its PHY state and its thread-local packet arena
  // confined to one thread. `threaded = false` runs every shard inline on
  // the calling thread with the identical epoch structure (the
  // determinism reference, and the G80211_JOBS=1 execution mode).
  // Throws g80211::CheckFailure if any cross-shard pair of nodes is
  // within carrier-sense range (see Channel::may_interact).
  ShardedSim(const ShardedWorldSpec& spec, int num_shards,
             bool threaded = true);
  ~ShardedSim();

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  // Runs warmup + measurement in lookahead-bounded epochs. Call once.
  void run();

  struct FlowMetrics {
    int flow_id = 0;
    double goodput_mbps = 0.0;
    std::int64_t packets = 0;
    std::int64_t highest_seq = -1;
  };
  // Flat metrics in (bss, station) order over every cell's downlink flows,
  // followed by the cross flows in spec order — an order independent of
  // the partition, so equal shard counts can be compared byte for byte.
  std::vector<FlowMetrics> metrics() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const std::vector<std::vector<int>>& assignment() const {
    return assignment_;
  }
  Time lookahead() const { return lookahead_; }
  std::uint64_t epochs_run() const { return epochs_; }
  // Events executed across all shard schedulers. Shard-invariant except
  // for one warmup-reset event per shard (each shard is a Sim, and
  // Sim::begin_run schedules one): events_executed() - num_shards() is the
  // same at every shard count.
  std::uint64_t events_executed() const;
  // Packets that crossed a shard boundary through the mailboxes.
  std::uint64_t cross_packets_routed() const;

 private:
  // A boundary event: one packet handed to a backhaul wire, shipped by
  // VALUE (Packet's copy ctor copies payload fields only) because the
  // destination shard must re-allocate it from its own thread's arena.
  struct RoutedPacket {
    Time deliver_at = 0;
    int link = 0;  // cross-flow index
    Packet packet;
  };
  // A drained, globally ordered boundary event awaiting injection.
  struct Delivery {
    Time deliver_at = 0;
    int link = 0;
    std::uint64_t seq = 0;  // per-mailbox stamp
    Packet packet;
  };

  struct Shard {
    std::unique_ptr<Sim> sim;
    std::vector<int> bsss;  // global BSS indices, build order
  };
  struct BssHandles {
    int shard = 0;
    Node* ap = nullptr;
    std::vector<Node*> stations;
    std::vector<UdpSink*> sinks;  // downlink sinks, station order
  };
  struct CrossHandles {
    CbrSource* source = nullptr;  // lives in the source shard
    UdpSink* sink = nullptr;      // lives in the destination shard
    Node* dst_ap = nullptr;
    int dst_shard = 0;
  };

  void build_shard(const ShardedWorldSpec& spec, int s);
  void validate_partition() const;
  void schedule_deliveries(int s, const std::vector<Delivery>& batch);
  std::vector<Delivery> drain_mailboxes();
  void teardown();

  ThreadPool pool_;
  std::vector<Shard> shards_;
  std::vector<std::vector<int>> assignment_;
  std::vector<BssHandles> bss_;      // indexed by global BSS index
  std::vector<CrossHandles> cross_;  // indexed by cross-flow index
  // One SPSC mailbox per directed cross-shard link (cross-flow index):
  // produced by the source shard's worker inside an epoch, drained by the
  // coordinator at the barrier (see mailbox.h for the synchronization
  // argument).
  std::vector<EpochMailbox<RoutedPacket>> mailboxes_;
  Time lookahead_ = 0;
  std::uint64_t epochs_ = 0;
  bool ran_ = false;
  bool torn_down_ = false;
};

}  // namespace g80211
