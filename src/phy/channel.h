// The shared wireless medium.
//
// Transmissions propagate (with zero propagation delay — at hotspot scales
// the <1 us flight time is far below a slot) to every PHY whose distance is
// within the carrier-sense range; frames are decodable within the (smaller
// or equal) communication range. Range semantics:
//   comm_range_m <= 0 : every node decodes every frame (the paper's default
//                       "all nodes are within communication range").
//   cs_range_m   <= 0 : carrier-sense range equals communication range.
// Setting cs_range_m > comm_range_m creates an interference-only band
// (Fig 23's 55 m / 99 m setup); placing senders outside each other's CS
// range while receivers hear both creates hidden terminals (Fig 18).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/mac/frame.h"
#include "src/phy/error_model.h"
#include "src/phy/propagation.h"
#include "src/phy/wifi_params.h"
#include "src/sim/hot.h"
#include "src/sim/scheduler.h"

namespace g80211 {

class Phy;

// One transmission in flight, shared by every PHY that sensed it. The
// channel used to hand each receiver its own Frame copy plus its own
// end-event; now all sensed PHYs reference one record and a single
// end-event fans the finish out in attach order (identical to the old
// per-receiver insertion-sequence order, so event ordering is unchanged).
// Records are pooled by the channel: the Frame assignment reuses the
// record's storage and only bumps the payload refcount.
struct TxRecord {
  Frame frame;
  Time end = 0;
  std::uint64_t tx_id = 0;
  Phy* sender = nullptr;  // keyed radio; told tx-done when the frame ends
  std::vector<Phy*> sensed;  // receivers, in channel attach order
};

// A sender's link table in structure-of-arrays form: index-aligned
// contiguous arrays over every receiver within sensing range, in channel
// attach order (the fan-out order contract). Strangers outside
// carrier-sense range never appear, so the transmit fan-out pays zero
// distance/propagation math per frame — it is one sweep over these arrays
// posting interference deltas and rx-start state into each receiver. The
// dBm conversion (a log10 formerly paid per delivered frame in the RSSI
// path) is precomputed here too and threaded through reception.
struct NeighborSoA {
  std::vector<Phy*> rx;
  std::vector<double> power_w;
  std::vector<double> power_dbm;     // watts_to_dbm(power_w), cached
  std::vector<std::uint8_t> decodable;

  std::size_t size() const { return rx.size(); }
  bool empty() const { return rx.empty(); }
  void clear() {
    rx.clear();
    power_w.clear();
    power_dbm.clear();
    decodable.clear();
  }
  void add(Phy* receiver, double p_w, double p_dbm, bool dec) {
    G80211_ALLOC_OK(
        "link-table rebuild runs on topology/propagation change, not per "
        "frame; the arrays re-reach their high-water capacity and stay");
    rx.push_back(receiver);
    power_w.push_back(p_w);
    power_dbm.push_back(p_dbm);
    decodable.push_back(dec ? 1 : 0);
  }
};

class Channel {
 public:
  Channel(Scheduler& sched, WifiParams params) : sched_(&sched), params_(params) {}

  void set_ranges(double comm_range_m, double cs_range_m) {
    comm_range_m_ = comm_range_m;
    cs_range_m_ = cs_range_m;
    invalidate_topology();
  }
  double comm_range_m() const { return comm_range_m_; }
  double cs_range_m() const { return cs_range_m_ > 0 ? cs_range_m_ : comm_range_m_; }

  ErrorModel& error_model() { return error_model_; }
  const ErrorModel& error_model() const { return error_model_; }
  Propagation& propagation() { return propagation_; }
  const WifiParams& params() const { return params_; }
  Scheduler& scheduler() { return *sched_; }

  // Power ratio above which the stronger of two overlapping frames is
  // captured (ns-2 CPThresh_ = 10). Set <= 0 to disable capture entirely
  // (ablation: every overlap is a collision).
  double capture_threshold = 10.0;

  void attach(Phy* phy);
  const std::vector<Phy*>& phys() const { return phys_; }

  // Broadcast `frame` from `sender` for `airtime`. Hot root: the
  // per-frame fan-out sweep (src/sim/hot.h).
  G80211_HOT void transmit(Phy* sender, const Frame& frame, Time airtime);

  // Sender's link table (see NeighborSoA). Rebuilt lazily when the
  // topology generation moved (attach, set_position, set_ranges) or
  // propagation parameters changed.
  const NeighborSoA& neighbors_of(Phy* sender);

  // Marks every link table stale. Cheap (one counter bump): callers may
  // invoke it per mobility tick; tables rebuild lazily on the next
  // transmit, amortised over the frames between moves.
  void invalidate_topology() { ++topology_gen_; }
  std::uint64_t topology_generation() const { return topology_gen_; }
  // Total table rebuilds, for tests/benchmarks asserting cache behaviour.
  std::uint64_t link_tables_rebuilt() const { return tables_rebuilt_; }

  bool decodable_at(double dist_m) const {
    return comm_range_m_ <= 0 || dist_m <= comm_range_m_;
  }
  bool sensed_at(double dist_m) const {
    return decodable_at(dist_m) || (cs_range_m_ > 0 && dist_m <= cs_range_m_);
  }

  // Partition validator primitive for the sharded engine: true when any
  // node attached to this channel could sense — or be sensed by — any node
  // attached to `other`, were they on one shared medium. Splitting two
  // channels for which this returns true would *change the physics* (a
  // transmission that should defer or collide simply vanishes at the shard
  // boundary), so ShardedSim refuses such partitions. Unlimited ranges
  // (comm_range_m <= 0) on either side make every cross pair interacting.
  // O(|this| * |other|): a build-time check, never on the event path.
  bool may_interact(const Channel& other) const;

 private:
  TxRecord* acquire_record();
  void release_record(TxRecord* rec);
  void finish(TxRecord* rec);

  Scheduler* sched_;
  WifiParams params_;
  ErrorModel error_model_;
  Propagation propagation_;
  std::vector<Phy*> phys_;
  double comm_range_m_ = 0;  // <= 0: unlimited
  double cs_range_m_ = 0;    // <= 0: same as comm range
  std::uint64_t next_tx_id_ = 1;
  // Per-sender link tables, indexed by the sender's attach index. A table
  // is valid while both generation stamps match; topology_gen_ starts at 1
  // so a freshly attached (zero-stamped) table is always stale.
  struct NeighborTable {
    std::uint64_t topo_gen = 0;
    std::uint64_t prop_gen = 0;
    NeighborSoA soa;
  };
  std::vector<NeighborTable> tables_;
  std::uint64_t topology_gen_ = 1;
  std::uint64_t tables_rebuilt_ = 0;
  // Record pool: records_ owns every record ever created (so teardown with
  // transmissions still in flight leaks nothing); free_records_ lists the
  // idle ones. Steady state allocates no new records.
  std::vector<std::unique_ptr<TxRecord>> records_;
  std::vector<TxRecord*> free_records_;
};

}  // namespace g80211
