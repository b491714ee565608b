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
#include <optional>
#include <vector>

#include "src/mac/frame.h"
#include "src/phy/error_model.h"
#include "src/phy/nav.h"
#include "src/phy/propagation.h"
#include "src/phy/wifi_params.h"
#include "src/sim/hot.h"
#include "src/sim/scheduler.h"

namespace g80211 {

class Phy;

// One radio's carrier state. The channel owns these in one array indexed
// by attach index, so the fan-out passes keep every receiver's state
// without touching its Phy; they call into a Phy only when a frame can
// change what it demodulates or its listener wants the edge (see
// Channel::transmit). What a reception tail needs sits beside it, in
// RxState.
struct CarrierState {
  // Running sum of the rx power of every transmission in the air here,
  // reset to exactly zero when the last one ends so that no floating-point
  // residue can pass for interference.
  double interference_w = 0.0;
  std::uint64_t demod_tx = 0;  // tx_id being demodulated (0 = none)
  std::uint32_t sensed = 0;    // transmissions in the air here
  bool transmitting = false;
  bool collided = false;       // the demodulated frame is already lost
  bool wants_edges = false;    // the listener acts on busy/idle edges
  bool busy() const { return transmitting || sensed != 0; }
};

// One radio's reception state, in a second channel-owned array beside its
// CarrierState: the power of the frame it demodulates, and the part of
// its MAC's state that every reception tail updates, addressed or not
// (the NAV, the EIFS flag and their counters). A skipped tail touches
// only this entry and the CarrierState; the start and end passes of an
// interference-only frame never touch it.
struct RxState {
  // The frame being demodulated, valid while the CarrierState's demod_tx
  // is set (the frame itself and its times are its TxRecord's).
  double rss_w = 0.0;
  double rss_dbm = 0.0;  // watts_to_dbm(rss_w), from the link table
  // The MAC's record of the frames it demodulates.
  Nav nav;
  std::int64_t rx_corrupted = 0;
  std::int64_t nav_updates = 0;
  int self = 0;               // the radio's node id (Phy::id)
  bool eifs = false;          // the next deference is an EIFS
  bool eifs_enabled = true;
  // Set while the listener does nothing with a frame addressed elsewhere
  // but record() it (Mac::skips_overheard_tails). The channel then
  // records such a frame itself and calls no PHY or listener, in a world
  // whose error model can draw nothing (Channel::finish).
  bool skip_tail = false;

  // The bystander half of a reception tail (IEEE 802.11 9.2.3.4 and
  // 9.2.5.4): a corrupted frame is counted and makes the next deference
  // an EIFS, where enabled; an intact one cancels the EIFS and, when
  // `overheard` (addressed elsewhere), offers `duration` to the NAV.
  // Returns whether the NAV moved. Mac::on_rx_end and the channel's
  // skipped tails both run it, so the rule has one home.
  bool record(bool corrupted, bool overheard, Time now, Time duration) {
    if (corrupted) {
      ++rx_corrupted;
      eifs = eifs_enabled;
      return false;
    }
    eifs = false;
    if (!overheard || !nav.update(now, duration)) return false;
    ++nav_updates;
    return true;
  }
};

// One transmission in flight, shared by every PHY that sensed it: a single
// end-event fans its finish out to the receivers in attach order. Records
// are pooled by the channel: the Frame assignment reuses the record's
// storage and only bumps the payload refcount.
struct TxRecord {
  Frame frame;
  Time start = 0;
  Time end = 0;
  std::uint64_t tx_id = 0;
  Phy* sender = nullptr;  // keyed radio; told tx-done when the frame ends
  // Receivers' attach indices, in attach order, and the power each took
  // at the frame's start: the end subtracts exactly that, even when a
  // move has patched or rebuilt the sender's link table in between.
  std::vector<std::uint32_t> rx;
  std::vector<double> power_w;
};

// One entry of a sender's link table: what a receiver within sensing
// range takes from the sender's frames.
struct LinkEntry {
  double power_w = 0.0;
  double power_dbm = 0.0;  // watts_to_dbm(power_w)
  bool decodable = false;
};

// A sender's link table in structure-of-arrays form: index-aligned
// contiguous arrays over every receiver within sensing range, in channel
// attach order (the fan-out order contract). Strangers outside
// carrier-sense range never appear, so the transmit fan-out pays zero
// distance/propagation math per frame. The dBm conversion (a log10
// formerly paid per delivered frame in the RSSI path) is precomputed here
// too and threaded through reception.
struct NeighborSoA {
  std::vector<std::uint32_t> rx;  // receivers' attach indices
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
  void add(std::uint32_t receiver, const LinkEntry& e) {
    G80211_ALLOC_OK(
        "link-table rebuild runs on topology/propagation change, not per "
        "frame; the arrays re-reach their high-water capacity and stay");
    rx.push_back(receiver);
    power_w.push_back(e.power_w);
    power_dbm.push_back(e.power_dbm);
    decodable.push_back(e.decodable ? 1 : 0);
  }
  // The patch operations (Channel::neighbors_of), at position k.
  void set(std::size_t k, const LinkEntry& e) {
    power_w[k] = e.power_w;
    power_dbm[k] = e.power_dbm;
    decodable[k] = e.decodable ? 1 : 0;
  }
  void insert(std::size_t k, std::uint32_t receiver, const LinkEntry& e) {
    G80211_ALLOC_OK(
        "a patch inserts only when a moved radio enters sensing range; the "
        "arrays grow to the most receivers the sender ever sensed and stay");
    const auto at = static_cast<std::ptrdiff_t>(k);
    rx.insert(rx.begin() + at, receiver);
    power_w.insert(power_w.begin() + at, e.power_w);
    power_dbm.insert(power_dbm.begin() + at, e.power_dbm);
    decodable.insert(decodable.begin() + at, e.decodable ? 1 : 0);
  }
  void erase(std::size_t k) {
    const auto at = static_cast<std::ptrdiff_t>(k);
    rx.erase(rx.begin() + at);
    power_w.erase(power_w.begin() + at);
    power_dbm.erase(power_dbm.begin() + at);
    decodable.erase(decodable.begin() + at);
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
  // Attached PHYs, indexed by attach index.
  const std::vector<Phy*>& phys() const { return phys_; }

  // Broadcast `frame` from `sender` for `airtime`: one pass over the
  // sender's link table updates each receiver's CarrierState and calls
  // into a PHY only when the frame can change it, in attach order, each
  // call after that receiver's own update:
  //   * a decodable frame reaches a radio that is neither transmitting
  //     nor demodulating (it starts demodulating);
  //   * a frame starts during a demodulation (the capture rule decides
  //     between collision, power-through and capture);
  //   * the busy edge reaches a listener that wants edges.
  // The frame's end makes the same pass (finish), calling in when the
  // frame being demodulated ends (the reception tail) or the idle edge
  // reaches a listener that wants edges. A radio that is not demodulating
  // gains nothing from a frame it cannot decode, so an interference-only
  // receiver whose listener ignores edges costs one CarrierState update
  // per frame edge.
  //
  // A tail is skipped, the channel applying RxState::record itself, when
  // the frame is addressed neither to the radio nor to broadcast, the
  // radio's skip_tail bit is set and the error model is trivial(). That
  // is exact: with nothing to draw the frame-error chance draws nothing,
  // with nothing reading measurements the PHY draws none either, and a
  // MAC with no frame in service, no measurement reader and the NAV-reset
  // rule off does nothing with an overheard frame but record it. Checked
  // builds ask the listener at every skipped tail whether it agrees.
  // Hot root: the per-frame fan-out sweep (src/sim/hot.h).
  G80211_HOT void transmit(Phy* sender, const Frame& frame, Time airtime);

  // Sender's link table (see NeighborSoA), brought up to date lazily, on
  // the sender's next transmit:
  //   * rebuilt in full after attach, set_ranges or a propagation change,
  //     or when the sender itself moved;
  //   * otherwise patched: each radio that moved since the table was last
  //     brought up to date has its entry updated in place, inserted in
  //     attach order or erased.
  // An entry is a pure function of the two positions, the ranges and the
  // propagation parameters, and both ways derive it with the same link(),
  // so a patched table equals a rebuilt one bit for bit; checked builds
  // rebuild one after every patch pass and compare. A move thus costs each
  // sender one entry, not a rebuild of its whole table.
  const NeighborSoA& neighbors_of(Phy* sender);

  // Marks every link table stale, for a rebuild on each sender's next
  // transmit (attach and set_ranges; a move marks only the moved radio).
  void invalidate_topology() { ++topology_gen_; }
  // Full table rebuilds, and the links that patch passes re-derived (one
  // per moved radio per table brought up to date), for tests and
  // benchmarks asserting cache behaviour.
  std::uint64_t link_tables_rebuilt() const { return tables_rebuilt_; }
  std::uint64_t links_patched() const { return links_patched_; }
  // Radios in the move log: those that ever moved, at most every radio.
  std::size_t move_log_size() const { return move_log_.size(); }
  // Fan-out counters, deterministic like the one above. Receptions sensed:
  // receiver x frame pairs. Receiver callbacks: the receiver visits of the
  // start and end passes that called into a PHY or its listener, at most
  // two per reception sensed. Frames demodulated: reception tails run
  // (frames that reached their end at a radio demodulating them).
  // Measurements drawn: the tails among those that drew RSSI noise; the
  // rest skipped it because nothing read it (Phy::finish_reception).
  // Tails skipped: the tails the channel recorded itself, calling no PHY
  // (see transmit); none of them drew.
  std::uint64_t receptions_sensed() const { return receptions_sensed_; }
  std::uint64_t rx_callbacks() const { return rx_callbacks_; }
  std::uint64_t frames_demodulated() const { return frames_demodulated_; }
  std::uint64_t measurements_drawn() const { return measurements_drawn_; }
  std::uint64_t tails_skipped() const { return tails_skipped_; }

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

  // `sender`'s link to `rx`, or nothing outside sensing range.
  std::optional<LinkEntry> link(const Phy& sender, const Phy& rx) const;
  void rebuild(NeighborSoA& soa, const Phy& sender) const;
  void patch(NeighborSoA& soa, const Phy& sender, std::uint32_t r) const;
  // Checked builds: whether `soa` equals a rebuild bit for bit.
  bool matches_rebuild(const NeighborSoA& soa, const Phy& sender);
  // Called by Phy::set_position for the radio at attach index `i`.
  void note_move(std::size_t i);

  Scheduler* sched_;
  WifiParams params_;
  ErrorModel error_model_;
  Propagation propagation_;
  std::vector<Phy*> phys_;
  std::vector<CarrierState> carrier_;  // by attach index, beside phys_
  std::vector<RxState> rx_;            // likewise
  double comm_range_m_ = 0;  // <= 0: unlimited
  double cs_range_m_ = 0;    // <= 0: same as comm range
  std::uint64_t next_tx_id_ = 1;
  // Per-sender link tables, indexed by the sender's attach index. A table
  // reflects every move up to its `moves` stamp; it is rebuilt unless both
  // generation stamps match. topology_gen_ starts at 1 so a freshly
  // attached (zero-stamped) table is always stale.
  struct NeighborTable {
    std::uint64_t topo_gen = 0;
    std::uint64_t prop_gen = 0;
    std::uint64_t moves = 0;
    NeighborSoA soa;
  };
  std::vector<NeighborTable> tables_;
  std::uint64_t topology_gen_ = 1;
  // Moves (Phy::set_position calls that changed a position), numbered from
  // 1. moved_at_ holds each radio's last move (0: never moved), by attach
  // index; move_log_ lists every radio that moved, once, in the order of
  // their last moves, so the radios that moved since a table's stamp are
  // its tail, and it never holds more entries than there are radios.
  std::uint64_t moves_ = 0;
  std::vector<std::uint64_t> moved_at_;
  std::vector<std::uint32_t> move_log_;
  NeighborSoA scratch_;  // matches_rebuild's table
  std::uint64_t tables_rebuilt_ = 0;
  std::uint64_t links_patched_ = 0;
  std::uint64_t receptions_sensed_ = 0;
  std::uint64_t rx_callbacks_ = 0;
  std::uint64_t frames_demodulated_ = 0;
  std::uint64_t measurements_drawn_ = 0;  // bumped by Phy::finish_reception
  std::uint64_t tails_skipped_ = 0;
  // Record pool: records_ owns every record ever created (so teardown with
  // transmissions still in flight leaks nothing); free_records_ lists the
  // idle ones. Steady state allocates no new records.
  std::vector<std::unique_ptr<TxRecord>> records_;
  std::vector<TxRecord*> free_records_;

  // A radio reads and keys its own CarrierState and RxState, counts its
  // drawn measurements and reports its moves.
  friend class Phy;
};

}  // namespace g80211
