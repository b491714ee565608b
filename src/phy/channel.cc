#include "src/phy/channel.h"

#include "src/phy/phy.h"

namespace g80211 {

void Channel::attach(Phy* phy) {
  phy->channel_index_ = phys_.size();
  phys_.push_back(phy);
  tables_.emplace_back();
  invalidate_topology();  // every sender's sensed set may now include `phy`
}

const NeighborSoA& Channel::neighbors_of(Phy* sender) {
  NeighborTable& t = tables_[sender->channel_index_];
  const std::uint64_t prop_gen = propagation_.generation();
  if (t.topo_gen != topology_gen_ || t.prop_gen != prop_gen) {
    t.soa.clear();
    // Every other PHY within sensing range, in attach order: the fan-out
    // order that every event ordering and RNG draw downstream follows.
    for (Phy* rx : phys_) {
      if (rx == sender) continue;
      const double d = distance(sender->position(), rx->position());
      if (!sensed_at(d)) continue;
      const double p = propagation_.rx_power_w(d);
      t.soa.add(rx, p, watts_to_dbm(p), decodable_at(d));
    }
    t.topo_gen = topology_gen_;
    t.prop_gen = prop_gen;
    ++tables_rebuilt_;
  }
  return t.soa;
}

bool Channel::may_interact(const Channel& other) const {
  for (const Phy* a : phys_) {
    for (const Phy* b : other.phys_) {
      const double d = distance(a->position(), b->position());
      // Check both channels' range semantics: a transmission from `a`
      // reaches `b` under *this* channel's ranges, and vice versa. Either
      // direction crossing the boundary invalidates the partition.
      if (sensed_at(d) || other.sensed_at(d)) return true;
    }
  }
  return false;
}

TxRecord* Channel::acquire_record() {
  G80211_ALLOC_OK(
      "pool growth stops at the high-water mark of concurrent "
      "transmissions; steady state reuses the free list");
  if (free_records_.empty()) {
    records_.push_back(std::make_unique<TxRecord>());
    return records_.back().get();
  }
  TxRecord* rec = free_records_.back();
  free_records_.pop_back();
  return rec;
}

void Channel::release_record(TxRecord* rec) {
  rec->frame.packet.reset();  // drop the payload ref until the next reuse
  rec->sensed.clear();
  // NOLINTNEXTLINE(hot-path-alloc): holds at most records_.size() entries,
  // so capacity stops at the record-pool high-water mark.
  free_records_.push_back(rec);
}

void Channel::transmit(Phy* sender, const Frame& frame, Time airtime) {
  const Time now = sched_->now();
  const Time end = now + airtime;
  // tx_id advances even for transmissions nobody senses (as it always
  // has), so id sequences are independent of topology.
  const std::uint64_t tx_id = next_tx_id_++;

  const NeighborSoA& t = neighbors_of(sender);
  if (t.empty()) {
    // Nobody in range: no record, but the sender still needs its tx-done
    // edge at the end of the airtime.
    sched_->at(end, [sender] { sender->tx_done(); });
    return;
  }
  TxRecord* rec = acquire_record();
  rec->frame = frame;
  rec->frame.true_tx = sender->id();
  rec->end = end;
  rec->tx_id = tx_id;
  rec->sender = sender;
  // One sweep over the sender's SoA arrays: the receiver set lands in
  // rec->sensed in a single bulk copy, then each receiver's interference
  // sum and rx-start state are posted from the index-aligned arrays. The
  // per-receiver body (Phy::incoming_start) is header-inline, so this loop
  // compiles to one tight pass with no out-of-line call per receiver.
  const std::size_t n = t.rx.size();
  Phy* const* rxs = t.rx.data();
  const double* pw = t.power_w.data();
  const double* pdbm = t.power_dbm.data();
  const std::uint8_t* dec = t.decodable.data();
  // NOLINTNEXTLINE(hot-path-alloc): the pooled record's vector reuses its
  // capacity; it grows only until the fan-out high-water mark.
  rec->sensed.assign(rxs, rxs + n);
  for (std::size_t i = 0; i < n; ++i) {
    rxs[i]->incoming_start(*rec, pw[i], pdbm[i], dec[i] != 0, now);
  }
  sched_->at(end, [this, rec] { finish(rec); });
}

void Channel::finish(TxRecord* rec) {
  // Attach order is insertion order of the old per-receiver end-events, so
  // receivers observe the end of the frame in exactly the same sequence.
  for (Phy* rx : rec->sensed) rx->incoming_end(rec->tx_id);
  // The sender's tx-done used to be its own event scheduled immediately
  // after this one (same timestamp, next sequence number): nothing could
  // ever run between them, so folding it in here drops one scheduler
  // event per frame without reordering anything observable.
  rec->sender->tx_done();
  release_record(rec);
}

}  // namespace g80211
