#include "src/phy/channel.h"

#include <algorithm>
#include <cstring>

#include "src/phy/phy.h"

namespace g80211 {

void Channel::attach(Phy* phy) {
  phy->channel_index_ = phys_.size();
  phys_.push_back(phy);
  carrier_.emplace_back();
  rx_.emplace_back().self = phy->id();
  tables_.emplace_back();
  moved_at_.push_back(0);
  invalidate_topology();  // every sender's sensed set may now include `phy`
}

std::optional<LinkEntry> Channel::link(const Phy& sender, const Phy& rx) const {
  const double d = distance(sender.position(), rx.position());
  if (!sensed_at(d)) return std::nullopt;
  const double p = propagation_.rx_power_w(d);
  return LinkEntry{p, watts_to_dbm(p), decodable_at(d)};
}

void Channel::rebuild(NeighborSoA& soa, const Phy& sender) const {
  soa.clear();
  // Every other PHY within sensing range, in attach order: the fan-out
  // order that every event ordering and RNG draw downstream follows.
  for (std::size_t i = 0; i < phys_.size(); ++i) {
    if (phys_[i] == &sender) continue;
    if (const auto e = link(sender, *phys_[i])) {
      soa.add(static_cast<std::uint32_t>(i), *e);
    }
  }
}

void Channel::patch(NeighborSoA& soa, const Phy& sender, std::uint32_t r) const {
  // The table is sorted by attach index, so r's place is where it is or
  // would be.
  const auto at = std::lower_bound(soa.rx.begin(), soa.rx.end(), r);
  const auto k = static_cast<std::size_t>(at - soa.rx.begin());
  const bool listed = at != soa.rx.end() && *at == r;
  if (const auto e = link(sender, *phys_[r])) {
    if (listed) {
      soa.set(k, *e);
    } else {
      soa.insert(k, r, *e);
    }
  } else if (listed) {
    soa.erase(k);
  }
}

bool Channel::matches_rebuild(const NeighborSoA& soa, const Phy& sender) {
  rebuild(scratch_, sender);
  const auto same = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
  };
  return same(soa.rx, scratch_.rx) && same(soa.power_w, scratch_.power_w) &&
         same(soa.power_dbm, scratch_.power_dbm) &&
         same(soa.decodable, scratch_.decodable);
}

void Channel::note_move(std::size_t i) {
  G80211_ALLOC_OK(
      "the move log holds one entry per radio that ever moved: it grows to "
      "at most the radio count and stays");
  const auto r = static_cast<std::uint32_t>(i);
  if (moved_at_[i] != 0) {
    move_log_.erase(std::find(move_log_.begin(), move_log_.end(), r));
  }
  moved_at_[i] = ++moves_;
  move_log_.push_back(r);
}

const NeighborSoA& Channel::neighbors_of(Phy* sender) {
  const std::size_t s = sender->channel_index_;
  NeighborTable& t = tables_[s];
  const std::uint64_t prop_gen = propagation_.generation();
  const bool same_gens = t.topo_gen == topology_gen_ && t.prop_gen == prop_gen;
  if (same_gens && t.moves == moves_) return t.soa;
  if (!same_gens || moved_at_[s] > t.moves) {
    rebuild(t.soa, *sender);
    t.topo_gen = topology_gen_;
    t.prop_gen = prop_gen;
    ++tables_rebuilt_;
  } else {
    // The radios that moved since the table was last brought up to date:
    // the log's tail. The log lists each radio once, so a pass re-derives
    // at most the entries a rebuild would.
    std::size_t j = move_log_.size();
    while (j > 0 && moved_at_[move_log_[j - 1]] > t.moves) --j;
    links_patched_ += move_log_.size() - j;
    for (; j < move_log_.size(); ++j) patch(t.soa, *sender, move_log_[j]);
    G80211_DCHECK(matches_rebuild(t.soa, *sender) &&
                  "a patched link table differs from its rebuild");
  }
  t.moves = moves_;
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
  rec->rx.clear();
  rec->power_w.clear();
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
  rec->start = now;
  rec->end = end;
  rec->tx_id = tx_id;
  rec->sender = sender;
  const std::size_t n = t.size();
  const std::uint32_t* rxs = t.rx.data();
  const double* pw = t.power_w.data();
  const double* pdbm = t.power_dbm.data();
  const std::uint8_t* dec = t.decodable.data();
  // NOLINTNEXTLINE(hot-path-alloc): the pooled record's vectors reuse
  // their capacity; they grow only until the fan-out high-water mark.
  rec->rx.assign(rxs, rxs + n);
  // NOLINTNEXTLINE(hot-path-alloc): as above.
  rec->power_w.assign(pw, pw + n);
  receptions_sensed_ += n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = rxs[i];
    CarrierState& s = carrier_[r];
    const bool was_busy = s.busy();
    bool called = false;
    if (!s.transmitting) {
      if (s.demod_tx != 0) {
        Phy::overlap(s, rx_[r], tx_id, pw[i], pdbm[i], dec[i] != 0,
                     capture_threshold);
        called = true;
      } else if (dec[i] != 0) {
        Phy::begin_demod(s, rx_[r], tx_id, pw[i], pdbm[i], capture_threshold);
        called = true;
      }
    }
    s.interference_w += pw[i];
    ++s.sensed;
    if (!was_busy && s.wants_edges) {
      phys_[r]->listener_->on_channel_busy();
      called = true;
    }
    if (called) ++rx_callbacks_;
  }
  sched_->at(end, [this, rec] { finish(rec); });
}

void Channel::finish(TxRecord* rec) {
  // Attach order, as at the frame's start: each receiver's tail and idle
  // edge run right after its own update, before the next receiver's.
  const Time now = sched_->now();
  const Frame& frame = rec->frame;
  const std::size_t n = rec->rx.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t r = rec->rx[k];
    CarrierState& s = carrier_[r];
    G80211_DCHECK(s.sensed != 0);
    s.interference_w -= rec->power_w[k];
    if (--s.sensed == 0) s.interference_w = 0.0;
    bool called = false;
    if (s.demod_tx == rec->tx_id) {
      // A radio demodulating a frame is not transmitting: keying up
      // abandons the demodulation (Phy::transmit).
      const bool collided = s.collided;
      s.demod_tx = 0;
      s.collided = false;
      ++frames_demodulated_;
      RxState& x = rx_[r];
      // The skip (see transmit). trivial() is read per tail: a listener
      // may set a BER inside its own tail.
      if (x.skip_tail && frame.ra != x.self && frame.ra != kBroadcast &&
          error_model_.trivial()) {
        G80211_DCHECK(phys_[r]->listener_ != nullptr &&
                      phys_[r]->listener_->skips_overheard_tails() &&
                      "stale RxState::skip_tail");
        x.record(collided, /*overheard=*/true, now, frame.duration);
        ++tails_skipped_;
      } else {
        phys_[r]->finish_reception(*rec, collided);
        called = true;
      }
    }
    // Read after the tail, which may give the listener work (a MAC that
    // dequeues a frame there starts wanting edges) or take it away.
    const CarrierState& after = carrier_[r];
    if (!after.busy() && after.wants_edges) {
      phys_[r]->listener_->on_channel_idle();
      called = true;
    }
    if (called) ++rx_callbacks_;
  }
  // The sender's tx-done used to be its own event scheduled immediately
  // after this one (same timestamp, next sequence number): nothing could
  // ever run between them, so folding it in here drops one scheduler
  // event per frame without reordering anything observable.
  rec->sender->tx_done();
  release_record(rec);
}

}  // namespace g80211
