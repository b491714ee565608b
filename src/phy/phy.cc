#include "src/phy/phy.h"

namespace g80211 {

// `rss_dbm` is the precomputed watts_to_dbm of the true received power;
// the sum below is the same operation (same bits) as converting here, the
// log10 has just been hoisted into the channel's link table.
double Phy::measured_rssi(double rss_dbm) {
  double noise = rng_.normal(0.0, rssi_noise_db);
  if (rng_.chance(rssi_outlier_prob)) {
    noise += rng_.normal(0.0, rssi_outlier_db);
  }
  return rss_dbm + noise;
}

void Phy::transmit(const Frame& frame, Time airtime) {
  CarrierState& s = carrier();
  G80211_DCHECK(!s.transmitting && "half-duplex PHY already transmitting");
  const bool was_busy = s.busy();
  // Half duplex: transmitting stomps any in-progress reception.
  s.demod_tx = 0;
  s.collided = false;
  s.transmitting = true;
  // No local Frame copy: the channel copies the frame into its TxRecord
  // anyway and stamps true_tx there, so copying here (plus the packet
  // refcount round-trip it implies) would be pure overhead.
  // The channel delivers tx_done() at the end of the airtime — folded into
  // its frame-end event (or a dedicated one when nobody is in range), so a
  // transmission costs one scheduler event, not two.
  channel_->transmit(this, frame, airtime);
  notify_edges(was_busy);
}

void Phy::tx_done() {
  carrier().transmitting = false;
  if (listener_) listener_->on_tx_end();
  // If nothing else is in the air, the medium just went idle for us.
  notify_edges(/*was_busy=*/true);
}

void Phy::finish_reception(const TxRecord& rec, bool collided) {
  const RxState& d = rx_state();
  const Frame& frame = rec.frame;
  const ErrorModel& em = channel_->error_model();
  // A fragment is only exposed for its own airtime, not the full MSDU's.
  const int pkt_bytes = frame.air_bytes();
  const bool bit_errors = rng_.chance(em.frame_error_prob(
      frame.true_tx, id_, frame.type, pkt_bytes, frame.rate_mbps));

  RxInfo info;
  info.rss_w = d.rss_w;
  info.start = rec.start;
  info.end = rec.end;
  info.collided = collided;
  info.corrupted = collided || bit_errors;
  // With a trivial error model the chance above drew nothing, so this
  // radio's Rng feeds only the measurements below. Where nothing reads
  // them the whole stream is dead: skipping it moves no other draw.
  if (em.trivial() &&
      (listener_ == nullptr || !listener_->reads_measurements())) {
    info.rssi_dbm = d.rss_dbm;
    info.measured = false;
  } else {
    ++channel_->measurements_drawn_;
    info.rssi_dbm = measured_rssi(d.rss_dbm);
    if (info.corrupted) {
      // ber/len are only needed on this (rare) corrupted path; both are
      // pure lookups, so deferring them here changes no RNG draw.
      const double ber = em.ber(frame.true_tx, id_);
      if (collided || ber <= 0.0) {
        // Collision- or rate-cliff-induced corruption: header survival is
        // governed by the overlap/fade geometry, not per-bit independence.
        info.addresses_intact = rng_.chance(em.collision_addr_intact_prob);
      } else {
        const int len = ErrorModel::error_len(frame.type, pkt_bytes);
        info.addresses_intact =
            rng_.chance(ErrorModel::addr_intact_given_corrupt(ber, len));
      }
    }
  }
  if (listener_) listener_->on_rx_end(frame, info);
}

}  // namespace g80211
