// Per-node half-duplex transceiver.
//
// Implements physical carrier sensing, reception with a symmetric capture
// rule, and BER-driven frame corruption. The radio's state lives in the
// channel's per-radio arrays, which the channel's fan-out passes update:
// its carrier state (the transmissions in the air here, their summed
// power, the tx_id being demodulated) in CarrierState, and the power of
// the frame it demodulates in RxState, beside its listener's NAV/EIFS
// record. The capture rule follows the paper's Section IV-B setup: of
// two overlapping frames, the one whose received signal strength exceeds
// the other's by the capture threshold is demodulated; otherwise both are
// lost (collision).
//
// RSSI: a delivered frame carries a measured RSSI (dBm) = true received
// power + Gaussian measurement noise + a rare heavy-tail outlier, matching
// the paper's testbed observation that ~95% of samples fall within 1 dB of
// the link median (Fig 21). Detection code sees only this measured value.
// The radio draws it only where something reads it. In a world whose
// error model can draw nothing (ErrorModel::trivial()), the frame-error
// chance draws nothing either, so a radio's Rng feeds only measurements;
// a radio with no listener, or whose listener reads none
// (PhyListener::reads_measurements()), then skips the RSSI and
// address-survival draws and delivers RxInfo::measured == false with the
// noiseless power. No other draw in the run moves. With bit errors, or at
// an observed radio, every reception draws as it always has.
//
// Hot-path layout: begin_demod/overlap are header-inline and static, so
// the channel's fan-out pass compiles into one tight loop per frame that
// touches only the channel's arrays; only the per-delivery tail (error
// model, the measurement draws where they are read, listener dispatch)
// stays out of line in finish_reception(). The channel skips even that
// for an overheard frame at a radio whose listener only records it (see
// Channel::transmit).
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/mac/frame.h"
#include "src/phy/channel.h"
#include "src/phy/propagation.h"
#include "src/sim/check.h"
#include "src/sim/hot.h"
#include "src/sim/rng.h"
#include "src/sim/scheduler.h"

namespace g80211 {

struct RxInfo {
  double rss_w = 0.0;        // true received power (watts)
  // Measured RSSI (noisy, what detectors see); the noiseless received
  // power when !measured.
  double rssi_dbm = 0.0;
  bool corrupted = false;    // bit errors or collision
  bool collided = false;     // corruption was due to overlap
  bool addresses_intact = true;  // meaningful when corrupted and measured
  // False when the radio skipped its measurement draws because nothing
  // read them (see the RSSI paragraph above): rssi_dbm carries no noise
  // and addresses_intact was not drawn.
  bool measured = true;
  Time start = 0;
  Time end = 0;
};

class PhyListener {
 public:
  virtual ~PhyListener() = default;
  // A frame finished arriving (possibly corrupted). Promiscuous: called for
  // every decodable frame regardless of addressing, except the overheard
  // frames that a listener lets the channel record (skips_overheard_tails).
  virtual void on_rx_end(const Frame& frame, const RxInfo& info) = 0;
  // Whether anything behind this listener reads a reception's
  // measurements (RxInfo::rssi_dbm, and addresses_intact on a corrupted
  // frame). Asked at every reception tail that runs; in a world whose
  // error model can draw nothing, false lets the radio skip those draws.
  // Default true, so a listener that does not answer keeps drawing.
  virtual bool reads_measurements() const { return true; }
  // Whether this listener does nothing with a frame addressed elsewhere
  // but RxState::record it. A listener that answers true may set its
  // radio's RxState::skip_tail, and must keep it equal to this answer;
  // checked builds compare the two at every skipped tail. Default false.
  virtual bool skips_overheard_tails() const { return false; }
  virtual void on_channel_busy() = 0;
  virtual void on_channel_idle() = 0;
  virtual void on_tx_end() = 0;
};

class Phy {
 public:
  Phy(Channel& channel, int node_id, Position pos, Rng rng)
      : channel_(&channel), id_(node_id), pos_(pos), rng_(rng) {
    channel.attach(this);
  }

  // Installing a listener turns edge interest on and tail skipping off.
  void set_listener(PhyListener* l) {
    listener_ = l;
    carrier().wants_edges = l != nullptr;
    rx_state().skip_tail = false;
  }
  // Whether the listener's on_channel_busy/on_channel_idle run. A listener
  // whose edge handlers are no-ops for a while may turn this off for that
  // while, and the channel then skips the calls; it must turn it back on
  // before an edge could do anything (the MAC does so whenever it has a
  // frame in service or a channel observer).
  void set_edge_interest(bool wants) {
    carrier().wants_edges = wants && listener_ != nullptr;
  }
  int id() const { return id_; }
  const Position& position() const { return pos_; }
  // Moving a node re-derives only its own links: each sender's table
  // patches this radio's entry on the sender's next transmit, and this
  // radio's own table is rebuilt on its next (Channel::neighbors_of). A
  // no-op move — a mobility tick with zero velocity — changes nothing.
  void set_position(Position p) {
    if (p.x == pos_.x && p.y == pos_.y) return;
    pos_ = p;
    channel_->note_move(channel_index_);
  }

  // Physical carrier sense (includes own transmission).
  bool carrier_busy() const { return carrier().busy(); }
  bool transmitting() const { return carrier().transmitting; }
  // This radio's channel entry: its listener keeps its NAV/EIFS record
  // and skip_tail bit there (see RxState). A reference into the channel's
  // array, so valid only until the next Phy attaches.
  RxState& rx_state() { return channel_->rx_[channel_index_]; }
  const RxState& rx_state() const { return channel_->rx_[channel_index_]; }

  // Standard deviation of RSSI measurement noise in dB, plus a small
  // probability of a multipath outlier drawn with a wider deviation.
  double rssi_noise_db = 0.4;
  double rssi_outlier_prob = 0.02;
  double rssi_outlier_db = 2.5;

  // Begin transmitting; the PHY must not already be transmitting. Any
  // in-progress reception is aborted (half duplex). Hot root
  // (src/sim/hot.h): every frame passes through here.
  G80211_HOT void transmit(const Frame& frame, Time airtime);

 private:
  CarrierState& carrier() { return channel_->carrier_[channel_index_]; }
  const CarrierState& carrier() const {
    return channel_->carrier_[channel_index_];
  }

  // Channel-facing reception path, called from the channel's start pass
  // on a receiver's entries before the frame's power joins
  // s.interference_w. `rss_dbm` must equal watts_to_dbm(rss_w); the
  // channel's link table precomputes it so the RSSI path pays no log10
  // per frame. `cap` is the channel's capture threshold.
  //
  // A decodable frame reached this radio while it was neither transmitting
  // nor demodulating: demodulate it, lost from the start unless it beats
  // the power already in the air by the capture threshold.
  G80211_HOT static void begin_demod(CarrierState& s, RxState& d,
                                     std::uint64_t tx_id, double rss_w,
                                     double rss_dbm, double cap) {
    const double interference = s.interference_w;
    s.demod_tx = tx_id;
    s.collided =
        interference > 0.0 && (cap <= 0.0 || rss_w < cap * interference);
    d.rss_w = rss_w;
    d.rss_dbm = rss_dbm;
  }
  // A frame started while this radio demodulates another: the capture rule.
  G80211_HOT static void overlap(CarrierState& s, RxState& d,
                                 std::uint64_t tx_id, double rss_w,
                                 double rss_dbm, bool decodable, double cap) {
    if (cap > 0.0 && d.rss_w >= cap * rss_w) {
      // Current frame powers through; newcomer is just interference.
    } else if (cap > 0.0 && decodable && rss_w >= cap * d.rss_w) {
      // Newcomer captures the receiver; the old frame is lost.
      s.demod_tx = tx_id;
      s.collided = false;
      d.rss_w = rss_w;
      d.rss_dbm = rss_dbm;
    } else {
      s.collided = true;
    }
  }

  void tx_done();
  // Edges of this radio's own transmission (the channel's passes deliver
  // the edges of received frames).
  void notify_edges(bool was_busy) {
    const CarrierState& s = carrier();
    if (!s.wants_edges) return;
    const bool busy = s.busy();
    if (!was_busy && busy) listener_->on_channel_busy();
    if (was_busy && !busy) listener_->on_channel_idle();
  }
  double measured_rssi(double rss_dbm);

  // Delivery tail for `rec`, the frame this PHY was demodulating: frame
  // error model, RSSI measurement (where read), listener dispatch. Out of
  // line — it runs once per demodulated frame that the channel does not
  // skip, not once per (frame, receiver). Hot root (src/sim/hot.h).
  G80211_HOT void finish_reception(const TxRecord& rec, bool collided);

  Channel* channel_;
  int id_;
  std::size_t channel_index_ = 0;  // attach index; set by Channel::attach
  Position pos_;
  Rng rng_;
  PhyListener* listener_ = nullptr;

  friend class Channel;
};

}  // namespace g80211
