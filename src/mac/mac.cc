#include "src/mac/mac.h"

#include <algorithm>
#include <utility>

namespace g80211 {

Mac::Mac(Scheduler& sched, Phy& phy, const WifiParams& params, Rng rng)
    : sched_(&sched),
      phy_(&phy),
      params_(params),
      rng_(rng),
      backoff_(params.cw_min, params.cw_max),
      defer_timer_(sched, [this] { on_defer_done(); }),
      backoff_timer_(sched, [this] { on_backoff_expired(); }),
      nav_timer_(sched, [this] { reevaluate(); }),
      nav_reset_timer_(sched,
                       [this] {
                         // 9.2.5.4: the RTS-reserved exchange never
                         // happened; release the NAV.
                         if (!phy_->carrier_busy()) {
                           phy_->rx_state().nav.reset();
                           reevaluate();
                         }
                       }),
      timeout_timer_(sched, [this] {
        if (tx_state_ == TxState::kWaitCts) {
          on_cts_timeout();
        } else if (tx_state_ == TxState::kWaitAck) {
          on_ack_timeout();
        }
      }),
      response_timer_(sched, [this] { fire_response(); }) {
  phy.set_listener(this);
  update_interest();
}

void Mac::set_nav_rts_reset(bool enabled) {
  nav_rts_reset_ = enabled;
  if (!enabled) nav_reset_timer_.cancel();
  update_interest();
}

void Mac::set_channel_observer(std::function<void(bool)> observer) {
  channel_observer_ = std::move(observer);
  update_interest();
}

bool Mac::medium_busy() const {
  return phy_->carrier_busy() || nav().busy(sched_->now());
}

Time Mac::adjusted_duration(FrameType type, Time duration) {
  if (greedy_) duration = greedy_->adjust_duration(type, duration, rng_);
  return std::clamp<Time>(duration, 0, WifiParams::kMaxNav);
}

bool Mac::clamp_cw_for_current() const {
  const auto it = overrides_.find(current_dest_);
  return it != overrides_.end() && it->second.clamp_cw;
}

int Mac::draw_backoff() {
  const int slots = backoff_.draw(rng_);
  if (backoff_cheat_ < 1.0 && backoff_cheat_ >= 0.0) {
    return static_cast<int>(static_cast<double>(slots) * backoff_cheat_);
  }
  return slots;
}

const Mac::DestCounters& Mac::dest_counters(int dest) const {
  static const DestCounters kEmpty;
  const auto it = dest_counters_.find(dest);
  return it != dest_counters_.end() ? it->second : kEmpty;
}

void Mac::enable_auto_rate(double start_rate_mbps, bool adaptive) {
  auto_rate_ = true;
  auto_rate_adaptive_ = adaptive;
  const auto ladder = params_.rate_ladder();
  const double target =
      start_rate_mbps > 0 ? start_rate_mbps : params_.data_rate_mbps;
  auto_rate_start_index_ = 0;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i] <= target) auto_rate_start_index_ = static_cast<int>(i);
  }
}

ArfRateController& Mac::controller_for(int dest) {
  auto it = rate_ctrl_.find(dest);
  if (it == rate_ctrl_.end()) {
    it = rate_ctrl_
             // NOLINTNEXTLINE(hot-path-alloc): first contact per peer; the
             // steady state takes the find() above.
             .emplace(dest,
                      ArfRateController(params_.rate_ladder(),
                                        auto_rate_start_index_,
                                        /*up_threshold=*/10,
                                        /*down_threshold=*/2,
                                        auto_rate_adaptive_))
             .first;
  }
  return it->second;
}

double Mac::data_rate_to(int dest) const {
  if (!auto_rate_) return params_.data_rate_mbps;
  const auto it = rate_ctrl_.find(dest);
  return it != rate_ctrl_.end()
             ? it->second.rate_mbps()
             : params_.rate_ladder()[static_cast<std::size_t>(
                   auto_rate_start_index_)];
}

MacStats Mac::stats() const {
  MacStats s = stats_;
  s.queue_drops = queue_.drops();
  const RxState& rx = phy_->rx_state();
  s.rx_corrupted = rx.rx_corrupted;
  s.nav_updates = rx.nav_updates;
  return s;
}

const ArfRateController* Mac::rate_controller(int dest) const {
  const auto it = rate_ctrl_.find(dest);
  return it != rate_ctrl_.end() ? &it->second : nullptr;
}

// ---------------------------------------------------------------------------
// Channel access
// ---------------------------------------------------------------------------

void Mac::send(PacketPtr packet, int dest_mac) {
  if (!queue_.push(std::move(packet), dest_mac)) return;  // a queue drop
  if (!current_) {
    start_service();
    reevaluate();
  }
}

void Mac::start_service() {
  current_.reset();
  current_dest_ = kNoAddr;
  short_retries_ = 0;
  long_retries_ = 0;
  current_is_retry_ = false;
  frag_sizes_.clear();
  frag_idx_ = 0;
  if (queue_.empty()) {
    update_interest();
    return;
  }
  auto [pkt, dest] = queue_.pop();
  current_ = std::move(pkt);
  update_interest();
  current_dest_ = dest;
  ++mac_seq_;
  if (frag_threshold_ > 0 && current_->size_bytes > frag_threshold_ &&
      current_dest_ != kBroadcast) {
    int remaining = current_->size_bytes;
    while (remaining > 0) {
      const int chunk = std::min(remaining, frag_threshold_);
      // NOLINTNEXTLINE(hot-path-alloc): cleared per service, so capacity
      // stops at the per-packet fragment high-water mark.
      frag_sizes_.push_back(chunk);
      remaining -= chunk;
    }
  } else {
    // NOLINTNEXTLINE(hot-path-alloc): capacity >= 1 after the first service
    frag_sizes_.push_back(current_->size_bytes);
  }
  backoff_slots_ = draw_backoff();
}

// DATA frame for the fragment currently being served.
Frame Mac::build_data_frame() const {
  Frame f;
  f.type = FrameType::kData;
  f.ra = current_dest_;
  f.ta = id();
  f.seq = mac_seq_;
  f.retry = current_is_retry_;
  f.frag_index = frag_idx_;
  f.more_frags = frag_idx_ + 1 < static_cast<int>(frag_sizes_.size());
  f.frag_bytes = frag_sizes_[static_cast<std::size_t>(frag_idx_)];
  f.packet = current_;
  f.rate_mbps = data_rate_to(current_dest_);
  return f;
}

// Duration field of the current fragment: a final fragment reserves only
// its ACK; a non-final one reserves through the next fragment's ACK.
Time Mac::current_data_duration() const {
  if (current_dest_ == kBroadcast) return 0;  // nothing follows a broadcast
  const bool more = frag_idx_ + 1 < static_cast<int>(frag_sizes_.size());
  if (!more) return Durations::data(params_);
  const int next_bytes = frag_sizes_[static_cast<std::size_t>(frag_idx_) + 1];
  const Time next_air =
      params_.data_tx_time_at(next_bytes, data_rate_to(current_dest_));
  return 3 * params_.sifs + 2 * params_.ack_tx_time() + next_air;
}

void Mac::reevaluate() {
  // Nothing to serve: every branch below is a no-op (the busy branch's
  // cancel/pause act on timers that only run while current_ is set — see
  // on_channel_busy — and the idle branch starts contention only for a
  // queued frame). Returning before medium_busy() skips a NAV probe per
  // idle edge on every bystander of a hotspot exchange.
  if (current_ == nullptr) return;
  if (medium_busy() || on_air_ != TxKind::kNone) {
    defer_timer_.cancel();
    pause_backoff();
    // A station that acquired work after its NAV was set skipped the
    // expiry wakeup at update time (sinks don't arm it — see on_rx_end).
    // Arm it now so contention resumes at exactly the expiry the eager
    // arm would have used. Carrier-busy periods need no wakeup: the idle
    // edge re-enters reevaluate() and arms it then if the NAV still runs.
    // Active stations keep their timer restarted at every NAV extension,
    // so a pending wakeup is never earlier than the work requires.
    if (current_ != nullptr && !phy_->carrier_busy() &&
        nav().busy(sched_->now()) && !nav_timer_.pending()) {
      nav_timer_.start_at(nav().expiry());
    }
    return;
  }
  if (!current_ || tx_state_ != TxState::kIdle || pending_response_.has_value() ||
      backoff_running_ || defer_timer_.pending()) {
    return;
  }
  defer_timer_.start(phy_->rx_state().eifs ? params_.eifs() : params_.difs);
}

void Mac::on_defer_done() {
  phy_->rx_state().eifs = false;
  if (medium_busy() || tx_state_ != TxState::kIdle || !current_) return;
  if (backoff_slots_ <= 0) {
    transmit_current();
    return;
  }
  backoff_running_ = true;
  backoff_started_ = sched_->now();
  backoff_timer_.start(static_cast<Time>(backoff_slots_) * params_.slot);
}

void Mac::pause_backoff() {
  if (!backoff_running_) return;
  const Time elapsed = sched_->now() - backoff_started_;
  const int consumed = static_cast<int>(elapsed / params_.slot);
  const int remaining = backoff_slots_ - consumed;
  backoff_running_ = false;
  if (remaining <= 0) {
    // The countdown completed in this very instant; the decision to
    // transmit was already made (stations need a slot to sense a carrier),
    // so let the pending timer fire and collide if it must.
    backoff_slots_ = 0;
    return;
  }
  backoff_slots_ = remaining;
  backoff_timer_.cancel();
}

void Mac::on_backoff_expired() {
  backoff_running_ = false;
  backoff_slots_ = 0;
  transmit_current();
}

// Single exit onto the air: notify the transmit tap, then key the PHY.
// Every transmission (initial access and SIFS responses alike) goes
// through here so a capture sees exactly what the radio emitted.
void Mac::transmit_frame(const Frame& frame, Time airtime) {
  if (tx_sniffer) tx_sniffer(frame, sched_->now(), sched_->now() + airtime);
  phy_->transmit(frame, airtime);
}

void Mac::transmit_current() {
  if (!current_ || phy_->transmitting()) return;
  // Broadcast frames use basic access: no RTS/CTS, no ACK.
  if (use_rts_cts_ && current_dest_ != kBroadcast) {
    send_rts();
  } else {
    send_data();
  }
}

void Mac::send_rts() {
  Frame f;
  f.type = FrameType::kRts;
  f.ra = current_dest_;
  f.ta = id();
  // An RTS reserves through the first (or current) fragment's ACK only;
  // fragment Durations chain the reservation onward.
  const int bytes = frag_sizes_.empty()
                        ? current_->size_bytes
                        : frag_sizes_[static_cast<std::size_t>(frag_idx_)];
  f.duration = adjusted_duration(
      FrameType::kRts,
      Durations::rts(params_, bytes,
                     auto_rate_ ? data_rate_to(current_dest_) : 0.0));
  f.uid = next_frame_uid_++;
  ++stats_.rts_sent;
  on_air_ = TxKind::kRts;
  transmit_frame(f, params_.rts_tx_time());
}

void Mac::send_data() {
  Frame f = build_data_frame();
  f.duration = adjusted_duration(FrameType::kData, current_data_duration());
  f.uid = next_frame_uid_++;
  ++stats_.data_sent;
  // NOLINTNEXTLINE(hot-path-alloc): first contact per destination
  auto& dc = dest_counters_[current_dest_];
  ++dc.attempts;
  if (f.retry) {
    ++stats_.data_retries;
    ++dc.retries;
  }
  on_air_ = TxKind::kData;
  transmit_frame(f, params_.data_tx_time_at(f.air_bytes(), f.rate_mbps));
}

void Mac::on_tx_end() {
  const TxKind kind = on_air_;
  on_air_ = TxKind::kNone;
  switch (kind) {
    case TxKind::kRts:
      tx_state_ = TxState::kWaitCts;
      timeout_timer_.start(params_.cts_timeout());
      break;
    case TxKind::kData:
      if (current_ && current_dest_ == kBroadcast) {
        // Broadcasts are unacknowledged: done as soon as they are sent.
        finish_success();
        break;
      }
      tx_state_ = TxState::kWaitAck;
      timeout_timer_.start(params_.ack_timeout());
      break;
    default:
      break;  // responses need no follow-up
  }
  // The idle-edge notification that follows (if the medium is now free)
  // drives reevaluate().
}

// ---------------------------------------------------------------------------
// Responses (SIFS-spaced; per the standard these do not carrier-sense)
// ---------------------------------------------------------------------------

void Mac::schedule_response(Frame response, TxKind kind) {
  if (pending_response_.has_value()) return;  // one response in flight at a time
  pending_response_ = std::move(response);
  pending_response_kind_ = kind;
  response_timer_.start(params_.sifs);
}

void Mac::fire_response() {
  if (!pending_response_.has_value()) return;
  Frame f = *pending_response_;
  const TxKind kind = pending_response_kind_;
  pending_response_.reset();
  pending_response_kind_ = TxKind::kNone;
  if (phy_->transmitting()) return;  // pathological overlap; drop the response

  f.uid = next_frame_uid_++;
  Time airtime = 0;
  switch (f.type) {
    case FrameType::kCts:
      airtime = params_.cts_tx_time();
      ++stats_.cts_sent;
      break;
    case FrameType::kAck:
      airtime = params_.ack_tx_time();
      if (kind == TxKind::kSpoofAck) {
        ++stats_.spoofed_acks_sent;
      } else if (kind == TxKind::kFakeAck) {
        ++stats_.fake_acks_sent;
      } else {
        ++stats_.acks_sent;
      }
      break;
    case FrameType::kData: {
      const int bytes = f.air_bytes();
      airtime = f.rate_mbps > 0 ? params_.data_tx_time_at(bytes, f.rate_mbps)
                                : params_.data_tx_time(bytes);
      ++stats_.data_sent;
      // NOLINTNEXTLINE(hot-path-alloc): first contact per destination
      auto& dc = dest_counters_[f.ra];
      ++dc.attempts;
      if (f.retry) {
        ++stats_.data_retries;
        ++dc.retries;
      }
      break;
    }
    case FrameType::kRts:
      airtime = params_.rts_tx_time();
      break;
  }
  on_air_ = kind;
  transmit_frame(f, airtime);
}

// ---------------------------------------------------------------------------
// Timeouts and completion
// ---------------------------------------------------------------------------

void Mac::on_cts_timeout() {
  tx_state_ = TxState::kIdle;
  ++stats_.cts_timeouts;
  ++short_retries_;
  if (short_retries_ > params_.short_retry_limit) {
    finish_drop();
    return;
  }
  backoff_.fail(clamp_cw_for_current());
  backoff_slots_ = draw_backoff();
  reevaluate();
}

void Mac::on_ack_timeout() {
  tx_state_ = TxState::kIdle;
  ++stats_.ack_timeouts;
  if (auto_rate_) controller_for(current_dest_).on_failure();
  const auto it = overrides_.find(current_dest_);
  if (it != overrides_.end() && it->second.disable_retx) {
    // Testbed emulation of a spoofed ACK (paper Table VIII): the sender
    // believes the frame was delivered and moves on without backing off.
    const PacketPtr pkt = current_;
    backoff_.reset();
    if (tx_done_cb) tx_done_cb(pkt, false);
    start_service();
    reevaluate();
    return;
  }
  ++long_retries_;
  if (long_retries_ > params_.long_retry_limit) {
    finish_drop();
    return;
  }
  backoff_.fail(clamp_cw_for_current());
  current_is_retry_ = true;
  backoff_slots_ = draw_backoff();
  reevaluate();
}

void Mac::finish_success() {
  ++stats_.data_success;
  // NOLINTNEXTLINE(hot-path-alloc): first contact per destination
  ++dest_counters_[current_dest_].successes;
  if (auto_rate_) controller_for(current_dest_).on_success();
  const PacketPtr pkt = current_;
  backoff_.reset();
  if (tx_done_cb) tx_done_cb(pkt, true);
  start_service();
  reevaluate();
}

void Mac::finish_drop() {
  ++stats_.data_dropped;
  // NOLINTNEXTLINE(hot-path-alloc): first contact per destination
  ++dest_counters_[current_dest_].drops;
  const PacketPtr pkt = current_;
  backoff_.reset();
  if (tx_done_cb) tx_done_cb(pkt, false);
  start_service();
  reevaluate();
}

// ---------------------------------------------------------------------------
// Reception
// ---------------------------------------------------------------------------

void Mac::on_rx_end(const Frame& frame, const RxInfo& info) {
  if (sniffer) sniffer(frame, info);

  // The record every reception makes (RxState::record): EIFS after an
  // unintelligible frame, and virtual carrier sense from an intact one
  // not addressed to this station, possibly through the GRC validator.
  // The channel makes it alone for the tails it skips.
  const bool overheard = frame.ra != id();
  const Time duration = !info.corrupted && overheard && nav_filter
                            ? nav_filter(frame, info)
                            : frame.duration;
  const bool nav_moved =
      phy_->rx_state().record(info.corrupted, overheard, sched_->now(), duration);

  if (info.corrupted) {
    if (frame.type == FrameType::kData && info.addresses_intact && greedy_) {
      if (frame.ra == id() && greedy_->fake_ack_for(frame, info, rng_)) {
        Frame ack;
        ack.type = FrameType::kAck;
        ack.ra = frame.ta;
        ack.duration = adjusted_duration(FrameType::kAck, Durations::ack());
        schedule_response(ack, TxKind::kFakeAck);
      } else if (frame.ra != id() && greedy_->spoof_ack_for(frame, info, rng_)) {
        Frame ack;
        ack.type = FrameType::kAck;
        ack.ra = frame.ta;
        ack.duration = adjusted_duration(FrameType::kAck, Durations::ack());
        schedule_response(ack, TxKind::kSpoofAck);
      }
    }
  // No reevaluate() here: on_rx_end runs inside the channel's end pass
  // (Channel::finish), after the frame left the air and before this
  // radio's idle edge. If the medium is now idle, the idle edge that
  // immediately follows re-enters reevaluate() with no scheduler activity
  // in between (any defer it starts gets the very seq a call here would
  // have produced); if it is still busy, the busy branch's work was
  // already done on the busy edge.
    return;
  }

  if (overheard) {
    if (nav_moved) {
      // The expiry wakeup exists so a station with a frame to contend for
      // re-enters reevaluate() the instant virtual carrier sense releases.
      // A pure sink (nothing queued — the common case for every bystander
      // of a hotspot exchange) would wake up only to return immediately,
      // so skip the timer churn entirely; if it acquires work while the
      // NAV runs, reevaluate()'s busy branch arms the same wakeup at the
      // same expiry (see below), keeping the defer timing bit-identical.
      if (current_ != nullptr) {
        nav_timer_.start_at(nav().expiry());
      }
      if (nav_rts_reset_ && frame.type == FrameType::kRts) {
        nav_reset_timer_.start(2 * params_.sifs + params_.cts_tx_time() +
                               2 * params_.slot);
      } else {
        nav_reset_timer_.cancel();  // a live exchange continued
      }
    } else if (nav_rts_reset_) {
      nav_reset_timer_.cancel();
    }
  }

  switch (frame.type) {
    case FrameType::kRts:
      handle_rx_rts(frame);
      break;
    case FrameType::kCts:
      handle_rx_cts(frame);
      break;
    case FrameType::kData:
      handle_rx_data(frame, info);
      break;
    case FrameType::kAck:
      handle_rx_ack(frame, info);
      break;
  }
  // No reevaluate() here: on_rx_end runs inside the channel's end pass
  // (Channel::finish), after the frame left the air and before this
  // radio's idle edge. If the medium is now idle, the idle edge that
  // immediately follows re-enters reevaluate() with no scheduler activity
  // in between (any defer it starts gets the very seq a call here would
  // have produced); if it is still busy, the busy branch's work was
  // already done on the busy edge.
}

void Mac::handle_rx_rts(const Frame& frame) {
  if (frame.ra != id()) return;
  // Per the standard a station responds to an RTS only if its NAV is idle —
  // the rule an inflated NAV exploits to mute receivers (paper Fig 10).
  if (nav().busy(sched_->now())) {
    ++stats_.cts_suppressed_by_nav;
    return;
  }
  Frame cts;
  cts.type = FrameType::kCts;
  cts.ra = frame.ta;
  cts.duration = adjusted_duration(FrameType::kCts,
                                   Durations::cts_from_rts(params_, frame.duration));
  schedule_response(cts, TxKind::kCts);
}

void Mac::handle_rx_cts(const Frame& frame) {
  if (frame.ra != id() || tx_state_ != TxState::kWaitCts) return;
  timeout_timer_.cancel();
  tx_state_ = TxState::kIdle;
  short_retries_ = 0;
  // DATA follows SIFS after the CTS.
  Frame data = build_data_frame();
  data.duration = adjusted_duration(FrameType::kData, current_data_duration());
  schedule_response(data, TxKind::kData);
}

void Mac::handle_rx_data(const Frame& frame, const RxInfo& info) {
  if (frame.ra == kBroadcast) {
    // Broadcast reception: no ACK, dedup by (ta, seq) as usual.
    if (dedup_.is_duplicate(frame.ta, frame.seq, frame.retry)) {
      ++stats_.rx_data_dup;
      return;
    }
    ++stats_.rx_data_ok;
    if (upper_ && frame.packet) upper_->on_packet(frame.packet, info);
    return;
  }
  if (frame.ra == id()) {
    Frame ack;
    ack.type = FrameType::kAck;
    ack.ra = frame.ta;
    // A non-final fragment's ACK carries the reservation onward (the data
    // Duration minus this ACK and its SIFS); final ACKs carry 0.
    const Time ack_dur =
        frame.more_frags
            ? std::max<Time>(frame.duration - params_.sifs - params_.ack_tx_time(), 0)
            : Durations::ack();
    ack.duration = adjusted_duration(FrameType::kAck, ack_dur);
    schedule_response(ack, TxKind::kAck);
    if (dedup_.is_duplicate(frame.ta, frame.seq, frame.retry, frame.frag_index)) {
      ++stats_.rx_data_dup;
      return;
    }
    ++stats_.rx_data_ok;
    if (!frame.more_frags && frame.frag_index == 0) {
      // Unfragmented MSDU: deliver immediately.
      if (upper_ && frame.packet) upper_->on_packet(frame.packet, info);
      return;
    }
    // Fragment: reassemble per (ta, seq); one MSDU in flight per sender.
    const auto key = std::make_pair(frame.ta, frame.seq);
    for (auto it = reassembly_.begin(); it != reassembly_.end();) {
      if (it->first.first == frame.ta && it->first != key) {
        it = reassembly_.erase(it);  // stale, superseded burst
      } else {
        ++it;
      }
    }
    // NOLINTNEXTLINE(hot-path-alloc): fragmentation path only — node churn
    // is bounded by concurrently active reassemblies, and the paper's
    // scenarios run with fragmentation off (frag_threshold == 0).
    auto& r = reassembly_[key];
    r.got.insert(frame.frag_index);
    if (!frame.more_frags) r.total = frame.frag_index + 1;
    if (r.total > 0 && static_cast<int>(r.got.size()) == r.total) {
      reassembly_.erase(key);
      if (upper_ && frame.packet) upper_->on_packet(frame.packet, info);
    }
    return;
  }
  // Promiscuous sniff of someone else's DATA: the ACK-spoofing hook.
  if (greedy_ && greedy_->spoof_ack_for(frame, info, rng_)) {
    Frame ack;
    ack.type = FrameType::kAck;
    ack.ra = frame.ta;
    ack.duration = adjusted_duration(FrameType::kAck, Durations::ack());
    schedule_response(ack, TxKind::kSpoofAck);
  }
}

void Mac::handle_rx_ack(const Frame& frame, const RxInfo& info) {
  if (frame.ra != id() || tx_state_ != TxState::kWaitAck) return;
  if (ack_filter && ack_filter(frame, info, current_dest_)) {
    ++stats_.acks_ignored;
    return;  // the pending timeout will trigger the retransmission
  }
  timeout_timer_.cancel();
  tx_state_ = TxState::kIdle;
  if (frag_idx_ + 1 < static_cast<int>(frag_sizes_.size())) {
    // Fragment acknowledged: continue the burst SIFS later. Retry state is
    // per fragment.
    if (auto_rate_) controller_for(current_dest_).on_success();
    ++frag_idx_;
    long_retries_ = 0;
    current_is_retry_ = false;
    Frame next = build_data_frame();
    next.duration = adjusted_duration(FrameType::kData, current_data_duration());
    schedule_response(next, TxKind::kData);
    return;
  }
  finish_success();
}

void Mac::on_channel_busy() {
  if (channel_observer_) channel_observer_(true);
  // Invariant: the defer timer and backoff only ever run on behalf of a
  // frame being served (both start sites are guarded by current_, and
  // current_ is never cleared while either is pending — contention stops
  // before tx_state_ leaves kIdle). A station with nothing to send
  // therefore has nothing to cancel or pause; skip the dead-handle checks
  // that would otherwise run per busy edge on every bystander.
  if (current_ == nullptr) return;
  defer_timer_.cancel();
  pause_backoff();
}

void Mac::on_channel_idle() {
  if (channel_observer_) channel_observer_(false);
  reevaluate();
}

}  // namespace g80211
