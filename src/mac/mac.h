// IEEE 802.11 DCF MAC.
//
// Implements, at the same abstraction level as ns-2's mac-802_11:
//   * physical + virtual (NAV) carrier sensing,
//   * DIFS/EIFS deference and slot-granular binary-exponential backoff with
//     freeze/resume (a fresh backoff is drawn for every packet service and
//     after every failed attempt, matching the paper's analytical model of
//     saturated senders),
//   * optional RTS/CTS with CTS/ACK timeouts and per-exchange Duration
//     fields,
//   * retransmission with short/long retry limits and receiver-side
//     duplicate detection,
//   * SIFS responses (CTS only when the NAV is idle — the rule NAV
//     inflation exploits in the shared-sender scenarios; ACK always),
//   * promiscuous delivery of every decodable frame to the greedy-policy
//     and detection hooks.
//
// Misbehavior is injected exclusively through a GreedyPolicy (see
// src/greedy/policy.h). Detection/mitigation attaches through two hooks:
// `nav_filter` may rewrite the Duration used for a NAV update (GRC NAV
// validation) and `ack_filter` may reject a received ACK (GRC spoofed-ACK
// recovery). Two per-destination emulation knobs mirror the paper's
// testbed emulations: disable_retransmissions_to() (Table VIII) and
// clamp_cw_to() (Table IX).
//
// The record every reception makes (the NAV, the EIFS flag and their
// rx_corrupted/nav_updates counts) lives in the radio's channel entry,
// RxState (src/phy/channel.h), and is made by RxState::record. While the
// MAC is idle and unobserved (skips_overheard_tails()), the channel makes
// it alone for a frame addressed elsewhere and on_rx_end does not run.
//
// Collision fidelity: backoff countdowns are slot-aligned, and a countdown
// that reaches zero in the same instant another station starts transmitting
// still fires (stations need a slot to sense a transmission), so two
// stations whose counters expire together collide — the behaviour the
// paper's Eq. (1)/(2) model assumes.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/greedy/policy.h"
#include "src/mac/backoff.h"
#include "src/mac/dedup.h"
#include "src/mac/durations.h"
#include "src/mac/frame.h"
#include "src/mac/mac_stats.h"
#include "src/mac/rate_control.h"
#include "src/net/queue.h"
#include "src/phy/nav.h"
#include "src/phy/phy.h"
#include "src/sim/hot.h"
#include "src/sim/scheduler.h"

namespace g80211 {

class MacUpper {
 public:
  virtual ~MacUpper() = default;
  // A non-duplicate, uncorrupted DATA packet addressed to this station.
  virtual void on_packet(const PacketPtr& packet, const RxInfo& info) = 0;
  // Whether on_packet reads the RxInfo's measurements (see
  // PhyListener::reads_measurements). Default true.
  virtual bool reads_measurements() const { return true; }
};

class Mac : public PhyListener {
 public:
  // A std::function-like hook that the MAC watches: assigning to it, or
  // moving from it, re-evaluates what the MAC's radio may skip
  // (update_interest), so a hook attached mid-run sees the very next
  // frame. A copy of a hook, or one move-constructed from it, is a plain
  // callable detached from the MAC.
  template <typename Sig>
  class Hook;
  template <typename R, typename... Args>
  class Hook<R(Args...)> {
   public:
    explicit Hook(Mac* owner) : owner_(owner) {}
    Hook(const Hook& other) : fn_(other.fn_) {}
    Hook(Hook&& other) : fn_(std::move(other.fn_)) { other.clear(); }
    Hook& operator=(const Hook& other) {
      fn_ = other.fn_;
      changed();
      return *this;
    }
    Hook& operator=(Hook&& other) {
      if (&other == this) return *this;
      fn_ = std::move(other.fn_);
      other.clear();
      changed();
      return *this;
    }
    // Any callable (or nullptr) a std::function<R(Args...)> takes.
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Hook> &&
                  std::is_assignable_v<std::function<R(Args...)>&, F&&>>>
    Hook& operator=(F&& fn) {
      fn_ = std::forward<F>(fn);
      changed();
      return *this;
    }
    explicit operator bool() const { return static_cast<bool>(fn_); }
    R operator()(Args... args) const { return fn_(std::forward<Args>(args)...); }

   private:
    void clear() {
      fn_ = nullptr;
      changed();
    }
    void changed() {
      if (owner_ != nullptr) owner_->update_interest();
    }
    std::function<R(Args...)> fn_;
    Mac* owner_ = nullptr;  // null: detached
  };

  Mac(Scheduler& sched, Phy& phy, const WifiParams& params, Rng rng);

  int id() const { return phy_->id(); }
  const WifiParams& params() const { return params_; }

  // --- configuration ------------------------------------------------------
  // The upper layer, if it reads measurements (MacUpper), and a greedy
  // policy (see nav_filter below) keep the radio's tails from skipping.
  void set_upper(MacUpper* upper) {
    upper_ = upper;
    update_interest();
  }
  void set_greedy_policy(GreedyPolicy* policy) {
    greedy_ = policy;
    update_interest();
  }
  void set_rts_cts(bool enabled) { use_rts_cts_ = enabled; }
  bool rts_cts() const { return use_rts_cts_; }
  // Ablation knob: disable the EIFS deference after corrupted receptions
  // (stations then use plain DIFS, as if unable to tell garbage from noise).
  void set_eifs_enabled(bool enabled) {
    phy_->rx_state().eifs_enabled = enabled;
  }

  // IEEE 802.11 9.2.5.4 NAV-reset rule: a station that set its NAV from an
  // RTS may reset it if no PHY activity follows within
  // 2*SIFS + T_CTS + 2*slot (the reserved exchange evidently died).
  // Off by default: ns-2's MAC — the paper's substrate — does not
  // implement it, and the calibration follows ns-2. Turning it off
  // cancels a pending reset, so the NAV then runs its full term.
  void set_nav_rts_reset(bool enabled);

  // Fragmentation: MSDUs larger than the threshold are transmitted as a
  // burst of SIFS-separated, individually acknowledged fragments. The
  // Duration of a non-final fragment (and of its ACK) reserves the medium
  // through the next fragment — the one case where a legitimate ACK
  // carries a nonzero NAV (see NavValidator::assume_fragmentation).
  // 0 disables fragmentation (the paper's configuration).
  void set_fragmentation_threshold(int bytes) { frag_threshold_ = bytes; }

  // Sender-side misbehavior (Kyasanur & Vaidya; the DOMINO family's
  // target): draw backoff from [0, cw * fraction] instead of [0, cw].
  // 1.0 = honest. Used as the baseline greedy-sender attack the DOMINO
  // detector in src/detect/backoff_monitor.h catches.
  void set_backoff_cheat(double fraction) { backoff_cheat_ = fraction; }

  // Observation tap for channel busy/idle edges (true = became busy);
  // chain it by wrapping the current one, as with `sniffer`. Backoff
  // monitoring (DOMINO) uses it to measure how long stations actually
  // waited before transmitting. A setter, because an observer makes every
  // edge matter to this MAC (see update_interest).
  void set_channel_observer(std::function<void(bool)> observer);
  const std::function<void(bool)>& channel_observer() const {
    return channel_observer_;
  }

  // Auto-rate adaptation (ARF, or AARF when `adaptive`) on DATA frames,
  // per destination. Without it every DATA frame uses the standard's fixed
  // default rate (the paper's main configuration). `start_rate_mbps` <= 0
  // starts at the ladder rung closest to the default rate.
  void enable_auto_rate(double start_rate_mbps = 0.0, bool adaptive = false);
  bool auto_rate() const { return auto_rate_; }
  // Current DATA rate toward `dest` (default rate when auto-rate is off).
  double data_rate_to(int dest) const;
  // Controller stats for a destination (nullptr if none exists yet).
  const ArfRateController* rate_controller(int dest) const;

  // GRC hooks. nav_filter: given an overheard frame, return the Duration to
  // use for the NAV update (identity when detection is off). ack_filter:
  // return true to IGNORE the ACK (treat as not received -> retransmit).
  //
  // These two, `sniffer` and a greedy policy are the MAC's measurement
  // readers: while one is set, the radio draws RSSI noise (and address
  // survival) for every frame it demodulates, and runs every reception
  // tail; while none is, a loss-free world skips those draws
  // (reads_measurements()) and, while the MAC is idle, the tails of frames
  // addressed elsewhere (skips_overheard_tails()). Each is a Hook, so one
  // attached mid-run sees the very next frame. Its samples then come from
  // a stream that skipped the unread draws: the same distribution, but
  // not the samples a build-time attach would see, so attach before the
  // first reception for those.
  Hook<Time(const Frame&, const RxInfo&)> nav_filter{this};
  Hook<bool(const Frame&, const RxInfo&, int expected_peer)> ack_filter{this};
  // Observation tap: every decodable frame this station hears (including
  // its own ACKs' triggers); used by detectors that learn RSSI profiles.
  // A measurement reader (see above): attach before the first reception.
  Hook<void(const Frame&, const RxInfo&)> sniffer{this};
  // Transmit-side tap: every frame this station keys onto the air, with its
  // transmission start/end times. Chained like `sniffer`. Together the two
  // taps give a capture the complete frame stream at this vantage point
  // (the capture subsystem records both; see src/capture/).
  std::function<void(const Frame&, Time start, Time end)> tx_sniffer;
  // Sender-side completion tap: (packet, mac_acked).
  std::function<void(const PacketPtr&, bool)> tx_done_cb;

  // Testbed-emulation knobs (paper Section VI).
  void disable_retransmissions_to(int dest) { overrides_[dest].disable_retx = true; }
  void clamp_cw_to(int dest) { overrides_[dest].clamp_cw = true; }

  // --- upper-layer API ----------------------------------------------------
  // Enqueue a packet for transmission to MAC address `dest_mac`.
  void send(PacketPtr packet, int dest_mac);
  std::size_t queue_size() const { return queue_.size(); }
  // The interface queue, for sources that sleep on it while it is full
  // (CbrSource::feed). Packets enter through send().
  DropTailQueue& queue() { return queue_; }

  // Association handoff support: drop every queued (not yet serviced)
  // packet addressed to `dest_mac`. A frame already under service —
  // mid-backoff or awaiting its ACK — completes or exhausts its retries
  // normally; aborting a live exchange would strand the peers' NAV and
  // timeout bookkeeping mid-protocol. Returns the number of packets
  // dropped (not counted in queue drop stats, which mean congestion).
  std::size_t abort_queued_to(int dest_mac) {
    return queue_.erase_dest(dest_mac);
  }

  // --- stats --------------------------------------------------------------
  // A snapshot. queue_drops is the interface queue's drops(), which counts
  // the ticks of sources asleep on it up to now; rx_corrupted and
  // nav_updates are the radio's RxState counts, which the channel also
  // keeps for the tails it skips.
  MacStats stats() const;
  const Backoff& backoff() const { return backoff_; }
  // The NAV lives in the radio's RxState, with the EIFS flag.
  const Nav& nav() const { return phy_->rx_state().nav; }

  // Per-destination transmission accounting (the fake-ACK detector compares
  // per-receiver MAC loss against probed application loss).
  struct DestCounters {
    std::int64_t attempts = 0;  // DATA transmissions incl. retries
    std::int64_t retries = 0;
    std::int64_t successes = 0;
    std::int64_t drops = 0;
    double retry_fraction() const {
      return attempts == 0 ? 0.0
                           : static_cast<double>(retries) / static_cast<double>(attempts);
    }
  };
  const DestCounters& dest_counters(int dest) const;

  // --- PhyListener --------------------------------------------------------
  // Hot roots (src/sim/hot.h): the MAC state machine's entry points fire
  // once per frame edge on the steady-state packet path.
  G80211_HOT void on_rx_end(const Frame& frame, const RxInfo& info) override;
  G80211_HOT void on_channel_busy() override;
  G80211_HOT void on_channel_idle() override;
  G80211_HOT void on_tx_end() override;
  // True while a sniffer, ack_filter, nav_filter or greedy policy is set,
  // or the upper layer reads measurements.
  bool reads_measurements() const override {
    return sniffer || ack_filter || nav_filter || greedy_ != nullptr ||
           (upper_ != nullptr && upper_->reads_measurements());
  }
  // True while no frame is in service, nothing reads measurements and the
  // NAV-reset rule is off: a frame addressed elsewhere then changes
  // nothing here but the RxState record (on_rx_end). Cached in
  // RxState::skip_tail by update_interest().
  bool skips_overheard_tails() const override {
    return current_ == nullptr && !reads_measurements() && !nav_rts_reset_;
  }

 private:
  enum class TxState { kIdle, kWaitCts, kWaitAck };
  enum class TxKind { kNone, kRts, kData, kCts, kAck, kSpoofAck, kFakeAck };

  struct DestOverride {
    bool disable_retx = false;
    bool clamp_cw = false;
  };

  bool medium_busy() const;
  // What the radio may skip. Busy/idle edges change nothing here unless a
  // frame is in service or an observer watches them (on_channel_busy and
  // reevaluate return at once otherwise), so the PHY is told to skip them
  // in between; and an overheard frame's tail while
  // skips_overheard_tails(). Called wherever current_, the observer, a
  // hook, the greedy policy, the upper layer or the NAV-reset rule
  // changes.
  void update_interest() {
    phy_->set_edge_interest(current_ != nullptr || channel_observer_ != nullptr);
    phy_->rx_state().skip_tail = skips_overheard_tails();
  }
  // Hot roots (src/sim/hot.h): timer-slab callbacks enter here.
  G80211_HOT void reevaluate();  // (re)start deference if access is wanted
  G80211_HOT void on_defer_done();
  void pause_backoff();
  G80211_HOT void on_backoff_expired();
  void start_service();        // dequeue next packet, draw backoff
  void transmit_frame(const Frame& frame, Time airtime);  // tx tap + PHY
  void transmit_current();
  void send_rts();
  void send_data();
  void schedule_response(Frame response, TxKind kind);
  G80211_HOT void fire_response();
  G80211_HOT void on_cts_timeout();
  G80211_HOT void on_ack_timeout();
  void finish_success();
  void finish_drop();
  void handle_rx_rts(const Frame& frame);
  void handle_rx_cts(const Frame& frame);
  void handle_rx_data(const Frame& frame, const RxInfo& info);
  void handle_rx_ack(const Frame& frame, const RxInfo& info);
  Time adjusted_duration(FrameType type, Time duration);
  bool clamp_cw_for_current() const;
  int draw_backoff();

  Scheduler* sched_;
  Phy* phy_;
  WifiParams params_;
  Rng rng_;
  MacUpper* upper_ = nullptr;
  GreedyPolicy* greedy_ = nullptr;

  bool use_rts_cts_ = true;
  DropTailQueue queue_;
  std::map<int, DestOverride> overrides_;
  bool auto_rate_ = false;
  bool auto_rate_adaptive_ = false;
  int auto_rate_start_index_ = 0;
  std::map<int, ArfRateController> rate_ctrl_;
  ArfRateController& controller_for(int dest);
  double backoff_cheat_ = 1.0;

  // Current packet under service.
  PacketPtr current_;
  int current_dest_ = kNoAddr;
  int short_retries_ = 0;
  int long_retries_ = 0;
  int mac_seq_ = 0;          // sequence number of the current DATA frame
  bool current_is_retry_ = false;
  // Fragmentation state for the packet under service.
  int frag_threshold_ = 0;          // 0: fragmentation off
  std::vector<int> frag_sizes_;     // byte share of each fragment
  int frag_idx_ = 0;
  Frame build_data_frame() const;   // DATA frame for the current fragment
  Time current_data_duration() const;
  // Receiver-side reassembly: (ta, seq) -> fragments received.
  struct Reassembly {
    std::set<int> got;
    int total = -1;  // known once the final fragment arrives
  };
  std::map<std::pair<int, int>, Reassembly> reassembly_;

  // Channel access state.
  Backoff backoff_;
  int backoff_slots_ = 0;      // remaining slots (valid when !backoff_running_)
  bool backoff_running_ = false;
  Time backoff_started_ = 0;   // when the running countdown began
  bool nav_rts_reset_ = false;
  Timer defer_timer_;
  Timer backoff_timer_;
  Timer nav_timer_;
  Timer nav_reset_timer_;

  // Exchange state.
  TxState tx_state_ = TxState::kIdle;
  TxKind on_air_ = TxKind::kNone;
  Timer timeout_timer_;
  Timer response_timer_;
  std::optional<Frame> pending_response_;
  TxKind pending_response_kind_ = TxKind::kNone;

  std::function<void(bool)> channel_observer_;

  DedupCache dedup_;
  MacStats stats_;
  std::map<int, DestCounters> dest_counters_;
  std::uint64_t next_frame_uid_ = 1;
};

}  // namespace g80211
