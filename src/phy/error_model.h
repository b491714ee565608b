// Frame error model.
//
// The paper injects "random loss of bit-error-rate (BER)" in ns-2, and its
// Table III lists the resulting frame error rates. Those FERs fit
// FER = 1 - (1 - BER)^L exactly with effective error lengths
//   L(ACK/CTS) = 38, L(RTS) = 44, L(data frame) = packet + 72
// (packet = payload + 40 B IP/transport headers; e.g. TCP DATA = 1136,
// TCP ACK = 112). We adopt those constants so Table III — and every
// BER-parameterised experiment — reproduces on the paper's own scale.
//
// Per-link overrides support the paper's asymmetric-loss experiments
// ("inject random loss to only one flow").
//
// Storage is built for the per-reception hot path: link overrides live in
// dense node-indexed matrices (node ids are small sequential integers), so
// ber() and rate_excess_fer() are one array read instead of a std::map
// find, and frame_error_prob() memoises fer(ber, len) per link and frame
// length, so the std::pow is paid once per (link, length) instead of once
// per reception. Ids outside the dense block (>= kMaxDenseId, or negative)
// fall back to an overflow map — correct, just not O(1). All caches are
// invalidated by the BER/rate-limit setters; there is no staleness window.
//
// The header-corruption study (Table I) is separate: it uses a true
// per-bit model over the 802.11 frame layout to show that corrupted frames
// usually preserve src/dst MAC addresses.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "src/mac/frame.h"
#include "src/sim/rng.h"

namespace g80211 {

class ErrorModel {
 public:
  // Effective error length (see header comment).
  static int error_len(FrameType type, int packet_bytes);
  // FER = 1 - (1-ber)^len.
  static double fer(double ber, int len);
  // BER required for a target FER at length `len` (inverse of fer()).
  static double ber_for_fer(double target_fer, int len);

  void set_default_ber(double ber);
  // Loss on the directed link tx -> rx only.
  void set_link_ber(int tx, int rx, double ber);
  double ber(int tx, int rx) const {
    if (in_dense(tx) && in_dense(rx)) {
      const double v = link_ber_[dense_index(tx, rx)];
      if (!std::isnan(v)) return v;
    } else if (has_overflow_) {
      const auto it = overflow_ber_.find({tx, rx});
      if (it != overflow_ber_.end()) return it->second;
    }
    return default_ber_;
  }

  // Rate-dependent channel quality (auto-rate substrate): DATA frames sent
  // above the link's highest "good" PHY rate are corrupted with
  // `excess_fer` instead of the BER-derived probability — the cliff a rate
  // controller must find. Unset links support every rate.
  void set_link_rate_limit(int tx, int rx, double max_good_rate_mbps,
                           double excess_fer = 0.9);
  // FER contribution of sending at `rate_mbps` on this link (0 if allowed).
  double rate_excess_fer(int tx, int rx, double rate_mbps) const {
    if (rate_mbps <= 0.0 || !has_rate_limit_) return 0.0;
    if (in_dense(tx) && in_dense(rx)) {
      // Unset links hold the +infinity sentinel: no rate exceeds them.
      const RateLimit& rl = rate_limit_[dense_index(tx, rx)];
      return rate_mbps > rl.max_good_rate_mbps ? rl.excess_fer : 0.0;
    }
    if (has_overflow_) {
      const auto it = overflow_rate_.find({tx, rx});
      if (it != overflow_rate_.end()) {
        return rate_mbps > it->second.max_good_rate_mbps ? it->second.excess_fer
                                                         : 0.0;
      }
    }
    return 0.0;
  }

  // Probability that a frame on link tx->rx with packet payload
  // `packet_bytes` arrives corrupted. `rate_mbps` only matters for DATA
  // frames on rate-limited links (0 = default rate, always allowed).
  double frame_error_prob(int tx, int rx, FrameType type, int packet_bytes,
                          double rate_mbps = 0.0) const {
    // All-zero fast path: with every BER at 0 and no rate limits the full
    // computation is exactly fer(0, len) = 1 - pow(1, len) = 0.0 and the
    // compose step 1 - (1-0)(1-0) = 0.0 — bit-identical to returning 0.0.
    // This is the loss-free configuration most scenarios (and the hotspot
    // benchmarks) run in, so it skips the memo scan per reception.
    if (trivial_) return 0.0;
    return frame_error_prob_slow(tx, rx, type, packet_bytes, rate_mbps);
  }

  // True while frame_error_prob is identically 0.0 (see trivial_). A
  // reception then draws no frame-error chance, so a radio's Rng feeds
  // only the measurements that Phy::finish_reception skips where nothing
  // reads them. It never re-arms. A BER or rate limit set after a radio's
  // first reception meets that radio's stream at another point than in a
  // world built with it (samples of the same distribution); every caller
  // sets them at build time.
  bool trivial() const { return trivial_; }

  // Given that a frame was corrupted by bit errors, the probability its
  // 12 address bytes are all intact:
  //   P(addr ok | >=1 error) = ((1-ber)^12 - (1-ber)^L) / (1 - (1-ber)^L).
  static double addr_intact_given_corrupt(double ber, int len);

  // Corrupted-by-collision frames: fraction with decodable addresses
  // (header often precedes the interferer's arrival). Default matches the
  // paper's measured 84-95% range.
  double collision_addr_intact_prob = 0.9;

  // --- Table I: Monte-Carlo header corruption study -----------------------
  struct CorruptionBreakdown {
    std::int64_t received = 0;
    std::int64_t corrupted = 0;
    std::int64_t corrupted_correct_dest = 0;
    std::int64_t corrupted_correct_src_dest = 0;
  };
  // Transmit `n_frames` frames of `frame_bytes` through a true per-bit BER
  // channel; classify corrupted frames by whether the destination bytes
  // (offsets 4-9) and source bytes (offsets 10-15) survived.
  static CorruptionBreakdown corruption_study(Rng& rng, double bit_ber,
                                              int frame_bytes,
                                              std::int64_t n_frames);

  // Node ids at or above this (or negative) take the overflow-map path.
  // Sim assigns sequential ids from 0, so in practice everything is dense.
  static constexpr int kMaxDenseId = 1024;

 private:
  struct RateLimit {
    // +infinity = no limit configured (so an explicit limit of 0 — "every
    // rate is bad" — stays representable, exactly as with the old map).
    double max_good_rate_mbps = std::numeric_limits<double>::infinity();
    double excess_fer = 0.9;
  };
  // Per-link memo of fer(ber(link), len): a handful of frame lengths per
  // link (RTS, CTS/ACK, the flow's DATA sizes), scanned linearly.
  struct FerMemo {
    std::vector<std::pair<int, double>> by_len;
  };

  bool in_dense(int id) const {
    return static_cast<unsigned>(id) < static_cast<unsigned>(stride_);
  }
  std::size_t dense_index(int tx, int rx) const {
    return static_cast<std::size_t>(tx) * static_cast<std::size_t>(stride_) +
           static_cast<std::size_t>(rx);
  }
  // Grow the dense matrices to cover node id `id` (re-striding preserves
  // existing entries). No-op for overflow ids.
  void ensure_dense(int id);
  // Drop every memoised FER (BER landscape changed).
  void invalidate_memos();
  double cached_fer(int tx, int rx, int len) const;
  double frame_error_prob_slow(int tx, int rx, FrameType type,
                               int packet_bytes, double rate_mbps) const;

  double default_ber_ = 0.0;
  int stride_ = 0;  // dense matrices are stride_ x stride_
  std::vector<double> link_ber_;      // NaN = no override on that link
  std::vector<RateLimit> rate_limit_;
  mutable std::vector<FerMemo> fer_memo_;  // per dense link
  mutable FerMemo default_memo_;  // shared by links outside the dense block
  bool has_rate_limit_ = false;
  bool has_overflow_ = false;
  // True while no setter has ever introduced a nonzero BER or any rate
  // limit, i.e. frame_error_prob is identically 0.0. Conservative: once
  // cleared it stays cleared (re-zeroing a BER keeps the slow path, which
  // computes the same 0.0 — correctness never depends on re-arming it).
  bool trivial_ = true;
  std::map<std::pair<int, int>, double> overflow_ber_;
  std::map<std::pair<int, int>, RateLimit> overflow_rate_;
};

}  // namespace g80211
