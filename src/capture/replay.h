// Offline GRC detection over a recorded capture (deterministic replay).
//
// Feeds a parsed JSONL capture through the same detector code a live run
// uses — NavValidator for inflated NAVs, SpoofDetector/RssiMonitor for
// spoofed ACKs, and a reconstruction of the fake-ACK probe bookkeeping —
// without instantiating a simulation. The capture is a journal of the MAC
// events at the vantage station in the order the live MAC saw them (own
// transmissions as they start, receptions as they end), so replay is a
// single in-order walk that advances a private Scheduler clock to each
// event and re-issues exactly the calls the live hooks made:
//
//   * sniffer chain  -> NavValidator::observe + RSSI profile learning,
//     for every reception (corrupted included, as live);
//   * nav_filter     -> NavValidator::validate, for every uncorrupted
//     reception not addressed to the vantage;
//   * ack_filter     -> SpoofDetector::should_ignore, for every
//     uncorrupted ACK addressed to the vantage that lands inside a
//     WaitAck window. Windows are reconstructed from the vantage's own
//     DATA transmissions: [tx end, tx end + ack_timeout), closed by the
//     first accepted ACK. The bound is strict (<) because at equal
//     timestamps the live ACK-timeout event fires before the ACK's
//     reception event (scheduler FIFO tie-break: the timeout was
//     scheduled first).
//
// The fake-ACK verdict re-derives the live detector's counters from the
// journal: a probe matures when `created + grace <= capture end`, a reply
// counts only when it lands strictly before maturity (same tie-break
// argument), and MAC loss is the retry fraction over the vantage's own
// DATA transmissions toward the destination — the identical estimator
// Mac::dest_counters feeds live.
//
// Guarantee (capture_test's equivalence suite): for a capture recorded at
// the station that ran the live detectors, replay reproduces the live
// detection counts exactly — same flagged stations, same counts. Known
// limitation: probes that were queued but never transmitted before the
// capture horizon are invisible to the journal, so the probes-seen count
// can trail the live probes-sent count at saturation (matured/replied
// bookkeeping, which drives the verdict, is unaffected for every probe
// that did reach the air).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/capture/capture.h"
#include "src/detect/backoff_monitor.h"
#include "src/sim/time.h"

namespace g80211 {

struct ReplayOptions {
  // NAV validation (paper Section VII-A).
  Time nav_tolerance = microseconds(2);
  bool assume_fragmentation = false;

  // Spoofed-ACK detection (Section VII-B).
  bool spoof = true;
  double spoof_threshold_db = 1.0;
  // Mirrors SpoofDetector::recovery_enabled: when true an ignored ACK
  // leaves the WaitAck window open (the live MAC kept waiting and
  // retransmitted); when false a flagged ACK still closes the exchange.
  bool spoof_recovery = true;

  // Fake-ACK detection (Section VII-C).
  double fake_ack_threshold = 0.05;
  Time fake_ack_grace = seconds(1);

  // DOMINO-style backoff monitoring (the sender-side baseline). The medium
  // busy/idle edges the live channel_observer fed are reconstructed as the
  // union of the journalled frame spans; this is exact whenever colliding
  // frames share start and length (capture-invisible losers), the regime
  // the equivalence tests pin down.
  BackoffMonitor::Config backoff_cfg;

  // Cross-layer TCP/MAC correlation (Section VII-B, last paragraph). A TCP
  // retransmission shows up in the journal as a second DATA transmission
  // with the same (flow, pkt_seq) but a fresh pkt_uid (MAC retries keep the
  // uid); a MAC-acknowledged segment is one whose WaitAck window closed on
  // an accepted ACK.
  std::int64_t cross_layer_threshold = 5;
};

// Offline analog of FakeAckDetector's verdict toward one destination.
struct FakeAckVerdict {
  int dest = kNoAddr;
  std::int64_t probes_seen = 0;      // distinct probes that reached the air
  std::int64_t matured = 0;          // past the reply grace at capture end
  std::int64_t matured_replied = 0;  // replied strictly before maturing
  double mac_loss = 0.0;             // retry fraction toward dest
  double application_loss = 0.0;     // 1 - matured_replied/matured
  double expected_app_loss = 0.0;    // mac_loss^(long_retry_limit+1)
  bool detected = false;             // matured >= 20 and app > expected + thr

  bool operator==(const FakeAckVerdict&) const = default;
};

// Offline analog of BackoffMonitor's per-station judgement.
struct BackoffVerdict {
  int station = kNoAddr;
  double ewma_slots = -1.0;   // smoothed observed backoff, in slots
  std::int64_t samples = 0;   // attributed transmissions
  double tx_share = 0.0;      // fraction of all attributed transmissions
  bool flagged = false;

  bool operator==(const BackoffVerdict&) const = default;
};

// Offline analog of RssiMonitor's learned per-peer profile.
struct RssiProfile {
  int peer = kNoAddr;
  std::int64_t samples = 0;
  double median_dbm = 0.0;

  bool operator==(const RssiProfile&) const = default;
};

// Offline analog of CrossLayerDetector's per-flow verdict.
struct CrossLayerVerdict {
  int flow_id = 0;
  std::int64_t mac_acked = 0;   // distinct segments the MAC saw ACKed
  std::int64_t suspicious = 0;  // TCP retransmissions of MAC-acked segments
  bool detected = false;

  bool operator==(const CrossLayerVerdict&) const = default;
};

struct ReplayResult {
  // NAV validation at the vantage.
  std::int64_t nav_validated = 0;
  std::int64_t nav_detections = 0;
  std::map<int, std::int64_t> nav_detections_by_node;  // ground truth

  // Spoofed-ACK classification at the vantage.
  std::int64_t acks_checked = 0;
  std::int64_t acks_ignored = 0;
  std::int64_t spoof_tp = 0, spoof_fp = 0, spoof_tn = 0, spoof_fn = 0;
  std::int64_t spoof_flagged() const { return spoof_tp + spoof_fp; }

  std::vector<FakeAckVerdict> fake_ack;       // one per probed destination
  std::vector<BackoffVerdict> backoff;        // one per attributed station
  std::vector<RssiProfile> rssi;              // one per profiled peer
  std::vector<CrossLayerVerdict> cross_layer; // one per observed DATA flow

  bool operator==(const ReplayResult&) const = default;
};

// Replay `cap` through the offline detectors. Requires a JSONL-parsed
// capture (cap.has_params): the pcap format deliberately drops the exact
// ticks and ground truth the detectors' evaluation needs. Throws
// std::runtime_error otherwise.
ReplayResult replay_capture(const Capture& cap, const ReplayOptions& opts = {});

}  // namespace g80211
