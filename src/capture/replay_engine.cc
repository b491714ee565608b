#include "src/capture/replay_engine.h"

#include <cmath>

namespace g80211 {

namespace {

// Rebuild the Frame/RxInfo pair the live hooks were handed. `frag_bytes`
// carries the payload share so Frame::air_bytes() reports the journalled
// on-air length (NavValidator sizes fragment bounds from it).
Frame to_frame(const CapturedFrame& r, const WifiParams& p) {
  Frame f;
  f.type = r.type;
  f.duration = r.duration;
  f.ra = r.ra;
  f.ta = r.ta;
  f.true_tx = r.true_tx;
  f.retry = r.retry;
  f.seq = r.seq;
  f.frag_index = r.frag;
  f.more_frags = r.more_frags;
  if (r.type == FrameType::kData && r.bytes > p.data_mac_overhead_bytes) {
    f.frag_bytes = r.bytes - p.data_mac_overhead_bytes;
  }
  return f;
}

RxInfo to_info(const CapturedFrame& r) {
  RxInfo i;
  i.rssi_dbm = r.rssi_dbm;
  i.corrupted = r.corrupted;
  i.collided = r.collided;
  i.start = r.start;
  i.end = r.end;
  return i;
}

}  // namespace

ReplayEngine::ReplayEngine(const WifiParams& params, int owner,
                           ReplayOptions opts)
    : params_(params),
      owner_(owner),
      opts_(opts),
      nav_(Clock(clock_src_), params_),
      spoof_(opts_.spoof_threshold_db),
      backoff_(Clock(clock_src_), params_, opts_.backoff_cfg) {
  nav_.tolerance = opts_.nav_tolerance;
  nav_.assume_fragmentation = opts_.assume_fragmentation;
}

ReplayEngine::FlowXLayer& ReplayEngine::xlayer(int flow_id) {
  auto it = xlayer_.find(flow_id);
  if (it == xlayer_.end()) {
    it = xlayer_.try_emplace(flow_id, opts_.cross_layer_threshold).first;
  }
  return it->second;
}

void ReplayEngine::step(const CapturedFrame& r) {
  // Medium reconstruction: the union of journalled frame spans. A record
  // starting strictly after everything heard so far means the medium went
  // idle at busy_until_ — replay that edge at its own time, before this
  // record's event advances the clock past it.
  if (have_busy_ && r.start > busy_until_) {
    clock_src_.advance_to(busy_until_);
    backoff_.on_edge(false);
  }
  if (!have_busy_ || r.end > busy_until_) busy_until_ = r.end;
  have_busy_ = true;

  // The detectors' clock: advanced (never rewound) to each record's live
  // callback time.
  clock_src_.advance_to(r.event_time());

  if (r.tx) {
    if (r.type != FrameType::kData) return;
    ++tx_attempts_[r.ra];
    if (r.retry) ++tx_retries_[r.ra];
    if (r.ra != kBroadcast) {
      // The live MAC enters WaitAck when the DATA transmission ends and
      // arms ack_timeout() from there.
      waiting_ = true;
      wait_dest_ = r.ra;
      wait_deadline_ = r.end + params_.ack_timeout();
      wait_flow_ = r.flow_id;
      wait_seq_ = r.pkt_seq;
      wait_probe_ = r.probe;
    }
    if (r.probe && !r.probe_reply) {
      // Retransmissions share the packet's creation time; record once.
      probes_[r.dst_node].created.emplace(r.pkt_seq, r.pkt_created);
    }
    if (!r.probe && r.flow_id > 0) {
      // A second transmission of the same segment under a fresh pkt_uid is
      // a TCP-level retransmission (MAC retries keep the uid). The journal
      // shows it at air time, after the original's MAC outcome — the same
      // order the live RTO fires in.
      FlowXLayer& fx = xlayer(r.flow_id);
      const auto [it, inserted] = fx.first_uid.emplace(r.pkt_seq, r.pkt_uid);
      if (!inserted && it->second != r.pkt_uid &&
          fx.counted_uids.insert(r.pkt_uid).second) {
        fx.det.on_tcp_retransmit(r.pkt_seq);
      }
    }
    return;
  }

  // --- reception: replay the live hook sequence ---------------------------

  const Frame frame = to_frame(r, params_);
  const RxInfo info = to_info(r);

  // 1. Sniffer chain: NAV exchange context, RSSI profile learning, backoff
  //    attribution. All see every reception; each applies its own
  //    corruption filter.
  nav_.observe(frame, info);
  if (opts_.spoof && !r.corrupted && r.ta != kNoAddr &&
      (r.type == FrameType::kRts || r.type == FrameType::kData)) {
    spoof_.monitor().add_sample(r.ta, r.rssi_dbm);
  }
  backoff_.on_frame(frame, info);

  if (r.corrupted) return;  // the live MAC stops at EIFS deference here

  // 2. nav_filter: frames not addressed to the vantage update its NAV.
  if (r.ra != owner_) nav_.validate(frame, info);

  // 3. ack_filter: ACKs addressed to the vantage inside the WaitAck
  //    window. Strict bound: an ACK landing exactly at the deadline lost
  //    the live tie-break to the timeout event.
  if (r.type == FrameType::kAck && r.ra == owner_ && waiting_ &&
      r.end < wait_deadline_) {
    ++acks_checked_;
    const bool ignore =
        opts_.spoof && spoof_.should_ignore(wait_dest_, r.rssi_dbm);
    const bool actually_spoofed = r.true_tx != wait_dest_;  // ground truth
    if (ignore) {
      ++(actually_spoofed ? spoof_tp_ : spoof_fp_);
    } else {
      ++(actually_spoofed ? spoof_fn_ : spoof_tn_);
    }
    if (ignore && opts_.spoof_recovery) {
      ++acks_ignored_;  // window stays open; the live MAC retransmitted
    } else {
      waiting_ = false;  // exchange completed
      // The live tx_done_cb fires with acked=true here: the segment that
      // opened this window was delivered at the MAC.
      if (wait_flow_ > 0 && !wait_probe_) {
        xlayer(wait_flow_).det.on_mac_acked(wait_seq_);
      }
    }
  }

  // 4. Upper-layer delivery: probe replies reaching the vantage. The
  //    earliest uncorrupted copy is the one MAC dedup let through.
  if (r.type == FrameType::kData && r.ra == owner_ && r.probe &&
      r.probe_reply) {
    auto& ledger = probes_[r.src_node];
    const auto it = ledger.reply_end.find(r.pkt_seq);
    if (it == ledger.reply_end.end() || r.end < it->second) {
      ledger.reply_end[r.pkt_seq] = r.end;
    }
  }
}

ReplayResult ReplayEngine::result(Time end_time) const {
  ReplayResult res;
  res.nav_validated = nav_.frames_validated();
  res.nav_detections = nav_.detections();
  res.nav_detections_by_node = nav_.detections_by_node();

  res.acks_checked = acks_checked_;
  res.acks_ignored = acks_ignored_;
  res.spoof_tp = spoof_tp_;
  res.spoof_fp = spoof_fp_;
  res.spoof_tn = spoof_tn_;
  res.spoof_fn = spoof_fn_;

  for (const auto& [dest, ledger] : probes_) {
    FakeAckVerdict v;
    v.dest = dest;
    v.probes_seen = static_cast<std::int64_t>(ledger.created.size());
    for (const auto& [seq, created] : ledger.created) {
      // Maturity fires when created + grace <= the horizon (the maturity
      // event runs before run_until() stops there); the reply must land
      // strictly earlier (it was scheduled later, so it loses the
      // equal-timestamp tie-break).
      if (created + opts_.fake_ack_grace > end_time) continue;
      ++v.matured;
      const auto it = ledger.reply_end.find(seq);
      if (it != ledger.reply_end.end() &&
          it->second < created + opts_.fake_ack_grace) {
        ++v.matured_replied;
      }
    }
    const auto at = tx_attempts_.find(dest);
    const std::int64_t attempts = at != tx_attempts_.end() ? at->second : 0;
    const auto rt = tx_retries_.find(dest);
    const std::int64_t retries = rt != tx_retries_.end() ? rt->second : 0;
    v.mac_loss = attempts == 0 ? 0.0
                               : static_cast<double>(retries) /
                                     static_cast<double>(attempts);
    v.application_loss =
        v.matured == 0 ? 0.0
                       : 1.0 - static_cast<double>(v.matured_replied) /
                                   static_cast<double>(v.matured);
    v.expected_app_loss = std::pow(v.mac_loss, params_.long_retry_limit + 1);
    v.detected = v.matured >= 20 &&
                 v.application_loss >
                     v.expected_app_loss + opts_.fake_ack_threshold;
    res.fake_ack.push_back(v);
  }

  for (const int s : backoff_.stations()) {
    BackoffVerdict v;
    v.station = s;
    v.ewma_slots = backoff_.observed_backoff(s);
    v.samples = backoff_.samples(s);
    v.tx_share = backoff_.tx_share(s);
    v.flagged = backoff_.flagged(s);
    res.backoff.push_back(v);
  }

  if (opts_.spoof) {
    const RssiMonitor& mon = spoof_.monitor();
    for (const int peer : mon.peers()) {
      RssiProfile pr;
      pr.peer = peer;
      pr.samples = static_cast<std::int64_t>(mon.samples(peer));
      pr.median_dbm = mon.median(peer).value_or(0.0);
      res.rssi.push_back(pr);
    }
  }

  for (const auto& [flow, fx] : xlayer_) {
    CrossLayerVerdict v;
    v.flow_id = flow;
    v.mac_acked = fx.det.mac_acked_segments();
    v.suspicious = fx.det.suspicious_retransmissions();
    v.detected = fx.det.detected();
    res.cross_layer.push_back(v);
  }

  return res;
}

}  // namespace g80211
