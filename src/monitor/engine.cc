#include "src/monitor/engine.h"

#include "src/sim/check.h"

namespace g80211 {

const char* alert_kind_name(Alert::Kind kind) {
  switch (kind) {
    case Alert::Kind::kNavInflation: return "nav-inflation";
    case Alert::Kind::kAckSpoof: return "ack-spoof";
    case Alert::Kind::kBackoffCheat: return "backoff-cheat";
    case Alert::Kind::kFakeAck: return "fake-ack";
    case Alert::Kind::kCrossLayer: return "cross-layer";
  }
  return "unknown";
}

StreamMonitor::StreamMonitor(const WifiParams& params, int owner,
                             MonitorConfig cfg)
    : cfg_(cfg), engine_(params, owner, cfg.replay) {
  G80211_CHECK(cfg_.window > 0);
}

void StreamMonitor::step(const CapturedFrame& r) {
  G80211_DCHECK(!finalized_);
  const Time et = r.event_time();
  if (window_start_ == kNever) {
    window_start_ = (et / cfg_.window) * cfg_.window;
  }
  while (et >= window_start_ + cfg_.window) {
    if (window_frames_ > 0) {
      close_window(window_start_ + cfg_.window);
      window_start_ += cfg_.window;
    } else {
      // Quiet gap: skip straight to the window containing this record
      // instead of closing empty windows one by one.
      window_start_ = (et / cfg_.window) * cfg_.window;
    }
  }
  engine_.step(r);
  ++frames_;
  ++window_frames_;
}

void StreamMonitor::process(const FrameBatch& batch) {
  for (const CapturedFrame& f : batch.frames) step(f);
}

void StreamMonitor::finalize(Time end_time) {
  if (finalized_) return;
  finalized_ = true;
  if (window_frames_ > 0) {
    close_window(end_time);
  } else {
    // No trailing partial window, but the horizon itself can flip verdicts
    // (fake-ACK probes mature against it) — run the final alert scan.
    scan_alerts(end_time, engine_.result(end_time));
  }
}

void StreamMonitor::close_window(Time edge) {
  const ReplayResult res = engine_.result(edge);

  WindowRecord w;
  w.start = window_start_;
  w.end = edge;
  w.frames = window_frames_;
  w.nav_detections = res.nav_detections;
  w.spoof_flagged = res.spoof_flagged();
  w.acks_ignored = res.acks_ignored;
  for (const BackoffVerdict& v : res.backoff) {
    if (v.flagged) w.backoff_cheaters.push_back(v.station);
  }
  for (const FakeAckVerdict& v : res.fake_ack) {
    if (v.detected) w.fake_ack_detected.push_back(v.dest);
  }
  for (const CrossLayerVerdict& v : res.cross_layer) {
    if (v.detected) w.cross_layer_detected.push_back(v.flow_id);
  }
  windows_.push_back(std::move(w));
  window_frames_ = 0;

  scan_alerts(edge, res);
}

void StreamMonitor::scan_alerts(Time at, const ReplayResult& res) {
  for (const auto& [node, n] : res.nav_detections_by_node) {
    if (n > 0 && alerted_nav_.insert(node).second) {
      alerts_.push_back({Alert::Kind::kNavInflation, at, node, n});
    }
  }
  if (!alerted_spoof_ && res.spoof_flagged() > 0) {
    alerted_spoof_ = true;
    alerts_.push_back(
        {Alert::Kind::kAckSpoof, at, engine_.owner(), res.spoof_flagged()});
  }
  for (const BackoffVerdict& v : res.backoff) {
    if (v.flagged && alerted_backoff_.insert(v.station).second) {
      alerts_.push_back({Alert::Kind::kBackoffCheat, at, v.station, v.samples});
    }
  }
  for (const FakeAckVerdict& v : res.fake_ack) {
    if (v.detected && alerted_fake_.insert(v.dest).second) {
      alerts_.push_back({Alert::Kind::kFakeAck, at, v.dest, v.matured});
    }
  }
  for (const CrossLayerVerdict& v : res.cross_layer) {
    if (v.detected && alerted_xlayer_.insert(v.flow_id).second) {
      alerts_.push_back({Alert::Kind::kCrossLayer, at, v.flow_id, v.suspicious});
    }
  }
}

std::vector<WindowRecord> StreamMonitor::drain_windows() {
  std::vector<WindowRecord> out;
  out.swap(windows_);
  return out;
}

std::vector<Alert> StreamMonitor::drain_alerts() {
  std::vector<Alert> out;
  out.swap(alerts_);
  return out;
}

}  // namespace g80211
