#include "src/capture/capture_tap.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "src/mac/durations.h"

namespace g80211 {

namespace {

// The fields a frame carries on air, plus the PHY rate and the DATA
// payload identity; the caller adds what only its side of the radio knows.
CapturedFrame to_captured(const WifiParams& params, const Frame& f, Time start,
                          Time end) {
  CapturedFrame r;
  r.start = start;
  r.end = end;
  r.type = f.type;
  r.ta = f.ta;
  r.ra = f.ra;
  r.true_tx = f.true_tx;
  r.duration = f.duration;
  r.seq = f.seq;
  r.frag = f.frag_index;
  r.more_frags = f.more_frags;
  r.retry = f.retry;
  r.bytes = on_air_bytes(params, f);
  r.rate_mbps = f.type == FrameType::kData
                    ? (f.rate_mbps > 0 ? f.rate_mbps : params.data_rate_mbps)
                    : params.basic_rate_mbps;
  if (f.type == FrameType::kData && f.packet) {
    r.flow_id = f.packet->flow_id;
    r.pkt_seq = f.packet->seq;
    r.pkt_uid = f.packet->uid;
    r.src_node = f.packet->src_node;
    r.dst_node = f.packet->dst_node;
    r.pkt_created = f.packet->created;
    r.probe = f.packet->is_probe;
    r.probe_reply = f.packet->probe_reply;
  }
  return r;
}

}  // namespace

void tap_frames(Mac& mac, FrameSink sink) {
  // Both sniffers feed the same sink; it lives as long as either does.
  auto shared = std::make_shared<FrameSink>(std::move(sink));
  const WifiParams params = mac.params();

  auto prev_rx = std::move(mac.sniffer);
  mac.sniffer = [shared, params, prev = std::move(prev_rx)](const Frame& f,
                                                            const RxInfo& i) {
    if (prev) prev(f, i);
    CapturedFrame r = to_captured(params, f, i.start, i.end);
    r.corrupted = i.corrupted;
    r.collided = i.collided;
    r.rssi_dbm = i.rssi_dbm;
    (*shared)(r);
  };

  auto prev_tx = std::move(mac.tx_sniffer);
  mac.tx_sniffer = [shared, params, self = mac.id(), prev = std::move(prev_tx)](
                       const Frame& f, Time start, Time end) {
    if (prev) prev(f, start, end);
    CapturedFrame r = to_captured(params, f, start, end);
    r.true_tx = self;
    r.tx = true;
    (*shared)(r);
  };
}

std::string trace_line(const CapturedFrame& f) {
  char buf[176];
  std::snprintf(buf, sizeof(buf),
                "%12.6fs %-4s ta=%-3d ra=%-3d dur=%8.1fus seq=%-5d%s%s%s%s",
                to_seconds(f.start), frame_type_name(f.type), f.ta, f.ra,
                to_micros(f.duration), f.seq, f.retry ? " retry" : "",
                f.more_frags ? " frag+" : (f.frag > 0 ? " frag." : ""),
                f.corrupted ? " CORRUPT" : "", f.collided ? " COLLISION" : "");
  return buf;
}

}  // namespace g80211
