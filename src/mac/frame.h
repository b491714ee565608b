// 802.11 MAC frames as exchanged over the simulated channel.
//
// Field note: real CTS and ACK frames carry only a Receiver Address — no
// transmitter address. That asymmetry is exactly what makes ACK spoofing
// possible (the sender cannot tell who transmitted an ACK except through
// physical-layer hints such as RSSI), so we model it faithfully: `ta` is
// kNoAddr for CTS/ACK, and `true_tx` records the actual transmitter for
// bookkeeping/PHY purposes only. MAC logic must never branch on `true_tx`
// of a CTS/ACK; detection code may only use it via the PHY's RSSI.
#pragma once

#include <cstdint>
#include <string>

#include "src/net/packet.h"
#include "src/sim/time.h"

namespace g80211 {

inline constexpr int kBroadcast = -1;
inline constexpr int kNoAddr = -2;

enum class FrameType : std::uint8_t { kRts, kCts, kData, kAck };

const char* frame_type_name(FrameType t);

struct Frame {
  FrameType type = FrameType::kData;
  Time duration = 0;   // Duration/NAV field (ns; <= WifiParams::kMaxNav)
  int ra = kNoAddr;    // receiver address
  int ta = kNoAddr;    // transmitter address (kNoAddr on CTS/ACK)
  int true_tx = kNoAddr;  // who actually keyed the radio (PHY bookkeeping)
  bool retry = false;
  int seq = 0;            // MAC sequence number (DATA dedup)
  int frag_index = 0;     // fragment number within the MSDU
  bool more_frags = false;  // More Fragments bit
  int frag_bytes = 0;     // this fragment's share of the packet (0: whole)
  PacketPtr packet;       // payload, DATA frames only
  double rate_mbps = 0;   // PHY rate of DATA frames (0: standard default)
  std::uint64_t uid = 0;  // unique per emission

  // Bytes this DATA frame actually carries on air.
  int air_bytes() const {
    if (frag_bytes > 0) return frag_bytes;
    return packet ? packet->size_bytes : 0;
  }

  std::string describe() const;
};

}  // namespace g80211
