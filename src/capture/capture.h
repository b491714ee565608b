// Frame captures: the simulator's tcpdump.
//
// A capture is the complete frame stream at one vantage station — every
// frame its radio decoded (including corrupted ones, FCS-bad) plus every
// frame it keyed onto the air itself — recorded in two formats at once:
//
//  * `<stem>.pcap` — a standard pcap file (nanosecond timestamps, linktype
//    IEEE802_11_RADIOTAP) with a minimal radiotap header (flags, rate,
//    dBm antenna signal) and real 802.11 MAC headers, so Wireshark/tshark
//    open it directly. Node ids map to locally-administered MAC addresses
//    02:80:02:11:hh:ll. The pcap is faithful to what a monitor-mode NIC
//    would log, which also means it is lossy exactly where real captures
//    are: CTS/ACK frames carry no transmitter address, Duration is
//    quantised to microseconds, RSSI to whole dBm, and reception end times
//    and simulator ground truth are absent.
//
//  * `<stem>.jsonl` — a lossless frame journal: one JSON object per frame
//    with exact nanosecond ticks, node ids, the ground-truth transmitter,
//    collision flags and DATA payload identity, bracketed by a header line
//    carrying the capture owner and full WifiParams (so a reader needs
//    nothing but the file) and a footer carrying the capture horizon.
//    This is the format the offline replay pipeline (replay.h) consumes.
//
// CapturedFrame is the one record of a frame seen at a station: the MAC
// tap (capture_tap.h) produces it, CaptureWriter streams it to both files,
// the capture reader (capture_stream.h, capture_reader.h) parses either
// file back into it, and the detectors replay it. Round-trip guarantee:
// serialising a parsed capture again reproduces the input byte-for-byte
// (each format is a pure, idempotent function of the fields it preserves).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/mac/frame.h"
#include "src/phy/wifi_params.h"
#include "src/sim/time.h"

namespace g80211 {

// --- pcap / radiotap format constants --------------------------------------

// Nanosecond-resolution pcap magic (host-endian write; readers of either
// endianness recognise it byte-swapped — ours requires the LE layout we
// write).
inline constexpr std::uint32_t kPcapMagicNs = 0xa1b23c4d;
inline constexpr std::uint16_t kPcapVersionMajor = 2;
inline constexpr std::uint16_t kPcapVersionMinor = 4;
inline constexpr std::uint32_t kPcapSnapLen = 65535;
inline constexpr std::uint32_t kLinktypeRadiotap = 127;  // LINKTYPE_IEEE802_11_RADIOTAP

// Minimal radiotap header: version(1) pad(1) len(2) present(4) +
// flags(1) rate(1) antsignal(1) = 11 bytes.
inline constexpr std::size_t kRadiotapLen = 11;
inline constexpr std::uint32_t kRadiotapPresent =
    (1u << 1) | (1u << 2) | (1u << 5);  // Flags | Rate | dBm antenna signal
inline constexpr std::uint8_t kRadiotapFlagBadFcs = 0x40;

// 802.11 Frame Control bytes (protocol version 0).
inline constexpr std::uint8_t kFcRts = 0xB4;
inline constexpr std::uint8_t kFcCts = 0xC4;
inline constexpr std::uint8_t kFcAck = 0xD4;
inline constexpr std::uint8_t kFcData = 0x08;
// Frame Control flags byte (second byte).
inline constexpr std::uint8_t kFcFlagMoreFrags = 0x04;
inline constexpr std::uint8_t kFcFlagRetry = 0x08;

// MAC header lengths we serialise (no payload bytes are captured; the
// original on-air length lives in the pcap record's orig_len).
inline constexpr std::size_t kHdrLenRts = 16;   // FC dur RA TA
inline constexpr std::size_t kHdrLenCtsAck = 10;  // FC dur RA
inline constexpr std::size_t kHdrLenData = 24;  // FC dur A1 A2 A3 seqctl

// Node-id <-> MAC address mapping: 02:80:02:11:hh:ll (locally
// administered), ff:ff:ff:ff:ff:ff for kBroadcast.
inline constexpr std::uint8_t kMacOui[4] = {0x02, 0x80, 0x02, 0x11};

// --- JSONL format constants -------------------------------------------------

inline constexpr int kJsonlFormatVersion = 1;
inline constexpr const char* kJsonlHeaderKey = "g80211_capture";
inline constexpr const char* kJsonlFooterKey = "g80211_capture_end";

// --- parsed representation ---------------------------------------------------

// One frame as seen at the vantage station. `tx` records are the station's
// own transmissions (tapped at the radio, so timing is exact); everything
// else arrived over the air. Fields the pcap format cannot represent are
// documented inline; they survive only through the JSONL journal.
struct CapturedFrame {
  Time start = 0;  // first bit on air
  Time end = 0;    // last bit on air (jsonl only; == start from pcap)
  FrameType type = FrameType::kData;
  int ta = kNoAddr;       // kNoAddr on CTS/ACK, as on air
  int ra = kNoAddr;
  int true_tx = kNoAddr;  // ground truth (jsonl only)
  Time duration = 0;      // NAV field (pcap quantises to whole us)
  int seq = 0;            // DATA only in pcap (control frames carry none)
  int frag = 0;
  bool more_frags = false;
  bool retry = false;
  bool corrupted = false;  // FCS-bad in pcap
  bool collided = false;   // corruption cause was overlap (jsonl only)
  bool tx = false;         // own transmission (jsonl only)
  double rssi_dbm = 0.0;   // 0 on tx records; pcap quantises to whole dBm
  int bytes = 0;           // on-air MAC length incl. FCS
  double rate_mbps = 0.0;  // PHY rate (pcap quantises to 0.5 Mbps)

  // DATA payload identity (jsonl only; pcap carries no payload bytes).
  int flow_id = 0;
  std::int64_t pkt_seq = 0;
  std::uint64_t pkt_uid = 0;
  int src_node = -1;
  int dst_node = -1;
  Time pkt_created = 0;
  bool probe = false;
  bool probe_reply = false;

  // When this frame's record was emitted at the vantage: transmissions are
  // tapped as they start, receptions delivered when they end. Replay walks
  // records in this order — it is the order the live MAC saw events.
  Time event_time() const { return tx ? start : end; }

  bool operator==(const CapturedFrame&) const = default;
};

// A parsed capture file.
struct Capture {
  int owner = kNoAddr;       // vantage station MAC id (jsonl only)
  WifiParams params;         // from the jsonl header
  bool has_params = false;   // false for pcap (pcap carries no params)
  Time end_time = 0;         // capture horizon (jsonl footer; last frame end
                             // for pcap)
  std::vector<CapturedFrame> frames;
  // Skip-and-count statistics for unrecognised pcap records (unknown
  // radiotap layout or 802.11 type/subtype — e.g. beacons from a real
  // capture). The first offending record's byte offset in the file lets a
  // user jump straight to it in a hex dump / Wireshark.
  std::int64_t skipped_unknown = 0;
  std::int64_t first_skipped_offset = -1;  // -1: nothing was skipped
};

}  // namespace g80211
