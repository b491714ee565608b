// The MAC tap: the one place a frame seen at a station becomes a
// CapturedFrame.
//
// tap_frames() chains onto a station's Mac::sniffer (every frame its radio
// decoded, corrupted ones included) and Mac::tx_sniffer (every frame it
// keys onto the air) and hands each frame to a caller-supplied sink as a
// CapturedFrame, in MAC event order: transmissions as they start,
// receptions as they end. CaptureWriter streams that sequence to pcap and
// JSONL; the examples print it with trace_line(). Tapping draws no
// randomness and leaves earlier taps in place, so observing a station
// never perturbs the simulated run.
#pragma once

#include <functional>
#include <string>

#include "src/capture/capture.h"
#include "src/mac/mac.h"

namespace g80211 {

using FrameSink = std::function<void(const CapturedFrame&)>;

// Chain onto `mac`'s rx and tx sniffers. Own transmissions arrive with
// `tx` set, `true_tx` = the station itself and no RSSI.
void tap_frames(Mac& mac, FrameSink sink);

// One human-readable line per frame, the simulator's tcpdump -v:
//   "    0.001234s RTS  ta=0   ra=1   dur=  1234.0us seq=0    [flags]"
// The layout is stable for downstream greps; new flags append after seq.
std::string trace_line(const CapturedFrame& f);

}  // namespace g80211
