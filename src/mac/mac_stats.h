// Per-MAC counters used throughout the evaluation (RTS send ratios for
// Fig 3, retransmission/drop counts for detection, ACK bookkeeping).
// Contention-window statistics live in Backoff; transport goodput lives in
// the transport sinks.
#pragma once

#include <cstdint>

namespace g80211 {

struct MacStats {
  // Sender side.
  std::int64_t rts_sent = 0;
  std::int64_t data_sent = 0;        // DATA transmissions incl. retries
  std::int64_t data_retries = 0;
  std::int64_t data_success = 0;     // MAC-level ACK received (or retx disabled)
  std::int64_t data_dropped = 0;     // retry limit exceeded
  std::int64_t cts_timeouts = 0;
  std::int64_t ack_timeouts = 0;
  std::int64_t queue_drops = 0;
  std::int64_t acks_ignored = 0;     // spoof-detector told us to discard

  // Receiver side.
  std::int64_t cts_sent = 0;
  std::int64_t acks_sent = 0;
  std::int64_t spoofed_acks_sent = 0;
  std::int64_t fake_acks_sent = 0;
  std::int64_t cts_suppressed_by_nav = 0;
  std::int64_t rx_data_ok = 0;
  std::int64_t rx_data_dup = 0;
  std::int64_t rx_corrupted = 0;
  std::int64_t nav_updates = 0;
};

}  // namespace g80211
