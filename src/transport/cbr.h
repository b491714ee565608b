// Constant-bit-rate source over UDP (ns-2's CBR/UDP agent pair).
//
// The paper's UDP experiments generate CBR traffic "high enough to saturate
// the medium", with identical rates across flows so goodput differences are
// purely MAC effects. `saturating()` picks a rate comfortably above the
// 802.11b/a channel capacity.
//
// A source that feeds its own node (feed()) does not tick into a full
// interface queue: it sleeps on the queue and, when room opens, replays
// the skipped ticks as drops with the same jitter draws and counters (see
// src/net/queue.h). Its outputs are those of a source that ticked all
// along.
#pragma once

#include <cstdint>
#include <functional>

#include "src/net/packet.h"
#include "src/net/queue.h"
#include "src/sim/rng.h"
#include "src/sim/scheduler.h"

namespace g80211 {

class Node;

class CbrSource : public QueueSleeper {
 public:
  struct Config {
    int payload_bytes = 1024;   // application payload (paper default)
    int header_bytes = 40;      // IP + UDP/TCP headers
    double rate_mbps = 12.0;    // application-payload rate
    // Multiplicative jitter on the inter-packet gap (mean-preserving,
    // uniform in [1-j, 1+j]). Identical-rate CBR flows sharing a drop-tail
    // queue otherwise phase-lock and split the freed slots by the
    // inspection paradox instead of evenly; ns-2's CBR `random_` knob
    // exists for the same reason. Set 0 for strictly periodic traffic.
    double jitter = 0.5;
  };

  CbrSource(Scheduler& sched, Config cfg, int flow_id, int src_node, int dst_node,
            Rng rng = Rng(0x9e3779b9));
  ~CbrSource();

  // Where generated packets go; the last call wins. feed(): into `node`'s
  // MAC (Node::send_packet), sleeping on its interface queue while that
  // is full; `node` must outlive the source. send_to(): through `out`,
  // every tick (wired hosts, mailboxes, delivery that follows a roamer).
  void feed(Node& node);
  void send_to(std::function<void(PacketPtr)> out);

  // start() clears any earlier stop(), so a source can be stopped and
  // restarted repeatedly (on/off web bursts, station churn sessions).
  void start(Time at);
  void stop(Time at);

  // Packets generated so far, ticks skipped while asleep included.
  std::int64_t generated() const;
  Time interval() const { return interval_; }

 private:
  void emit();
  Time draw_gap(Rng& rng) const;
  // Advance `tick` past every elapsed tick before stop_at_, drawing each
  // gap from `rng`; returns how many ticks that was.
  std::int64_t replay(Time& tick, Rng& rng) const;
  // Stop sleeping on (or waiting for a turn in) the queue being fed.
  void leave_queue();

  // QueueSleeper:
  std::int64_t catch_up() override;
  std::int64_t elapsed_ticks() const override;
  void wake() override;

  Scheduler* sched_;
  Config cfg_;
  int flow_id_;
  int src_node_;
  int dst_node_;
  Time interval_;
  Time stop_at_ = kNever;
  std::int64_t generated_ = 0;
  std::uint64_t next_uid_ = 1;
  Rng rng_;
  Timer timer_;
  std::function<void(PacketPtr)> output_;
  DropTailQueue* queue_ = nullptr;  // the fed node's queue, set by feed()
};

}  // namespace g80211
