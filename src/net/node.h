// A wireless station: PHY + MAC + packet demultiplexing.
//
// All wireless traffic is single-hop (hotspot), so the MAC destination of a
// packet is its end-to-end destination unless a route entry says otherwise
// (used when a station talks to a remote wired host through the AP).
// Nodes also implement the application-layer echo used by the fake-ACK
// detector's ping probing: an uncorrupted probe packet is answered; a
// corrupted one cannot be (which is precisely what exposes fake MAC ACKs).
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "src/mac/mac.h"
#include "src/net/packet.h"
#include "src/phy/phy.h"
#include "src/sim/rng.h"
#include "src/sim/scheduler.h"

namespace g80211 {

class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void receive(const PacketPtr& packet) = 0;
};

class Node : public MacUpper {
 public:
  Node(Scheduler& sched, Channel& channel, int id, Position pos, Rng rng);

  int id() const { return id_; }
  Phy& phy() { return *phy_; }
  Mac& mac() { return *mac_; }
  Scheduler& scheduler() { return *sched_; }

  // Dispatch received packets of `flow_id` to `sink`.
  void register_sink(int flow_id, PacketSink* sink) { sinks_[flow_id] = sink; }

  // Next-hop MAC for packets whose end-to-end destination is `dst_node`
  // (e.g. route a mobile's TCP ACKs for a remote server via the AP).
  void set_route(int dst_node, int next_hop_mac) { routes_[dst_node] = next_hop_mac; }

  // Forward packets addressed to other nodes here (AP bridging to wired
  // hosts): dst_node -> handler.
  void set_forwarder(int dst_node, std::function<void(PacketPtr)> fn) {
    forwarders_[dst_node] = std::move(fn);
  }

  // Transport-facing: send a packet toward its dst_node over the air.
  void send_packet(PacketPtr p);

  // MacUpper:
  void on_packet(const PacketPtr& packet, const RxInfo& info) override;
  // on_packet routes by the packet alone; it never reads the RxInfo.
  bool reads_measurements() const override { return false; }

  std::int64_t probes_echoed() const { return probes_echoed_; }

 private:
  Scheduler* sched_;
  int id_;
  std::unique_ptr<Phy> phy_;
  std::unique_ptr<Mac> mac_;
  std::map<int, PacketSink*> sinks_;
  std::map<int, int> routes_;
  std::map<int, std::function<void(PacketPtr)>> forwarders_;
  std::int64_t probes_echoed_ = 0;
  std::uint64_t next_uid_ = 1;
};

}  // namespace g80211
