// Paused CBR sources: a differential test against the per-tick path.
//
// A source that feeds its node (CbrSource::feed) sleeps on the node's full
// interface queue and replays its skipped ticks when room opens. Every
// world here is built twice from the same seed: once with its sources
// feeding the AP, and once with the same sources re-pointed through a
// plain lambda (send_to), which ticks into the queue like any other
// sender. The two runs must agree bit for bit on every sink metric, every
// MacStats field, every generated() count and the uid/seq of every
// delivered packet, read both between run slices and from inside events,
// while the pausing run executes fewer events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/net/node.h"
#include "src/phy/channel.h"
#include "src/scenario/scenario.h"
#include "src/sim/rng.h"

namespace g80211 {
namespace {

struct WorldOptions {
  int sources = 1;         // CBR flows from the AP into its one queue
  double rate_mbps = 12.0;  // per source
  bool tcp = false;        // a TCP flow from the AP into the same queue
  bool control = false;    // random start/stop/flush/re-point/read events
  std::uint64_t seed = 1;
};

struct Observed {
  std::vector<std::uint64_t> values;  // every reading, in order
  std::uint64_t events = 0;
};

// Logs every delivered packet, then hands it to the flow's real sink.
class DeliveryTap : public PacketSink {
 public:
  DeliveryTap(PacketSink* inner, std::vector<std::uint64_t>* log)
      : inner_(inner), log_(log) {}
  void receive(const PacketPtr& p) override {
    log_->push_back(static_cast<std::uint64_t>(p->flow_id));
    log_->push_back(p->uid);
    log_->push_back(static_cast<std::uint64_t>(p->seq));
    log_->push_back(static_cast<std::uint64_t>(p->created));
    inner_->receive(p);
  }

 private:
  PacketSink* inner_;
  std::vector<std::uint64_t>* log_;
};

void put(std::vector<std::uint64_t>& out, std::int64_t v) {
  out.push_back(static_cast<std::uint64_t>(v));
}

void put(std::vector<std::uint64_t>& out, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  out.push_back(bits);
}

void put(std::vector<std::uint64_t>& out, const MacStats& s) {
  for (const std::int64_t v :
       {s.rts_sent, s.data_sent, s.data_retries, s.data_success,
        s.data_dropped, s.cts_timeouts, s.ack_timeouts, s.queue_drops,
        s.acks_ignored, s.cts_sent, s.acks_sent, s.spoofed_acks_sent,
        s.fake_acks_sent, s.cts_suppressed_by_nav, s.rx_data_ok,
        s.rx_data_dup, s.rx_corrupted, s.nav_updates}) {
    put(out, v);
  }
}

// `pausing`: the AP's sources feed it (and may sleep on its queue);
// otherwise they send through a lambda and tick into the queue.
Observed run_world(const WorldOptions& o, bool pausing) {
  SimConfig cfg;
  cfg.seed = o.seed;
  cfg.warmup = milliseconds(200);
  cfg.measure = seconds(2);
  Sim sim(cfg);
  Node& ap = sim.add_node(Position{0.0, 0.0});
  std::vector<Node*> stations;
  for (int i = 0; i < o.sources; ++i) {
    stations.push_back(&sim.add_node(Position{5.0 + i, 3.0}));
  }
  const auto per_tick = [&ap](PacketPtr p) { ap.send_packet(std::move(p)); };
  std::vector<Sim::UdpFlow> flows;
  for (Node* st : stations) {
    flows.push_back(sim.add_udp_flow(ap, *st, o.rate_mbps));
    if (!pausing) flows.back().source->send_to(per_tick);
  }
  Sim::TcpFlow tcp;
  if (o.tcp) tcp = sim.add_tcp_flow(ap, *stations[0]);

  Observed obs;
  std::vector<std::unique_ptr<DeliveryTap>> taps;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    taps.push_back(std::make_unique<DeliveryTap>(flows[i].sink, &obs.values));
    stations[i]->register_sink(flows[i].flow_id, taps.back().get());
  }

  const auto read = [&] {
    put(obs.values, sim.scheduler().now());
    for (const Sim::UdpFlow& f : flows) {
      put(obs.values, f.source->generated());
      put(obs.values, f.sink->packets());
      put(obs.values, f.sink->duplicates());
      put(obs.values, f.sink->highest_seq());
    }
    put(obs.values, ap.mac().queue().drops());
    put(obs.values, static_cast<std::int64_t>(ap.mac().queue_size()));
    for (int id = 0; id < sim.num_nodes(); ++id) {
      put(obs.values, sim.node(id).mac().stats());
    }
    if (o.tcp) put(obs.values, tcp.sink->goodput_mbps());
  };

  // The control schedule is drawn from its own stream, so both copies get
  // the same one. Instants are in nanoseconds: ties with the simulation's
  // own events are vanishingly rare.
  Rng ctl(o.seed * 0x9e3779b97f4a7c15ULL + 17);
  const Time end = sim.end_time();
  if (o.control) {
    for (int n = 0; n < 120 * o.sources; ++n) {
      const Time at = static_cast<Time>(ctl.uniform() * static_cast<double>(end));
      const std::size_t k =
          static_cast<std::size_t>(ctl.uniform_int(o.sources - 1));
      const Time d = static_cast<Time>(ctl.uniform() * 20e6);  // < 20 ms
      CbrSource* src = flows[k].source;
      Scheduler& sched = sim.scheduler();
      switch (ctl.uniform_int(7)) {
        case 0:  // stop now
          sched.at(at, [src, &sched] { src->stop(sched.now()); });
          break;
        case 1:  // stop later (possibly moving an earlier stop mark)
          sched.at(at, [src, &sched, d] { src->stop(sched.now() + d); });
          break;
        case 2:  // restart now
          sched.at(at, [src, &sched] { src->start(sched.now()); });
          break;
        case 7:  // restart later
          sched.at(at, [src, &sched, d] { src->start(sched.now() + d); });
          break;
        case 3:  // flush the station's queued packets (handoff)
          sched.at(at, [&ap, st = stations[k]] {
            ap.mac().abort_queued_to(st->id());
          });
          break;
        case 4:  // re-point through a lambda and, later, feed again
          sched.at(at, [src, per_tick] { src->send_to(per_tick); });
          sched.at(std::min(end, at + d), [src, &ap, pausing, per_tick] {
            if (pausing) {
              src->feed(ap);
            } else {
              src->send_to(per_tick);
            }
          });
          break;
        default:  // read every counter from inside an event
          sched.at(at, read);
          break;
      }
    }
  }

  sim.begin_run();
  for (int slice = 1; slice <= 20; ++slice) {
    sim.advance_to(end * slice / 20);
    read();
  }
  obs.events = sim.scheduler().executed();
  return obs;
}

void expect_same_outputs(const WorldOptions& o) {
  const Observed paused = run_world(o, true);
  const Observed ticking = run_world(o, false);
  ASSERT_EQ(paused.values.size(), ticking.values.size());
  for (std::size_t i = 0; i < paused.values.size(); ++i) {
    ASSERT_EQ(paused.values[i], ticking.values[i])
        << "first difference at reading " << i << " of "
        << paused.values.size();
  }
  EXPECT_LT(paused.events, ticking.events)
      << "sleeping sources should skip their drop ticks";
}

TEST(CbrPause, OneSourceMatchesPerTickRun) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    WorldOptions o;
    o.seed = seed;
    expect_same_outputs(o);
  }
}

TEST(CbrPause, EightSourcesShareOneQueue) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    WorldOptions o;
    o.sources = 8;
    o.rate_mbps = 2.0;
    o.seed = seed;
    expect_same_outputs(o);
  }
}

TEST(CbrPause, TcpFlowSharesTheQueue) {
  for (const std::uint64_t seed : {1u, 2u}) {
    WorldOptions o;
    o.sources = 4;
    o.rate_mbps = 3.0;
    o.tcp = true;
    o.seed = seed;
    expect_same_outputs(o);
  }
}

TEST(CbrPause, RestartsStopsFlushesAndReadsMidRun) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    WorldOptions o;
    o.sources = 8;
    o.rate_mbps = 2.0;
    o.tcp = true;
    o.control = true;
    o.seed = seed;
    expect_same_outputs(o);
  }
  WorldOptions one;
  one.control = true;
  expect_same_outputs(one);
}

// generated() and drops() read mid-sleep count the skipped ticks up to the
// reading's instant, and reads do not disturb the run.
TEST(CbrPause, CountersAreExactWhileAsleep) {
  Scheduler sched;
  Channel channel(sched, WifiParams::b11());
  Node tx(sched, channel, 0, Position{0.0, 0.0}, Rng(1));
  Node rx(sched, channel, 1, Position{5.0, 0.0}, Rng(2));
  CbrSource::Config cfg;
  cfg.rate_mbps = 50.0;  // far above what the MAC drains
  CbrSource src(sched, cfg, 1, 0, 1, Rng(3));
  src.feed(tx);
  src.start(0);
  sched.run_until(milliseconds(100));
  const std::int64_t generated = src.generated();
  const std::int64_t drops = tx.mac().stats().queue_drops;
  EXPECT_EQ(drops, tx.mac().queue().drops());
  EXPECT_GT(drops, 0);
  // Every generated packet was delivered to the MAC, queued or dropped.
  const MacStats s = tx.mac().stats();
  EXPECT_EQ(generated, s.data_success + s.data_dropped + drops +
                           static_cast<std::int64_t>(tx.mac().queue_size()) +
                           1 /* under service */);
  EXPECT_EQ(src.generated(), generated) << "a read must not change state";
}

// A source destroyed mid-run leaves its queue: later admissions walk the
// remaining sleepers only (ASan reports any stale pointer).
TEST(CbrPause, DestroyedSourceLeavesItsQueue) {
  Scheduler sched;
  Channel channel(sched, WifiParams::b11());
  Node tx(sched, channel, 0, Position{0.0, 0.0}, Rng(1));
  Node rx(sched, channel, 1, Position{5.0, 0.0}, Rng(2));
  CbrSource::Config cfg;
  cfg.rate_mbps = 50.0;
  auto doomed = std::make_unique<CbrSource>(sched, cfg, 1, 0, 1, Rng(3));
  CbrSource kept(sched, cfg, 2, 0, 1, Rng(4));
  doomed->feed(tx);
  kept.feed(tx);
  doomed->start(0);
  kept.start(0);
  sched.run_until(milliseconds(50));
  const std::int64_t drops = tx.mac().queue().drops();
  doomed.reset();
  EXPECT_EQ(tx.mac().queue().drops(), drops) << "its skipped ticks stay counted";
  const std::int64_t kept_before = kept.generated();
  sched.run_until(milliseconds(100));
  EXPECT_GT(kept.generated(), kept_before);
  EXPECT_GT(tx.mac().queue().drops(), drops);
}

// With jitter off, ticks fall on a fixed grid. run_until(h) runs every
// event at or before h, so a read right after it counts the tick at h;
// a source asleep over that tick must count it too.
TEST(CbrPause, RunSlicesEndingOnATickCountIt) {
  const auto run = [](bool pausing) {
    Scheduler sched;
    Channel channel(sched, WifiParams::b11());
    Node tx(sched, channel, 0, Position{0.0, 0.0}, Rng(1));
    Node rx(sched, channel, 1, Position{5.0, 0.0}, Rng(2));
    CbrSource::Config cfg;
    cfg.jitter = 0.0;
    CbrSource src(sched, cfg, 1, 0, 1, Rng(3));
    if (pausing) {
      src.feed(tx);
    } else {
      src.send_to([&tx](PacketPtr p) { tx.send_packet(std::move(p)); });
    }
    src.start(0);
    std::vector<std::int64_t> seen;
    for (int k = 100; k < 2000; k += 13) {
      sched.run_until(k * src.interval());
      seen.push_back(src.generated());
      seen.push_back(tx.mac().stats().queue_drops);
    }
    return seen;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace g80211
