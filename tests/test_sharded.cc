// The conservative parallel engine's contracts:
//  * metrics are byte-identical for every shard count and for inline vs
//    threaded execution (the determinism contract in sharded.h);
//  * partitions that would split carrier-sense neighborhoods are refused;
//  * cross-shard backhaul flows deliver through the epoch mailboxes at
//    every shard count;
//  * the event count is shard-invariant except for one warmup-reset event
//    per shard;
//  * the auto-partitioner is deterministic, contiguous and balanced.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/scenario/sharded.h"
#include "src/sim/check.h"
#include "src/sim/mailbox.h"

namespace g80211 {
namespace {

// Cells far apart with finite ranges: no cross-cell wireless interaction,
// which is exactly the world the engine may legally shard.
ShardedWorldSpec separated_world(int n_bss, int n_stations,
                                 bool cross_flows = false) {
  ShardedWorldSpec spec;
  spec.base.comm_range_m = 30.0;
  spec.base.cs_range_m = 60.0;
  spec.base.warmup = milliseconds(50);
  spec.base.measure = milliseconds(200);
  spec.base.seed = 7;
  for (int b = 0; b < n_bss; ++b) {
    HotspotBssSpec cell;
    cell.ap = Position{500.0 * b, 0.0};
    cell.n_stations = n_stations;
    cell.rate_mbps = 2.0;
    spec.bsss.push_back(cell);
  }
  if (cross_flows) {
    for (int b = 0; b < n_bss; ++b) {
      CrossFlowSpec cf;
      cf.src_bss = b;
      cf.dst_bss = (b + 1) % n_bss;
      cf.dst_station = b % n_stations;
      cf.latency = milliseconds(2);
      cf.rate_mbps = 0.5;
      spec.cross_flows.push_back(cf);
    }
  }
  return spec;
}

bool identical(const std::vector<ShardedSim::FlowMetrics>& a,
               const std::vector<ShardedSim::FlowMetrics>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].flow_id != b[i].flow_id) return false;
    // Bitwise double comparison: the contract is byte identity, not
    // approximate equality.
    if (a[i].goodput_mbps != b[i].goodput_mbps) return false;
    if (a[i].packets != b[i].packets) return false;
    if (a[i].highest_seq != b[i].highest_seq) return false;
  }
  return true;
}

std::vector<ShardedSim::FlowMetrics> run_world(const ShardedWorldSpec& spec,
                                               int shards, bool threaded) {
  ShardedSim sim(spec, shards, threaded);
  sim.run();
  return sim.metrics();
}

TEST(ShardedSim, TwoShardsByteIdenticalToOne) {
  const ShardedWorldSpec spec = separated_world(2, 3);
  const auto one = run_world(spec, 1, /*threaded=*/false);
  const auto two = run_world(spec, 2, /*threaded=*/true);
  ASSERT_EQ(one.size(), 6u);
  EXPECT_GT(one[0].packets, 0);
  EXPECT_TRUE(identical(one, two));
}

TEST(ShardedSim, FourShardGridByteIdenticalToOne) {
  ShardedWorldSpec spec = separated_world(4, 2);
  // 2x2 grid rather than a line, so the spatial sort is exercised in both
  // coordinates.
  spec.bsss[1].ap = Position{0.0, 500.0};
  spec.bsss[3].ap = Position{500.0, 500.0};
  const auto one = run_world(spec, 1, /*threaded=*/false);
  const auto four = run_world(spec, 4, /*threaded=*/true);
  ASSERT_EQ(one.size(), 8u);
  EXPECT_TRUE(identical(one, four));
}

TEST(ShardedSim, CrossShardBackhaulByteIdenticalAndDelivers) {
  const ShardedWorldSpec spec = separated_world(2, 2, /*cross_flows=*/true);
  ShardedSim one(spec, 1, /*threaded=*/false);
  one.run();
  ShardedSim two(spec, 2, /*threaded=*/true);
  two.run();
  const auto m1 = one.metrics();
  const auto m2 = two.metrics();
  ASSERT_EQ(m1.size(), 6u);  // 4 downlink + 2 cross flows
  // The backhaul actually carried traffic, and the cross-flow sinks saw it.
  EXPECT_GT(two.cross_packets_routed(), 0u);
  EXPECT_EQ(one.cross_packets_routed(), two.cross_packets_routed());
  EXPECT_GT(m1[4].packets, 0);
  EXPECT_GT(m1[5].packets, 0);
  EXPECT_TRUE(identical(m1, m2));
  // Lookahead is the minimum wire latency; epochs tile warmup + measure.
  EXPECT_EQ(two.lookahead(), milliseconds(2));
  EXPECT_EQ(two.epochs_run(), 125u);  // 250 ms / 2 ms
  EXPECT_EQ(one.epochs_run(), two.epochs_run());
}

TEST(ShardedSim, InlineAndThreadedExecutionsAreIdentical) {
  const ShardedWorldSpec spec = separated_world(2, 2, /*cross_flows=*/true);
  const auto inline_run = run_world(spec, 2, /*threaded=*/false);
  const auto threaded_run = run_world(spec, 2, /*threaded=*/true);
  EXPECT_TRUE(identical(inline_run, threaded_run));
}

TEST(ShardedSim, EventCountIsShardInvariantBesideOneWarmupResetPerShard) {
  // Every shard is a Sim, and each Sim schedules one warmup-reset event
  // when it begins its run; every other event belongs to a station, a flow
  // or a wire and runs on exactly one shard. So the engine's event count
  // less one per shard is the same at every shard count, with and without
  // cross-shard backhaul.
  for (const bool cross_flows : {false, true}) {
    SCOPED_TRACE(cross_flows);
    const ShardedWorldSpec spec = separated_world(4, 2, cross_flows);
    std::vector<std::uint64_t> world_events;
    for (const int shards : {1, 2, 4}) {
      ShardedSim sim(spec, shards, /*threaded=*/false);
      sim.run();
      world_events.push_back(sim.events_executed() -
                             static_cast<std::uint64_t>(sim.num_shards()));
    }
    EXPECT_GT(world_events[0], 0u);
    EXPECT_EQ(world_events[1], world_events[0]);
    EXPECT_EQ(world_events[2], world_events[0]);
  }
}

TEST(ShardedSim, RefusesPartitionWithinCarrierSenseRange) {
  // Unlimited ranges: every cross-shard pair interacts, so any split of
  // two cells must be refused.
  ShardedWorldSpec spec = separated_world(2, 2);
  spec.base.comm_range_m = 0.0;
  spec.base.cs_range_m = 0.0;
  EXPECT_THROW(ShardedSim(spec, 2), CheckFailure);
  // Finite ranges but cells closer than the carrier-sense range: the
  // 60 m CS disc spans the 50 m gap, so splitting would erase deferral.
  ShardedWorldSpec close = separated_world(2, 2);
  close.bsss[1].ap = Position{50.0, 0.0};
  EXPECT_THROW(ShardedSim(close, 2), CheckFailure);
  // The same worlds are fine as a single shard (nothing crosses).
  EXPECT_NO_THROW(ShardedSim(close, 1));
}

TEST(ShardedSim, RejectsNonPositiveCrossFlowLatency) {
  ShardedWorldSpec spec = separated_world(2, 2, /*cross_flows=*/true);
  spec.cross_flows[0].latency = 0;
  EXPECT_THROW(ShardedSim(spec, 2), CheckFailure);
}

TEST(PartitionBsss, SortsSpatiallyAndBalancesStations) {
  ShardedWorldSpec spec;
  spec.bsss.push_back({Position{300.0, 0.0}, 2});
  spec.bsss.push_back({Position{0.0, 0.0}, 2});
  spec.bsss.push_back({Position{600.0, 0.0}, 2});
  spec.bsss.push_back({Position{900.0, 0.0}, 2});
  const auto two = partition_bsss(spec, 2);
  ASSERT_EQ(two.size(), 2u);
  // Sorted by x: cells 1, 0 | 2, 3 — contiguous chunks, 2 cells each.
  EXPECT_EQ(two[0], (std::vector<int>{1, 0}));
  EXPECT_EQ(two[1], (std::vector<int>{2, 3}));
  // One shard per cell at the maximum shard count.
  const auto four = partition_bsss(spec, 4);
  for (const auto& shard : four) EXPECT_EQ(shard.size(), 1u);
  // Uneven station counts: the heavy cell does not drag a neighbour in.
  spec.bsss[1].n_stations = 6;
  const auto uneven = partition_bsss(spec, 2);
  EXPECT_EQ(uneven[0], (std::vector<int>{1}));
  EXPECT_EQ(uneven[1], (std::vector<int>{0, 2, 3}));
  EXPECT_THROW(partition_bsss(spec, 5), CheckFailure);
  EXPECT_THROW(partition_bsss(spec, 0), CheckFailure);
}

TEST(EpochMailbox, StampsPreservesOrderAndDrainsEmpty) {
  EpochMailbox<int> box;
  EXPECT_TRUE(box.empty());
  box.push(10);
  box.push(20);
  EXPECT_EQ(box.size(), 2u);
  auto items = box.drain();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].seq, 0u);
  EXPECT_EQ(items[0].item, 10);
  EXPECT_EQ(items[1].seq, 1u);
  EXPECT_EQ(items[1].item, 20);
  EXPECT_TRUE(box.empty());
  // Stamps keep counting across epochs, so merge keys stay unique.
  box.push(30);
  auto next = box.drain();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].seq, 2u);
  EXPECT_EQ(box.total_pushed(), 3u);
}

}  // namespace
}  // namespace g80211
