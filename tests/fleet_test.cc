/**
 * @file
 * Tests for the sharded parallel fleet executor: bit-determinism
 * across thread counts, shard-partition edge cases (empty shard,
 * single-node shard), mid-run node drain, heterogeneous synthetic
 * schedules, and the per-shard gauges written at window barriers (this
 * suite runs under TSan in CI — see .github/workflows/ci.yml).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/node_shard.h"
#include "cluster/synthetic_agent.h"
#include "core/runtime_stats.h"
#include "fleet/fleet_runner.h"
#include "telemetry/latency_histogram.h"
#include "telemetry/metric_registry.h"

namespace sol {
namespace {

using cluster::NodeShard;
using cluster::NodeShardConfig;
using fleet::FleetConfig;
using fleet::ShardedFleetRunner;

/** Small but real fleet: every node carries synthetic agents so the
 *  shards do meaningful work without making the suite slow. */
FleetConfig
SmallFleet(std::size_t num_nodes, std::size_t num_threads,
           std::uint64_t seed = 1)
{
    FleetConfig config;
    config.num_nodes = num_nodes;
    config.num_threads = num_threads;
    config.base_seed = seed;
    config.window = sim::Millis(50);
    config.node.synthetic_agents = 8;
    return config;
}

struct FleetFingerprint {
    std::uint64_t trace_hash;
    std::uint64_t executed;
    std::uint64_t epochs;
    std::uint64_t arbiter_requests;

    bool
    operator==(const FleetFingerprint& other) const
    {
        return trace_hash == other.trace_hash &&
               executed == other.executed && epochs == other.epochs &&
               arbiter_requests == other.arbiter_requests;
    }
};

FleetFingerprint
Fingerprint(ShardedFleetRunner& runner)
{
    const cluster::FleetStats stats = runner.Stats();
    return {runner.fleet_trace_hash(), runner.total_executed(),
            stats.agents.epochs, stats.arbiter_requests};
}

// ---- NodeShard: the extracted shard-steppable core ----------------------

TEST(NodeShard, GlobalIndexingMatchesSerialDriver)
{
    // A shard owning global nodes [2, 4) must name and seed them
    // exactly as the serial driver would ("node2", "node3").
    NodeShardConfig config;
    config.first_node_index = 2;
    config.num_nodes = 2;
    config.base_seed = 7;
    NodeShard shard(config);

    ASSERT_EQ(shard.num_nodes(), 2u);
    EXPECT_EQ(shard.node(0).name(), "node2");
    EXPECT_EQ(shard.node(1).name(), "node3");
    EXPECT_EQ(shard.first_node_index(), 2u);

    shard.Run(sim::Seconds(1));
    EXPECT_GT(shard.Stats().agents.epochs, 0u);
    shard.Stop();
}

TEST(NodeShard, EmptyShardAdvancesCleanly)
{
    NodeShardConfig config;
    config.num_nodes = 0;
    NodeShard shard(config);

    shard.Run(sim::Seconds(5));
    EXPECT_EQ(shard.queue().executed(), 0u);
    EXPECT_EQ(shard.queue().Now(), sim::Seconds(5));
    EXPECT_EQ(shard.Stats().total_agents, 0u);
    shard.Stop();  // No-ops, but must be safe.
    shard.CleanUpAll();
}

// ---- Determinism across thread counts -----------------------------------

TEST(ShardedFleetRunner, TraceHashIdenticalAcrossThreadCounts)
{
    auto run = [](std::size_t threads) {
        ShardedFleetRunner runner(SmallFleet(4, threads));
        runner.Run(sim::Seconds(1));
        const FleetFingerprint print = Fingerprint(runner);
        runner.Stop();
        return print;
    };

    const FleetFingerprint one = run(1);
    const FleetFingerprint two = run(2);
    const FleetFingerprint eight = run(8);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
    EXPECT_GT(one.executed, 10'000u);
    EXPECT_GT(one.epochs, 0u);

    // A different seed drives a genuinely different fleet.
    ShardedFleetRunner other(SmallFleet(4, 2, /*seed=*/9));
    other.Run(sim::Seconds(1));
    EXPECT_NE(one.trace_hash, other.fleet_trace_hash());
    other.Stop();
}

TEST(ShardedFleetRunner, HeterogeneousSchedulesStayDeterministic)
{
    auto run = [](std::size_t threads) {
        FleetConfig config = SmallFleet(4, threads);
        config.node.synthetic.period_jitter = 0.2;
        config.node.synthetic.burst_fraction = 0.25;
        ShardedFleetRunner runner(config);
        runner.Run(sim::Seconds(1));
        const FleetFingerprint print = Fingerprint(runner);
        runner.Stop();
        return print;
    };

    const FleetFingerprint a = run(1);
    const FleetFingerprint b = run(4);
    EXPECT_EQ(a, b);

    // Heterogeneity changes the trace relative to the uniform fleet.
    ShardedFleetRunner uniform(SmallFleet(4, 2));
    uniform.Run(sim::Seconds(1));
    EXPECT_NE(a.trace_hash, uniform.fleet_trace_hash());
    uniform.Stop();
}

TEST(ShardedFleetRunner, MatchesSerialShardComposition)
{
    // One shard holding the whole fleet is the serial composition:
    // more threads than shards must neither deadlock nor change the
    // result.
    auto run = [](std::size_t threads) {
        FleetConfig config = SmallFleet(3, threads);
        config.num_shards = 1;
        ShardedFleetRunner runner(config);
        runner.Run(sim::Millis(800));
        const FleetFingerprint print = Fingerprint(runner);
        runner.Stop();
        return print;
    };

    const FleetFingerprint serial = run(1);
    const FleetFingerprint wide = run(4);
    EXPECT_EQ(serial, wide);
}

TEST(ShardedFleetRunner, StatsRollUpEveryNode)
{
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        FleetConfig config = SmallFleet(4, threads);
        config.num_shards = 2;  // Node -> shard -> fleet, two nodes each.
        ShardedFleetRunner runner(config);
        runner.Run(sim::Millis(600));
        runner.Stop();

        // The expectation sums node by node, field by field, without
        // going through FleetStats.
        core::RuntimeStats agents;
        telemetry::LatencyHistogram epochs;
        std::uint64_t total_agents = 0;
        std::uint64_t requests = 0;
        std::uint64_t observed = 0;
        std::uint64_t resolved = 0;
        for (std::size_t i = 0; i < runner.num_nodes(); ++i) {
            cluster::MultiAgentNode& node = runner.node(i);
            const core::RuntimeStats node_agents = node.AggregateStats();
            core::ForEachCounter(
                [](const char*, core::CounterKind kind, auto& sum,
                   const auto& value) {
                    sum = kind == core::CounterKind::kPeak
                              ? std::max(sum, value)
                              : sum + value;
                },
                agents, node_agents);
            epochs.Merge(node.EpochLatencyHistogram());
            total_agents += node.num_agents();
            requests += node.arbiter().requests();
            observed += node.arbiter().conflicts_observed();
            resolved += node.arbiter().conflicts_resolved();
        }

        const cluster::FleetStats stats = runner.Stats();
        core::ForEachCounter(
            [threads](const char* name, core::CounterKind,
                      const auto& rolled, const auto& summed) {
                EXPECT_EQ(rolled, summed) << name << ", " << threads
                                          << " threads";
            },
            stats.agents, agents);
        EXPECT_GT(stats.agents.epochs, 0u);
        EXPECT_TRUE(stats.epoch_latency == epochs) << threads << " threads";
        EXPECT_EQ(stats.epoch_latency.count(), stats.agents.epochs);
        EXPECT_EQ(stats.total_agents, total_agents);
        EXPECT_EQ(stats.arbiter_requests, requests);
        EXPECT_EQ(stats.conflicts_observed, observed);
        EXPECT_EQ(stats.conflicts_resolved, resolved);
    }
}

// ---- Shard-partition edge cases ------------------------------------------

TEST(ShardedFleetRunner, MoreShardsThanNodesLeavesEmptyShards)
{
    FleetConfig config = SmallFleet(2, 2);
    config.num_shards = 5;  // Shards 2..4 own zero nodes.
    ShardedFleetRunner runner(config);
    ASSERT_EQ(runner.num_shards(), 5u);
    EXPECT_EQ(runner.shard(0).num_nodes(), 1u);
    EXPECT_EQ(runner.shard(1).num_nodes(), 1u);
    EXPECT_EQ(runner.shard(4).num_nodes(), 0u);

    runner.Run(sim::Millis(500));
    EXPECT_GT(runner.total_executed(), 0u);
    EXPECT_EQ(runner.shard(4).queue().executed(), 0u);
    EXPECT_EQ(runner.shard(4).queue().Now(), sim::Millis(500));
    EXPECT_EQ(runner.Stats().total_agents, 2u * (4u + 8u));
    runner.Stop();
}

TEST(ShardedFleetRunner, SingleNodeShardsPartitionTheWholeFleet)
{
    FleetConfig config = SmallFleet(3, 2);
    // num_shards = 0 resolves to one shard per node.
    ShardedFleetRunner runner(config);
    ASSERT_EQ(runner.num_shards(), 3u);
    for (std::size_t s = 0; s < runner.num_shards(); ++s) {
        EXPECT_EQ(runner.shard(s).num_nodes(), 1u);
        EXPECT_EQ(runner.shard(s).first_node_index(), s);
    }
    // Global node lookup crosses shard boundaries.
    EXPECT_EQ(runner.node(0).name(), "node0");
    EXPECT_EQ(runner.node(2).name(), "node2");
    EXPECT_THROW(runner.node(3), std::out_of_range);
}

// ---- Mid-run drain -------------------------------------------------------

TEST(ShardedFleetRunner, MidRunNodeDrainIsDeterministic)
{
    auto run = [](std::size_t threads) {
        ShardedFleetRunner runner(SmallFleet(3, threads));
        runner.Run(sim::Millis(500));
        runner.DrainNode(1);
        const std::uint64_t epochs_at_drain =
            runner.node(1).TotalEpochs();
        runner.Run(sim::Millis(500));
        struct Result {
            FleetFingerprint print;
            std::uint64_t drained_epochs_frozen;
            std::uint64_t other_epochs;
        } result{Fingerprint(runner),
                 runner.node(1).TotalEpochs() - epochs_at_drain,
                 runner.node(0).TotalEpochs()};
        runner.Stop();
        return result;
    };

    const auto a = run(1);
    const auto b = run(4);
    // The drained node froze; its neighbors kept learning.
    EXPECT_EQ(a.drained_epochs_frozen, 0u);
    EXPECT_GT(a.other_epochs, 0u);
    // And the drain at a window boundary is thread-count independent.
    EXPECT_EQ(a.print, b.print);
    EXPECT_EQ(b.drained_epochs_frozen, 0u);
}

// ---- Window gauges (FleetConfig::metrics_every_n_windows) ---------------

/** What a refreshing barrier must write: every shard's queue counters,
 *  node count and virtual time as they stand right now. */
std::map<std::string, double>
BarrierShardGauges(ShardedFleetRunner& runner)
{
    std::map<std::string, double> gauges;
    for (std::size_t s = 0; s < runner.num_shards(); ++s) {
        const std::string p = "shard" + std::to_string(s) + ".";
        const NodeShard& shard = runner.shard(s);
        const sim::EventQueueStats q = shard.queue().stats();
        gauges[p + "queue.executed"] = static_cast<double>(q.executed);
        gauges[p + "queue.scheduled"] = static_cast<double>(q.scheduled);
        gauges[p + "queue.cancelled"] = static_cast<double>(q.cancelled);
        gauges[p + "queue.dropped"] = static_cast<double>(q.dropped);
        gauges[p + "queue.pending"] = static_cast<double>(q.pending);
        gauges[p + "queue.peak_pending"] =
            static_cast<double>(q.peak_pending);
        gauges[p + "queue.arena_capacity"] =
            static_cast<double>(q.arena_capacity);
        gauges[p + "num_nodes"] = static_cast<double>(shard.num_nodes());
        gauges[p + "virtual_seconds"] = sim::ToSeconds(shard.queue().Now());
    }
    return gauges;
}

struct WindowGauges {
    /** window_metrics().gauges() after each of four windows. */
    std::vector<std::map<std::string, double>> snapshots;
    /** Whether that snapshot equals the barrier's shard queues. */
    std::vector<bool> fresh;
};

WindowGauges
RunFourWindows(std::size_t threads, std::size_t every_n)
{
    FleetConfig config = SmallFleet(8, threads);
    config.metrics_every_n_windows = every_n;
    ShardedFleetRunner runner(config);
    WindowGauges out;
    for (int w = 0; w < 4; ++w) {
        runner.Run(config.window);
        out.snapshots.push_back(runner.window_metrics().gauges());
        out.fresh.push_back(out.snapshots.back() ==
                            BarrierShardGauges(runner));
    }
    runner.Stop();
    return out;
}

TEST(ShardedFleetRunner, WindowGaugesMatchShardQueuesAtEveryNthBarrier)
{
    // = 1: every barrier rewrites every shard's gauges.
    const WindowGauges every = RunFourWindows(1, 1);
    for (int w = 0; w < 4; ++w) {
        EXPECT_TRUE(every.fresh[w]) << "window " << w + 1;
    }
    const std::map<std::string, double>& last = every.snapshots.back();
    EXPECT_EQ(last.size(), 8u * 9u);
    EXPECT_GT(last.at("shard7.queue.executed"), 0.0);
    EXPECT_EQ(last.at("shard7.num_nodes"), 1.0);
    EXPECT_DOUBLE_EQ(last.at("shard7.virtual_seconds"), 0.2);

    // The thread count is execution policy: same gauges, same windows.
    EXPECT_EQ(RunFourWindows(2, 1).snapshots, every.snapshots);
    EXPECT_EQ(RunFourWindows(8, 1).snapshots, every.snapshots);

    // = 0: no barrier writes anything.
    for (const auto& snapshot : RunFourWindows(2, 0).snapshots) {
        EXPECT_TRUE(snapshot.empty());
    }

    // = 2: only even windows refresh; odd ones keep the last write.
    const WindowGauges even = RunFourWindows(2, 2);
    EXPECT_TRUE(even.snapshots[0].empty());
    EXPECT_TRUE(even.fresh[1]);
    EXPECT_FALSE(even.fresh[2]);
    EXPECT_EQ(even.snapshots[2], even.snapshots[1]);
    EXPECT_TRUE(even.fresh[3]);
    EXPECT_EQ(even.snapshots[3], every.snapshots[3]);
}

TEST(ShardedFleetRunner, CollectFleetMetricsAggregatesAcrossShards)
{
    ShardedFleetRunner runner(SmallFleet(3, 2));
    runner.Run(sim::Seconds(1));

    telemetry::MetricRegistry out;
    runner.CollectFleetMetrics(out);
    EXPECT_EQ(out.Gauge("fleet.num_nodes"), 3.0);
    EXPECT_EQ(out.Gauge("fleet.num_shards"), 3.0);
    EXPECT_EQ(out.Gauge("fleet.num_threads"), 2.0);
    EXPECT_GT(out.Gauge("fleet.total_epochs"), 0.0);
    EXPECT_EQ(out.Gauge("fleet.queue.executed"),
              static_cast<double>(runner.total_executed()));
    // Per-node namespacing survives the shard boundary.
    EXPECT_GT(out.Gauge("node0.smart-harvest.epochs"), 0.0);
    EXPECT_GT(out.Gauge("node2.smart-harvest.epochs"), 0.0);
    runner.Stop();
}

TEST(ShardedFleetRunner, CleanUpAllSweepsEveryShard)
{
    ShardedFleetRunner runner(SmallFleet(4, 2));
    runner.Run(sim::Seconds(1));
    runner.CleanUpAll();
    for (std::size_t i = 0; i < runner.num_nodes(); ++i) {
        cluster::MultiAgentNode& node = runner.node(i);
        EXPECT_EQ(node.node().VmFrequency(node.primary_vm()),
                  node.node().NominalFrequency());
        EXPECT_EQ(node.node().GrantedCores(node.elastic_vm()), 0);
    }
    runner.Stop();
}

}  // namespace
}  // namespace sol
