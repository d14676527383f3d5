/**
 * @file
 * Fleet-scale throughput bench for the simulation core.
 *
 * Where micro_runtime measures single-operation costs, micro_fleet
 * measures the thing the ROADMAP's "million-event multi-node
 * simulations" leg actually needs: sustained events/sec of the shared
 * EventQueue under deployment-shaped pressure — multiple nodes, each
 * running the paper's four real agents plus synthetic filler agents up
 * to the production count of 77 agents per node, all multiplexed onto
 * one virtual clock.
 *
 * The run advances the fleet in fixed slices of simulated time until at
 * least the target number of events has executed, recording wall-clock
 * latency per slice (p50/p90/p99 — the fleet's "epoch latency") and the
 * queue's arena statistics. It then repeats the identical run from the
 * same seed and compares EventQueue::trace_hash() fingerprints: any
 * divergence in event order or timing across the two runs is a
 * determinism regression and fails the bench (non-zero exit), which the
 * CI smoke step (`micro_fleet --smoke`) turns into a red build.
 *
 * Results land in BENCH_micro_fleet.json; docs/PERFORMANCE.md explains
 * how to read them and tracks before/after numbers across queue
 * changes.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "fleet/fleet_runner.h"
#include "telemetry/metric_registry.h"

using sol::cluster::FleetStats;
using sol::fleet::FleetConfig;
using sol::fleet::ShardedFleetRunner;
using sol::sim::EventQueue;
using sol::sim::EventQueueStats;
using sol::telemetry::BenchJson;
using sol::telemetry::TableWriter;

namespace {

struct BenchConfig {
    std::size_t num_nodes = 8;
    std::size_t synthetic_agents = 73;  ///< 73 + 4 real = 77 per node.
    std::uint64_t base_seed = 1;
    std::uint64_t min_events = 1'500'000;
    sol::sim::Duration slice = sol::sim::Millis(100);
    /** Guard rail: an event storm becomes a loud drop counter. */
    std::size_t queue_pending_limit = std::size_t{1} << 20;
};

struct RunResult {
    std::uint64_t events = 0;
    double wall_seconds = 0.0;
    double events_per_sec = 0.0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
    double sim_seconds = 0.0;
    std::uint64_t trace_hash = 0;
    EventQueueStats queue;
    FleetStats fleet;
};

double
Percentile(const std::vector<double>& sorted, double q)
{
    if (sorted.empty()) {
        return 0.0;
    }
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

RunResult
RunFleet(const BenchConfig& bench)
{
    // One shard: every node interleaved on one shared queue.
    FleetConfig config;
    config.num_nodes = bench.num_nodes;
    config.num_shards = 1;
    config.base_seed = bench.base_seed;
    config.window = bench.slice;
    config.queue_pending_limit = bench.queue_pending_limit;
    config.metrics_every_n_windows = 0;  // Time the queue, not merges.
    config.node.synthetic_agents = bench.synthetic_agents;
    ShardedFleetRunner fleet(config);
    const EventQueue& queue = fleet.shard(0).queue();

    std::vector<double> slice_ms;
    const auto start = std::chrono::steady_clock::now();
    while (queue.executed() < bench.min_events) {
        const std::uint64_t before = queue.executed();
        const auto t0 = std::chrono::steady_clock::now();
        fleet.Run(bench.slice);
        const auto t1 = std::chrono::steady_clock::now();
        slice_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        if (queue.executed() == before) {
            // Stalled fleet (e.g. drops shed the re-arm events): bail
            // out with what we have rather than spinning forever; the
            // caller fails the run on the event shortfall.
            break;
        }
    }
    const auto end = std::chrono::steady_clock::now();
    fleet.Stop();

    RunResult result;
    result.events = queue.executed();
    result.wall_seconds =
        std::chrono::duration<double>(end - start).count();
    result.events_per_sec =
        static_cast<double>(result.events) / result.wall_seconds;
    std::sort(slice_ms.begin(), slice_ms.end());
    result.p50_ms = Percentile(slice_ms, 0.50);
    result.p90_ms = Percentile(slice_ms, 0.90);
    result.p99_ms = Percentile(slice_ms, 0.99);
    result.max_ms = slice_ms.empty() ? 0.0 : slice_ms.back();
    result.sim_seconds = sol::sim::ToSeconds(queue.Now());
    result.trace_hash = queue.trace_hash();
    result.queue = queue.stats();
    result.fleet = fleet.Stats();
    return result;
}

}  // namespace

int
main(int argc, char** argv)
{
    BenchConfig bench;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            // CI-sized: same 77-agent node shape, smaller fleet/target.
            bench.num_nodes = 2;
            bench.min_events = 150'000;
        } else {
            std::cerr << "usage: micro_fleet [--smoke]\n";
            return 2;
        }
    }
    const std::size_t agents_per_node = bench.synthetic_agents + 4;

    std::cout << "=== micro_fleet: simulation-core throughput at fleet "
              << "scale ===\n";
    std::cout << "(" << bench.num_nodes << " nodes x " << agents_per_node
              << " agents, one shared EventQueue, >=" << bench.min_events
              << " events, run twice for determinism)\n\n";

    BenchJson json("micro_fleet");

    TableWriter config_table({"nodes", "agents/node", "total agents",
                              "seed", "slice ms", "min events"});
    config_table.AddRow(
        {std::to_string(bench.num_nodes),
         std::to_string(agents_per_node),
         std::to_string(bench.num_nodes * agents_per_node),
         std::to_string(bench.base_seed),
         TableWriter::Num(sol::sim::ToMillis(bench.slice), 0),
         std::to_string(bench.min_events)});
    config_table.Print(std::cout);
    json.AddTable("config", config_table);

    const RunResult a = RunFleet(bench);
    const RunResult b = RunFleet(bench);
    const bool deterministic =
        a.trace_hash == b.trace_hash && a.events == b.events;
    // Drops shed events (possibly stalling agents for the rest of the
    // run) and a stall leaves the event target unmet; either makes the
    // numbers invalid even when both runs degrade identically.
    const bool complete = a.queue.dropped == 0 && b.queue.dropped == 0 &&
                          a.events >= bench.min_events;

    std::cout << "\n";
    TableWriter throughput({"run", "events", "wall s", "events/sec",
                            "sim s", "slice p50 ms", "slice p90 ms",
                            "slice p99 ms", "slice max ms"});
    for (const auto* run : {&a, &b}) {
        throughput.AddRow({run == &a ? "1" : "2",
                           std::to_string(run->events),
                           TableWriter::Num(run->wall_seconds, 2),
                           TableWriter::Num(run->events_per_sec, 0),
                           TableWriter::Num(run->sim_seconds, 1),
                           TableWriter::Num(run->p50_ms, 2),
                           TableWriter::Num(run->p90_ms, 2),
                           TableWriter::Num(run->p99_ms, 2),
                           TableWriter::Num(run->max_ms, 2)});
    }
    throughput.Print(std::cout);
    json.AddTable("throughput", throughput);

    std::cout << "\n";
    TableWriter queue_table({"scheduled", "executed", "cancelled",
                             "dropped", "pending", "peak pending",
                             "arena slots", "arena blocks"});
    queue_table.AddRow({std::to_string(a.queue.scheduled),
                        std::to_string(a.queue.executed),
                        std::to_string(a.queue.cancelled),
                        std::to_string(a.queue.dropped),
                        std::to_string(a.queue.pending),
                        std::to_string(a.queue.peak_pending),
                        std::to_string(a.queue.arena_capacity),
                        std::to_string(a.queue.arena_blocks)});
    queue_table.Print(std::cout);
    json.AddTable("queue_stats", queue_table);

    std::cout << "\n";
    TableWriter fleet_table({"agents", "epochs", "actions",
                             "safeguard triggers", "arbiter requests",
                             "conflicts seen", "conflicts resolved"});
    fleet_table.AddRow({std::to_string(a.fleet.total_agents),
                        std::to_string(a.fleet.agents.epochs),
                        std::to_string(a.fleet.agents.actions_taken),
                        std::to_string(a.fleet.agents.safeguard_triggers),
                        std::to_string(a.fleet.arbiter_requests),
                        std::to_string(a.fleet.conflicts_observed),
                        std::to_string(a.fleet.conflicts_resolved)});
    fleet_table.Print(std::cout);
    json.AddTable("fleet_stats", fleet_table);

    std::cout << "\n";
    TableWriter determinism({"run 1 trace hash", "run 2 trace hash",
                             "deterministic"});
    determinism.AddRow({TableWriter::Hex(a.trace_hash),
                        TableWriter::Hex(b.trace_hash),
                        deterministic ? "yes" : "NO"});
    determinism.Print(std::cout);
    json.AddTable("determinism", determinism);

    std::cout << "\nSame seed, same trace: two independent "
              << (a.events >= 1'000'000 ? "million-event " : "")
              << "fleet runs must produce identical event traces; the "
              << "hash folds every (time, sequence) pair executed.\n";
    json.WriteFile();

    if (!deterministic) {
        std::cerr << "FAIL: fleet trace diverged between identical "
                  << "runs\n";
        return 1;
    }
    if (!complete) {
        std::cerr << "FAIL: run degraded (queue drops: "
                  << a.queue.dropped << "/" << b.queue.dropped
                  << ", events: " << a.events << " of "
                  << bench.min_events << " required)\n";
        return 1;
    }
    return 0;
}
