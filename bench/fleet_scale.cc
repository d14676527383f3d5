/**
 * @file
 * Thread-scaling bench for the sharded fleet executor.
 *
 * Where micro_fleet measures the serial fleet (every node interleaved
 * on one queue), fleet_scale measures the thing the sharded runner
 * exists for: the same fleet — 64 nodes × 77 agents, ~4.9k concurrent
 * learning agents — stepped across real worker threads, with hard
 * verdicts:
 *
 *  1. Determinism: the combined fleet trace hash (an order-independent
 *     fold of every shard's per-event (time, sequence) fingerprint)
 *     must be byte-identical across every tested thread count. Any
 *     divergence fails the bench (non-zero exit) — parallelism must
 *     never buy speed with correctness.
 *  2. Scaling: with enough hardware, 8 worker threads must deliver at
 *     least 3× the single-thread event throughput. The check is only
 *     enforced when the host actually has that many cores (CI smoke
 *     runs and laptop containers still verify determinism).
 *  3. Flight recorder: traced runs (one SPSC track per shard plus a
 *     fleet window track, all virtual-timestamped) must serialize
 *     byte-identical Chrome JSON across repeated runs AND across
 *     thread counts, must not perturb the simulation (same events,
 *     same fleet hash), and (in --smoke) must cost <= 5% CPU time, by
 *     the shared overhead protocol (overhead_gate.h).
 *     The widest traced run is written to TRACE_fleet_scale.json
 *     (Perfetto-loadable).
 *
 * The heterogeneous-load knobs are on (period jitter + burst-profile
 * synthetics), so shards carry non-uniform work and the scaling curve
 * reflects imbalance a real fleet would have, not a lockstep best
 * case. Results land in BENCH_fleet_scale.json: the per-thread-count
 * scaling curve plus the determinism, trace, and overhead verdicts.
 */
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet_runner.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace.h"

#include "overhead_gate.h"

using sol::bench::MeasureOverhead;
using sol::bench::OverheadProbe;
using sol::bench::ProcessCpuSeconds;
using sol::cluster::FleetStats;
using sol::fleet::FleetConfig;
using sol::fleet::ShardedFleetRunner;
using sol::sim::EventQueueStats;
using sol::telemetry::BenchJson;
using sol::telemetry::TableWriter;
using sol::telemetry::trace::ChromeTraceWriter;
using sol::telemetry::trace::TraceSession;

namespace {

struct BenchConfig {
    std::size_t num_nodes = 64;
    std::size_t synthetic_agents = 73;  ///< 73 + 4 real = 77 per node.
    std::uint64_t base_seed = 1;
    std::uint64_t min_events = 10'000'000;
    sol::sim::Duration window = sol::sim::Millis(100);
    std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
    double required_speedup = 3.0;  ///< At the largest thread count.
    bool smoke = false;
    /** Guard rail per shard; drops make the run invalid, not silent. */
    std::size_t queue_pending_limit = std::size_t{1} << 20;
};

struct RunResult {
    std::size_t threads = 0;
    std::uint64_t events = 0;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;  ///< Process CPU over the window loop.
    double events_per_sec = 0.0;
    double sim_seconds = 0.0;
    std::uint64_t trace_hash = 0;
    EventQueueStats queue;
    FleetStats fleet;
    std::string trace_json;             ///< Traced runs only.
    std::uint64_t trace_recorded = 0;   ///< Traced runs only.
    std::uint64_t trace_dropped = 0;    ///< Traced runs only.
};

RunResult
RunFleet(const BenchConfig& bench, std::size_t threads, bool traced)
{
    TraceSession session;
    FleetConfig config;
    config.num_nodes = bench.num_nodes;
    config.num_shards = bench.num_nodes;  // One shard per node.
    config.num_threads = threads;
    config.base_seed = bench.base_seed;
    config.window = bench.window;
    config.queue_pending_limit = bench.queue_pending_limit;
    config.node.synthetic_agents = bench.synthetic_agents;
    // Non-uniform shard load: heterogeneous synthetic schedules.
    config.node.synthetic.period_jitter = 0.15;
    config.node.synthetic.burst_fraction = 0.125;
    if (traced) {
        config.trace = &session;
    }
    ShardedFleetRunner runner(config);

    const auto start = std::chrono::steady_clock::now();
    const double cpu_start = ProcessCpuSeconds();
    while (runner.total_executed() < bench.min_events) {
        const std::uint64_t before = runner.total_executed();
        runner.Run(bench.window);
        if (runner.total_executed() == before) {
            break;  // Stalled fleet; the caller fails the shortfall.
        }
    }
    const double cpu_end = ProcessCpuSeconds();
    const auto end = std::chrono::steady_clock::now();
    runner.Stop();

    RunResult result;
    result.threads = runner.num_threads();
    result.events = runner.total_executed();
    result.wall_seconds =
        std::chrono::duration<double>(end - start).count();
    result.cpu_seconds = cpu_end - cpu_start;
    result.events_per_sec =
        static_cast<double>(result.events) / result.wall_seconds;
    result.sim_seconds = sol::sim::ToSeconds(runner.Now());
    result.trace_hash = runner.fleet_trace_hash();
    result.queue = runner.QueueStats();
    result.fleet = runner.Stats();
    if (traced) {
        result.trace_recorded = session.total_recorded();
        result.trace_dropped = session.total_dropped();
        // All workers are parked; draining here is quiescent.
        result.trace_json = ChromeTraceWriter::ToString(session);
    }
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
            // Smoke is the determinism gate; the scaling verdict is the
            // full bench's (CI runners are too small and too noisy for
            // a hard throughput assertion).
            bench.smoke = true;
            bench.num_nodes = 8;
            bench.min_events = 400'000;
            bench.thread_counts = {1, 2};
            bench.required_speedup = 0.0;
        } else {
            std::cerr << "usage: fleet_scale [--smoke]\n";
            return 2;
        }
    }
    const std::size_t agents_per_node = bench.synthetic_agents + 4;
    const unsigned hardware = std::thread::hardware_concurrency();

    std::cout << "=== fleet_scale: sharded fleet executor thread "
              << "scaling ===\n";
    std::cout << "(" << bench.num_nodes << " nodes x " << agents_per_node
              << " agents = " << bench.num_nodes * agents_per_node
              << " agents, one shard per node, >=" << bench.min_events
              << " events per run, " << hardware
              << " hardware threads)\n\n";

    BenchJson json("fleet_scale");

    TableWriter config_table({"nodes", "agents/node", "total agents",
                              "shards", "seed", "window ms",
                              "min events", "hw threads"});
    config_table.AddRow(
        {std::to_string(bench.num_nodes),
         std::to_string(agents_per_node),
         std::to_string(bench.num_nodes * agents_per_node),
         std::to_string(bench.num_nodes),
         std::to_string(bench.base_seed),
         TableWriter::Num(sol::sim::ToMillis(bench.window), 0),
         std::to_string(bench.min_events), std::to_string(hardware)});
    config_table.Print(std::cout);
    json.AddTable("config", config_table);

    std::vector<RunResult> runs;
    for (const std::size_t threads : bench.thread_counts) {
        runs.push_back(RunFleet(bench, threads, /*traced=*/false));
    }
    const RunResult& base = runs.front();

    // --- Flight-recorder legs. Two traced runs at the base thread
    // count (byte-determinism) and one at the widest (thread-count
    // invariance of the trace itself).
    const std::size_t base_threads = bench.thread_counts.front();
    const std::size_t widest_threads = bench.thread_counts.back();
    RunResult traced_a = RunFleet(bench, base_threads, /*traced=*/true);
    RunResult traced_b = RunFleet(bench, base_threads, /*traced=*/true);
    RunResult traced_wide =
        RunFleet(bench, widest_threads, /*traced=*/true);

    std::cout << "\n";
    TableWriter scaling({"threads", "events", "wall s", "events/sec",
                         "speedup", "sim s", "trace hash"});
    for (const RunResult& run : runs) {
        scaling.AddRow(
            {std::to_string(run.threads), std::to_string(run.events),
             TableWriter::Num(run.wall_seconds, 2),
             TableWriter::Num(run.events_per_sec, 0),
             TableWriter::Num(run.events_per_sec / base.events_per_sec,
                              2),
             TableWriter::Num(run.sim_seconds, 1),
             TableWriter::Hex(run.trace_hash)});
    }
    scaling.Print(std::cout);
    json.AddTable("scaling", scaling);

    std::cout << "\n";
    TableWriter queue_table({"scheduled", "executed", "cancelled",
                             "dropped", "pending", "peak pending",
                             "arena slots"});
    queue_table.AddRow({std::to_string(base.queue.scheduled),
                        std::to_string(base.queue.executed),
                        std::to_string(base.queue.cancelled),
                        std::to_string(base.queue.dropped),
                        std::to_string(base.queue.pending),
                        std::to_string(base.queue.peak_pending),
                        std::to_string(base.queue.arena_capacity)});
    queue_table.Print(std::cout);
    json.AddTable("queue_stats", queue_table);

    std::cout << "\n";
    TableWriter fleet_table({"agents", "epochs", "actions",
                             "safeguard triggers", "arbiter requests",
                             "conflicts seen", "conflicts resolved"});
    fleet_table.AddRow({std::to_string(base.fleet.total_agents),
                        std::to_string(base.fleet.agents.epochs),
                        std::to_string(base.fleet.agents.actions_taken),
                        std::to_string(base.fleet.agents.safeguard_triggers),
                        std::to_string(base.fleet.arbiter_requests),
                        std::to_string(base.fleet.conflicts_observed),
                        std::to_string(base.fleet.conflicts_resolved)});
    fleet_table.Print(std::cout);
    json.AddTable("fleet_stats", fleet_table);

    bool deterministic = true;
    for (const RunResult& run : runs) {
        deterministic = deterministic &&
                        run.trace_hash == base.trace_hash &&
                        run.events == base.events;
    }
    bool complete = base.events >= bench.min_events;
    for (const RunResult& run : runs) {
        complete = complete && run.queue.dropped == 0;
    }

    // Trace verdicts: identical bytes across repeated runs and across
    // thread counts, and tracing leaves the simulation untouched.
    const bool trace_repeatable = traced_a.trace_json == traced_b.trace_json;
    const bool trace_thread_invariant =
        traced_wide.trace_json == traced_a.trace_json;
    const bool trace_nonperturbing =
        traced_a.trace_hash == base.trace_hash &&
        traced_a.events == base.events;
    if (!trace_repeatable) {
        std::cerr << "FAIL: traced runs serialized different bytes ("
                  << traced_a.trace_json.size() << " vs "
                  << traced_b.trace_json.size() << ")\n";
    }
    if (!trace_thread_invariant) {
        std::cerr << "FAIL: trace bytes differ across thread counts ("
                  << traced_a.trace_json.size() << " vs "
                  << traced_wide.trace_json.size() << ")\n";
    }
    if (!trace_nonperturbing) {
        std::cerr << "FAIL: tracing perturbed the simulation (hash "
                  << TableWriter::Hex(traced_a.trace_hash) << " vs "
                  << TableWriter::Hex(base.trace_hash) << ", events "
                  << traced_a.events << " vs " << base.events << ")\n";
    }

    // Tracer cost: interleaved untraced/traced pairs at the base thread
    // count, by the shared overhead protocol (overhead_gate.h).
    const OverheadProbe overhead = MeasureOverhead(
        bench.smoke,
        [&](std::size_t) {
            return RunFleet(bench, base_threads, /*traced=*/false)
                .cpu_seconds;
        },
        [&](std::size_t) {
            return RunFleet(bench, base_threads, /*traced=*/true)
                .cpu_seconds;
        });
    const bool overhead_ok = overhead.Check("tracer");

    std::cout << "\n";
    TableWriter tracer({"leg", "threads", "events", "median cpu ms",
                        "events/cpu-sec", "recorded", "dropped"});
    tracer.AddRow({"untraced", std::to_string(base_threads),
                   std::to_string(base.events),
                   TableWriter::Num(overhead.off_cpu_s * 1e3, 1),
                   TableWriter::Num(static_cast<double>(base.events) /
                                        overhead.off_cpu_s,
                                    0),
                   "0", "0"});
    tracer.AddRow({"traced", std::to_string(base_threads),
                   std::to_string(traced_a.events),
                   TableWriter::Num(overhead.on_cpu_s * 1e3, 1),
                   TableWriter::Num(static_cast<double>(traced_a.events) /
                                        overhead.on_cpu_s,
                                    0),
                   std::to_string(traced_a.trace_recorded),
                   std::to_string(traced_a.trace_dropped)});
    tracer.AddRow({"overhead", "-", "-", "-",
                   TableWriter::Num(overhead.overhead * 100.0, 2) + "%",
                   "-", "-"});
    tracer.Print(std::cout);
    json.AddTable("tracer_overhead", tracer);

    const bool wrote_trace = ChromeTraceWriter::WriteFile(
        "fleet_scale", traced_wide.trace_json);

    const RunResult& widest = runs.back();
    const double speedup =
        widest.events_per_sec / base.events_per_sec;
    // Scaling is only a hard verdict when the host has the cores to
    // deliver it; determinism is a hard verdict everywhere.
    const bool scaling_measurable =
        hardware >= widest.threads && widest.threads > 1 &&
        bench.required_speedup > 0.0;
    const bool scaled =
        !scaling_measurable || speedup >= bench.required_speedup;

    std::cout << "\n";
    TableWriter verdict({"deterministic", "trace bytes", "trace vs hash",
                         "tracer overhead", "speedup@" +
                                               std::to_string(
                                                   widest.threads),
                         "required", "scaling enforced"});
    verdict.AddRow(
        {deterministic ? "yes" : "NO",
         trace_repeatable && trace_thread_invariant ? "identical"
                                                    : "DIVERGED",
         trace_nonperturbing ? "unperturbed" : "PERTURBED",
         overhead.Verdict(),
         TableWriter::Num(speedup, 2),
         TableWriter::Num(bench.required_speedup, 1),
         scaling_measurable ? "yes" : "no (too few cores)"});
    verdict.Print(std::cout);
    json.AddTable("verdict", verdict);

    std::cout << "\nSame seed, same shards, different thread counts: "
              << "every run must replay byte-identical per-shard "
              << "traces; the fleet hash folds them "
              << "order-independently.\n";
    json.WriteFile();
    if (wrote_trace) {
        std::cout << "trace: TRACE_fleet_scale.json ("
                  << traced_wide.trace_recorded << " events recorded, "
                  << traced_wide.trace_dropped << " dropped)\n";
    }

    if (!deterministic) {
        std::cerr << "FAIL: fleet trace diverged across thread "
                  << "counts\n";
        return 1;
    }
    if (!complete) {
        std::cerr << "FAIL: run degraded (events: " << base.events
                  << " of " << bench.min_events
                  << " required, drops must be zero)\n";
        return 1;
    }
    if (!trace_repeatable || !trace_thread_invariant ||
        !trace_nonperturbing || !overhead_ok) {
        std::cerr << "FAIL: flight-recorder verdicts failed\n";
        return 1;
    }
    if (!scaled) {
        std::cerr << "FAIL: speedup at " << widest.threads
                  << " threads is " << speedup << "x, required "
                  << bench.required_speedup << "x\n";
        return 1;
    }
    return 0;
}
