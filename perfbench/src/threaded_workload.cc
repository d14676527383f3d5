/**
 * @file
 * threaded_node: one cluster::ThreadedMultiAgentNode (77 agents, two OS
 * threads each) on node_concurrency's wall-clock cadence. The main
 * thread only sleeps and reads the node's public stats.
 *
 * The node's "window" is a fixed quantum of work, kEpochsPerWindow
 * completed epochs across the node, timed by polling TotalEpochs()
 * every millisecond and interpolating the crossing instants — the
 * threaded counterpart of a fleet window's fixed span of virtual time.
 * An "event" is an agent op (samples + model assessments + actions +
 * actuator assessments): the node has no event queue.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/threaded_multi_agent_node.h"
#include "sim/rng.h"

#include "probes.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Node = sol::cluster::ThreadedMultiAgentNode<>;

constexpr std::uint64_t kEpochsPerWindow = 2500;
/** Short node lifetimes, so host CPU steal can be told apart per
 *  lifetime (see Quietest). */
constexpr double kLifetimeSeconds = 0.8;
/** Lifetimes the figures come from: every quiet one (host steal below
 *  kQuietSteal), at least kMinMeasured (the quietest, when fewer were
 *  quiet) and at most kMaxMeasured, which keeps the pooled windows
 *  below 1000 (p90 stays the highest percentile with >= 10 beyond). */
constexpr std::size_t kMinMeasured = 10;
constexpr std::size_t kMaxMeasured = 50;
/** While fewer than kMinMeasured lifetimes were quiet, lifetimes
 *  continue past --seconds up to this multiple of it. Longer than the
 *  fleets' stretch: the epoch tail of 156 threads on 4 CPUs is the
 *  figure host steal moves most (2-3x in a steal episode). */
constexpr double kMaxStretch = 2.5;

/** Rate segments; the first of each lifetime is thread ramp-up. */
constexpr double kSegmentSeconds = 0.1;

sol::cluster::MultiAgentNodeConfig
MakeConfig(std::uint64_t seed)
{
    sol::cluster::MultiAgentNodeConfig config;
    config.seed = sol::sim::DeriveStreamSeed(seed, 3);
    config.synthetic_agents = 73;  // + 4 real agents = 77.
    config.arbiter.track_contention = true;
    // node_concurrency's wall-clock cadence.
    config.synthetic.data_collect_interval = sol::sim::Micros(200);
    config.synthetic.max_epoch_time = sol::sim::Millis(5);
    config.synthetic.max_actuation_delay = sol::sim::Millis(10);
    config.synthetic.assess_actuator_interval = sol::sim::Millis(2);
    config.synthetic.prediction_ttl = sol::sim::Millis(10);
    config.synthetic.expand_fraction = 0.5;
    return config;
}

/** One node lifetime: Start, run for a wall span, Stop, check. */
struct NodeRun {
    double setup_s = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::vector<double> ops_per_s;     ///< Per segment.
    std::vector<double> cpu_us_per_op; ///< Per segment.
    std::vector<double> window_ms;
    int max_threads = 0;
    double steal = 0.0;  ///< Host CPU share stolen during the lifetime.
    sol::core::RuntimeStats stats;
    sol::telemetry::LatencyHistogram epochs;
    sol::telemetry::LatencyHistogram admit;
    sol::telemetry::LatencyHistogram lock_wait;
    std::uint64_t requests = 0;
    std::uint64_t conflicts_observed = 0;
    std::uint64_t conflicts_resolved = 0;
};

NodeRun
RunNode(const sol::cluster::MultiAgentNodeConfig& config, double seconds,
        SpanLog* spans, Checks& checks)
{
    NodeRun run;
    ScopedSpan root(spans, "threaded_node_run", "bench");
    std::unique_ptr<Node> node;
    {
        ScopedSpan span(spans, "setup", "cluster", root.index());
        const double t0 = NowSeconds();
        node = std::make_unique<Node>(config);
        node->Start();
        run.setup_s = NowSeconds() - t0;
    }

    const HostCpuTicks host_start = ReadHostCpuTicks();
    const double start = NowSeconds();
    const double cpu_start = ProcessCpuSeconds();
    double seg_wall = start;
    double seg_cpu = cpu_start;
    std::uint64_t seg_ops = 0;
    double prev_t = start;
    std::uint64_t prev_epochs = 0;
    std::uint64_t next_mark = kEpochsPerWindow;
    double last_cross = start;
    int segment_span =
        spans != nullptr ? spans->Open("run_segment", "cluster", root.index())
                         : -1;
    while (NowSeconds() - start < seconds) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const double now = NowSeconds();
        const std::uint64_t epochs = node->TotalEpochs();
        while (epochs >= next_mark) {
            const double frac =
                static_cast<double>(next_mark - prev_epochs) /
                static_cast<double>(std::max<std::uint64_t>(
                    epochs - prev_epochs, 1));
            const double cross = prev_t + frac * (now - prev_t);
            run.window_ms.push_back((cross - last_cross) * 1e3);
            last_cross = cross;
            next_mark += kEpochsPerWindow;
        }
        prev_t = now;
        prev_epochs = epochs;
        if (now - seg_wall >= kSegmentSeconds) {
            const std::uint64_t ops = AgentOps(node->AggregateStats());
            const double cpu = ProcessCpuSeconds();
            const auto done = static_cast<double>(ops - seg_ops);
            run.ops_per_s.push_back(done / (now - seg_wall));
            run.cpu_us_per_op.push_back((cpu - seg_cpu) * 1e6 /
                                        std::max(done, 1.0));
            run.max_threads = std::max(run.max_threads, ProcessThreads());
            seg_wall = now;
            seg_cpu = cpu;
            seg_ops = ops;
            if (spans != nullptr) {
                spans->Close(segment_span);
                segment_span =
                    spans->Open("run_segment", "cluster", root.index());
            }
        }
    }
    if (spans != nullptr) {
        spans->Close(segment_span);
    }
    {
        ScopedSpan span(spans, "stop", "cluster", root.index());
        node->Stop();
    }
    run.wall_s = NowSeconds() - start;
    run.cpu_s = ProcessCpuSeconds() - cpu_start;
    run.steal = StealShare(host_start, ReadHostCpuTicks());
    {
        ScopedSpan span(spans, "collect_metrics", "cluster", root.index());
        node->CollectMetrics();
    }

    run.stats = node->AggregateStats();
    run.epochs = node->EpochLatencyHistogram();
    sol::cluster::InterferenceArbiter& arbiter = node->arbiter();
    run.admit = arbiter.admit_histogram();
    run.lock_wait = arbiter.lock_wait_histogram();
    run.requests = arbiter.requests();
    run.conflicts_observed = arbiter.conflicts_observed();
    run.conflicts_resolved = arbiter.conflicts_resolved();

    checks.Expect(PublishedRequests(node->metrics()) == run.requests,
                  "threaded node: published per-agent requests != global");
    checks.Expect(run.conflicts_resolved <= run.conflicts_observed,
                  "threaded node: resolved conflicts > observed");
    checks.Expect(run.stats.epochs > 0 && run.stats.actions_taken > 0 &&
                      run.requests > 0,
                  "threaded node made no progress");
    checks.Expect(run.stats.actions_taken ==
                      run.stats.actions_with_prediction +
                          run.stats.actuator_timeouts,
                  "threaded node: actions != with_prediction + timeouts");
    {
        ScopedSpan span(spans, "cleanup_all", "cluster", root.index());
        node->CleanUpAll();
    }
    std::size_t holding = 0;
    for (std::size_t i = 0; i < node->num_synthetic_agents(); ++i) {
        holding += node->synthetic_agent(i).actuator().holding() ? 1 : 0;
    }
    checks.Expect(holding == 0, "threaded node: " + std::to_string(holding) +
                                    " agents hold a domain after CleanUpAll");
    return run;
}

RunOutcome
EndToEnd(const Options& options, Checks& checks)
{
    const sol::cluster::MultiAgentNodeConfig config = MakeConfig(options.seed);
    // Short node lifetimes back to back for --seconds, longer (up to
    // kMaxStretch times) while fewer than kMinMeasured ran on a quiet
    // host. Set-up is the median over all of them; every other figure
    // comes from the measured lifetimes (see kMinMeasured): epoch
    // percentiles and the failed ratio as medians over them, rates and
    // windows pooled from them after each lifetime's first segment and
    // window (thread ramp-up).
    std::vector<NodeRun> runs;
    std::vector<double> setup;
    std::vector<double> steal;
    std::size_t quiet_lifetimes = 0;
    double peak_rss_mb = 0.0;
    RunOutcome out;
    const double start = NowSeconds();
    while (true) {
        const double elapsed = NowSeconds() - start;
        if (elapsed >= options.seconds &&
            runs.size() >= kMinMeasured &&
            (quiet_lifetimes >= kMinMeasured ||
             elapsed >= kMaxStretch * options.seconds)) {
            break;
        }
        runs.push_back(RunNode(config, kLifetimeSeconds, nullptr, checks));
        if (runs.size() == kMinMeasured) {
            // Thread stacks and allocator arenas of ended lifetimes stay
            // resident, so the peak is read after a fixed number.
            peak_rss_mb = PeakRssMb();
        }
        setup.push_back(runs.back().setup_s);
        steal.push_back(runs.back().steal);
        quiet_lifetimes += runs.back().steal < kQuietSteal ? 1 : 0;
        out.attempted += AgentOps(runs.back().stats);
    }
    std::vector<double> ops_per_s;
    std::vector<double> cpu_us_per_op;
    std::vector<double> windows;
    std::vector<double> failed;
    std::vector<double> epoch_p50;
    std::vector<double> epoch_p99;
    int max_threads = 0;
    const std::vector<std::size_t> quiet = Quietest(
        steal, std::clamp(quiet_lifetimes, kMinMeasured, kMaxMeasured));
    for (const std::size_t i : quiet) {
        const NodeRun& run = runs[i];
        const auto after_first = [](std::vector<double>& into,
                                    const std::vector<double>& from) {
            if (from.size() > 1) {
                into.insert(into.end(), from.begin() + 1, from.end());
            }
        };
        after_first(ops_per_s, run.ops_per_s);
        after_first(cpu_us_per_op, run.cpu_us_per_op);
        after_first(windows, run.window_ms);
        failed.push_back(DenialRatio(run.conflicts_resolved, run.requests));
        epoch_p50.push_back(InterpolatedPercentile(run.epochs, 50.0));
        epoch_p99.push_back(InterpolatedPercentile(run.epochs, 99.0));
        max_threads = std::max(max_threads, run.max_threads);
    }
    checks.Expect(windows.size() >= 100,
                  "threaded node: fewer than 100 work windows (" +
                      std::to_string(windows.size()) +
                      "); the p90 tail needs >= 10 beyond it");

    Metrics& m = out.metrics;
    Set(m, "setup_s", Median(setup));
    Set(m, "events_per_s", Median(ops_per_s));
    Set(m, "cpu_ns_per_event", Median(cpu_us_per_op) * 1e3);
    Set(m, "window_p50_ms", Median(windows));
    Set(m, "window_tail_ms", Percentile(windows, 90.0));
    Set(m, "peak_rss_mb", peak_rss_mb);
    Set(m, "failed_ratio", Median(failed));
    Set(m, "agent_ops_per_s", Median(ops_per_s));
    Set(m, "cpu_us_per_agent_op", Median(cpu_us_per_op));
    Set(m, "epoch_p50_us", Median(epoch_p50) * 1e-3);
    Set(m, "epoch_p99_us", Median(epoch_p99) * 1e-3);

    out.notes["lifetimes"] = std::to_string(runs.size());
    out.notes["quiet_lifetimes"] = std::to_string(quiet_lifetimes);
    out.notes["lifetimes_measured"] = std::to_string(quiet.size());
    out.notes["steal_median_all"] = std::to_string(Median(steal));
    std::vector<double> quiet_steal;
    for (const std::size_t i : quiet) {
        quiet_steal.push_back(steal[i]);
    }
    out.notes["steal_median_measured"] = std::to_string(Median(quiet_steal));
    out.notes["segments"] = std::to_string(ops_per_s.size());
    out.notes["windows"] = std::to_string(windows.size());
    out.notes["epochs_per_window"] = std::to_string(kEpochsPerWindow);
    out.notes["window_tail_percentile"] = "p90";
    out.notes["max_threads"] = std::to_string(max_threads);
    return out;
}

RunOutcome
PerLayer(const Options& options, Checks& checks, SpanLog& spans)
{
    const sol::cluster::MultiAgentNodeConfig config = MakeConfig(options.seed);
    const double leg_seconds = std::max(1.0, 0.3 * options.seconds);
    const NodeRun untraced = RunNode(config, leg_seconds, nullptr, checks);
    spans.BeginRun("traced_node");
    const NodeRun traced = RunNode(config, leg_seconds, &spans, checks);

    spans.BeginRun("probes");
    const int probes = spans.Open("probes", "bench");
    const std::uint64_t probe_seed =
        sol::sim::DeriveStreamSeed(options.seed, 4);
    const EngineProbe engine = ProbeEpochEngine(
        sol::cluster::MakeSyntheticSchedule(config.synthetic),
        /*threaded=*/true, &spans, probes, checks);
    const NodeProbe node = ProbeNode(config, &spans, probes, checks);
    const ProbeResult admit =
        ProbeAdmit(config.arbiter, NodeRequestMix(config, 200'000, probe_seed),
                   &spans, probes, checks);
    const ContendedProbe contended = ProbeAdmitContended(
        std::max(1u, std::thread::hardware_concurrency()), probe_seed, &spans,
        probes, checks);
    const ProbeResult hist = ProbeHistogramRecord(untraced.epochs, probe_seed,
                                                  &spans, probes, checks);
    spans.Close(probes);

    RunOutcome out;
    Metrics& m = out.metrics;
    const sol::core::RuntimeStats& s = untraced.stats;
    const auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };
    // No event queue on this node: every sim metric reads 0, and so do
    // the fleet, shard, trace-ring, alert and trace-driver metrics.
    for (const MetricName& metric : PerLayerMetrics()) {
        Set(m, metric.name, 0.0);
    }
    Set(m, "core.collect_ns", engine.collect.ns_per_op);
    Set(m, "core.finish_epoch_ns", engine.finish_epoch.ns_per_op);
    Set(m, "core.actuator_wake_ns", engine.actuator_wake.ns_per_op);
    Set(m, "core.assess_actuator_ns", engine.assess_actuator.ns_per_op);
    Set(m, "core.events_per_epoch", u64(AgentOps(s)) / u64(s.epochs));
    Set(m, "core.threads", untraced.max_threads);
    Set(m, "core.expired_predictions", u64(s.expired_predictions));
    Set(m, "core.epochs", u64(s.epochs));
    Set(m, "core.samples_collected", u64(s.samples_collected));
    Set(m, "core.actions_taken", u64(s.actions_taken));
    Set(m, "core.safeguard_triggers", u64(s.safeguard_triggers));
    Set(m, "node.advance_ns", node.advance.ns_per_op);
    Set(m, "node.power_ns", node.power.ns_per_op);
    Set(m, "cluster.admit_ns", admit.ns_per_op);
    Set(m, "cluster.admit_contended_ns", contended.admit.ns_per_op);
    Set(m, "cluster.admit_p99_ns",
        InterpolatedPercentile(untraced.admit, 99.0));
    Set(m, "cluster.lock_wait_p99_ns",
        InterpolatedPercentile(untraced.lock_wait, 99.0));
    Set(m, "cluster.arbiter_requests", u64(untraced.requests));
    Set(m, "cluster.conflicts_observed", u64(untraced.conflicts_observed));
    Set(m, "cluster.conflicts_resolved", u64(untraced.conflicts_resolved));
    Set(m, "cluster.denial_ratio",
        DenialRatio(untraced.conflicts_resolved, untraced.requests));
    Set(m, "telemetry.hist_record_ns", hist.ns_per_op);

    // Accounting identity over the node's CPU time: the engine steps,
    // arbiter admissions and the driver thread's substrate ticks.
    const double node_ticks = untraced.wall_s * 1e9 /
                              static_cast<double>(config.node_tick.count());
    const double attributed_ns =
        u64(s.samples_collected) * engine.collect.ns_per_op +
        u64(s.epochs) * engine.finish_epoch.ns_per_op +
        u64(s.actions_taken) * engine.actuator_wake.ns_per_op +
        u64(s.actuator_assessments) * engine.assess_actuator.ns_per_op +
        u64(untraced.requests) * admit.ns_per_op +
        node_ticks * node.advance.ns_per_op;
    Set(m, "ledger.attributed_share", attributed_ns * 1e-9 / untraced.cpu_s);
    const double untraced_cost = untraced.cpu_s / u64(AgentOps(s));
    const double traced_cost =
        traced.cpu_s / u64(std::max<std::uint64_t>(AgentOps(traced.stats), 1));
    Set(m, "bench.trace_overhead", traced_cost / untraced_cost - 1.0);

    out.attempted = AgentOps(s);
    out.notes["untraced_wall_s"] = std::to_string(untraced.wall_s);
    out.notes["untraced_cpu_s"] = std::to_string(untraced.cpu_s);
    return out;
}

}  // namespace

RunOutcome
RunThreadedWorkload(const Options& options, Checks& checks, SpanLog* spans)
{
    return spans == nullptr ? EndToEnd(options, checks)
                            : PerLayer(options, checks, *spans);
}

}  // namespace perfbench
