/**
 * @file
 * fleet_steady and fleet_storm: sharded fleets stepped through
 * fleet::ShardedFleetRunner, one timed Run(window) at a time.
 *
 * An untraced run (--trace 0) replays the workload from virtual time 0
 * for --seconds (longer while host CPU steal left too few quiet
 * replays), then once more at a second thread count. Every replay must
 * reproduce the first one's fleet trace hash and event count (and, on
 * fleet_storm, its health timeline hash and alert log); end-to-end
 * figures are medians and percentiles over the windows of the replays
 * run on a quiet host.
 *
 * A traced run (--trace 1) alternates untraced and traced replays (the
 * benchmark's own spans around setup, each window and the metric
 * collection), steps an identically seeded fleet shard by shard through
 * cluster::NodeShard::RunUntil, and runs the layer probes on the shapes
 * the replay produced.
 */
#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/node_shard.h"
#include "fleet/fleet_runner.h"
#include "sim/rng.h"
#include "telemetry/alerting.h"
#include "telemetry/metric_registry.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"
#include "workloads/scenarios.h"
#include "workloads/trace_driver.h"

#include "probes.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sol::sim::Duration;
using sol::sim::TimePoint;

constexpr Duration kWindow = sol::sim::Millis(100);
constexpr std::size_t kPendingLimit = std::size_t{1} << 20;
constexpr int kSetupOnlySamples = 8;
/** While fewer than FleetSpec::min_measured replays were quiet, replays
 *  continue past --seconds up to this multiple of it. */
constexpr double kMaxStretch = 1.5;

/** Fixed shape of one fleet workload. */
struct FleetSpec {
    std::size_t nodes = 0;
    std::size_t synthetics = 73;  ///< Plus the 4 real agents = 77.
    std::size_t threads = 1;
    std::size_t cross_threads = 2;  ///< Thread count of the cross-check.
    Duration horizon{0};
    /** Replays the figures come from: every quiet one (host steal
     *  below kQuietSteal), at least min_measured (the quietest, when
     *  fewer were quiet) and at most max_measured. The bounds keep
     *  100 to 999 windows, so the p90 tail has >= 10 beyond it and
     *  stays the highest percentile that does. */
    std::size_t min_measured = 0;
    std::size_t max_measured = 0;
    bool storm = false;
};

FleetSpec
SpecFor(const std::string& workload)
{
    FleetSpec spec;
    if (workload == "fleet_steady") {
        spec.nodes = 64;
        spec.threads = 1;
        spec.cross_threads = 2;
        spec.horizon = sol::sim::Seconds(2);
        spec.min_measured = 6;
        spec.max_measured = 49;
    } else {
        spec.nodes = 16;
        spec.threads = 2;
        spec.cross_threads = 1;
        spec.horizon = sol::sim::Seconds(8);
        spec.min_measured = 2;
        spec.max_measured = 12;
        spec.storm = true;
    }
    return spec;
}

/** Everything a replay needs besides the thread count. */
struct FleetInputs {
    FleetSpec spec;
    std::uint64_t fleet_seed = 1;
    const sol::workloads::Scenario* scenario = nullptr;
    std::unique_ptr<sol::workloads::TraceDriver> driver;
    sol::cluster::MultiAgentNodeConfig node;
};

FleetInputs
MakeInputs(const std::string& workload, std::uint64_t seed)
{
    FleetInputs in;
    in.spec = SpecFor(workload);
    in.fleet_seed = sol::sim::DeriveStreamSeed(seed, 1);
    in.node.synthetic_agents = in.spec.synthetics;
    if (!in.spec.storm) {
        // fleet_scale's heterogeneous load.
        in.node.synthetic.period_jitter = 0.15;
        in.node.synthetic.burst_fraction = 0.125;
        return in;
    }
    in.scenario = sol::workloads::FindScenario("cascading_safeguards");
    if (in.scenario == nullptr) {
        throw std::runtime_error("scenario cascading_safeguards not found");
    }
    const sol::workloads::ScenarioShape shape{in.spec.nodes,
                                              in.spec.synthetics,
                                              in.spec.horizon};
    const std::size_t tenants = shape.num_nodes * shape.synthetic_agents;
    sol::workloads::TraceDriverConfig driver =
        in.scenario->build_driver(shape, tenants);
    driver.num_tenants = tenants;
    driver.seed = sol::sim::DeriveStreamSeed(seed, 2);
    in.driver = std::make_unique<sol::workloads::TraceDriver>(driver);
    in.node.trace_driver = in.driver.get();
    if (in.scenario->customize_node) {
        in.scenario->customize_node(in.node);
    }
    return in;
}

/** The runner configuration every replay of `in` shares. */
sol::fleet::FleetConfig
MakeFleetConfig(const FleetInputs& in, std::size_t threads)
{
    sol::fleet::FleetConfig config;
    config.num_nodes = in.spec.nodes;
    config.num_shards = in.spec.nodes;  // One shard per node.
    config.num_threads = threads;
    config.base_seed = in.fleet_seed;
    config.window = kWindow;
    config.queue_pending_limit = kPendingLimit;
    config.node = in.node;
    return config;
}

/**
 * A replay's runner configuration plus the telemetry it points at (the
 * flight recorder, health store and alert engine of fleet_storm).
 */
struct Rig {
    Rig(const FleetInputs& in, std::size_t threads)
        : config(MakeFleetConfig(in, threads))
    {
        if (in.spec.storm) {
            alerts.AddRules(sol::telemetry::DefaultFleetAlertRules());
            config.trace = &session;
            config.health = health.get();
            config.alerts = &alerts;
            config.metrics_every_n_windows = 1;
        }
    }

    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    sol::telemetry::trace::TraceSession session;
    std::unique_ptr<sol::telemetry::TimeSeriesStore> health =
        std::make_unique<sol::telemetry::TimeSeriesStore>();
    sol::telemetry::AlertEngine alerts;
    sol::fleet::FleetConfig config;
};

/** One replay of the workload from virtual time 0. */
struct Leg {
    std::size_t threads = 0;
    double setup_s = 0.0;
    double step_wall_s = 0.0;
    double step_cpu_s = 0.0;
    double steal = 0.0;  ///< Host CPU share stolen while stepping.
    std::vector<double> window_ms;
    /** Per window: events executed, agent ops and process CPU seconds. */
    std::vector<double> window_events;
    std::vector<double> window_ops;
    std::vector<double> window_cpu_s;
    int threads_seen = 0;
    double collect_metrics_ms = 0.0;

    std::uint64_t events = 0;
    std::uint64_t hash = 0;
    sol::sim::EventQueueStats queue;
    sol::cluster::FleetStats fleet;
    sol::core::RuntimeStats agents;
    sol::telemetry::LatencyHistogram epochs;

    // fleet_storm only.
    std::uint64_t timeline_hash = 0;
    std::uint64_t health_samples = 0;
    std::vector<sol::telemetry::AlertEvent> alerts;
    std::uint64_t trace_recorded = 0;
    std::uint64_t trace_dropped = 0;
    std::unique_ptr<sol::telemetry::TimeSeriesStore> health;
};

/**
 * Replays the workload once. With `spans`, records the setup, every
 * window and the metric collection under one root span (a traced leg).
 */
Leg
RunLeg(const FleetInputs& in, std::size_t threads, SpanLog* spans)
{
    const FleetSpec& spec = in.spec;
    Rig rig(in, threads);
    Leg leg;
    leg.threads = threads;
    ScopedSpan root(spans, "fleet_replay", "bench");
    std::unique_ptr<sol::fleet::ShardedFleetRunner> runner;
    {
        ScopedSpan span(spans, "setup", "fleet", root.index());
        const double t0 = NowSeconds();
        runner = std::make_unique<sol::fleet::ShardedFleetRunner>(rig.config);
        leg.setup_s = NowSeconds() - t0;
    }

    const auto windows =
        static_cast<std::size_t>(spec.horizon.count() / kWindow.count());
    leg.window_ms.reserve(windows);
    const auto agent_ops = [&runner, &spec] {
        std::uint64_t ops = 0;
        for (std::size_t i = 0; i < spec.nodes; ++i) {
            ops += AgentOps(runner->node(i).AggregateStats());
        }
        return ops;
    };
    std::uint64_t events_before = 0;
    std::uint64_t ops_before = 0;
    const HostCpuTicks host_start = ReadHostCpuTicks();
    for (std::size_t w = 0; w < windows; ++w) {
        ScopedSpan span(spans, "run_window", "fleet", root.index());
        const double cpu0 = ProcessCpuSeconds();
        const std::int64_t t0 = NowNs();
        runner->Run(kWindow);
        const std::int64_t elapsed = NowNs() - t0;
        const double cpu = ProcessCpuSeconds() - cpu0;
        const std::uint64_t events = runner->total_executed();
        const std::uint64_t ops = agent_ops();
        leg.window_ms.push_back(static_cast<double>(elapsed) * 1e-6);
        leg.window_cpu_s.push_back(cpu);
        leg.window_events.push_back(
            static_cast<double>(events - events_before));
        leg.window_ops.push_back(static_cast<double>(ops - ops_before));
        leg.step_wall_s += static_cast<double>(elapsed) * 1e-9;
        leg.step_cpu_s += cpu;
        events_before = events;
        ops_before = ops;
        if (w == 0) {
            leg.threads_seen = ProcessThreads();
        }
    }
    leg.steal = StealShare(host_start, ReadHostCpuTicks());
    runner->Stop();

    leg.events = runner->total_executed();
    leg.hash = runner->fleet_trace_hash();
    leg.queue = runner->QueueStats();
    leg.fleet = runner->Stats();
    for (std::size_t i = 0; i < spec.nodes; ++i) {
        leg.agents.Accumulate(runner->node(i).AggregateStats());
        leg.epochs.Merge(runner->node(i).EpochLatencyHistogram());
    }
    if (spans != nullptr) {
        ScopedSpan span(spans, "collect_fleet_metrics", "fleet",
                        root.index());
        sol::telemetry::MetricRegistry registry;
        const std::int64_t t0 = NowNs();
        runner->CollectFleetMetrics(registry);
        leg.collect_metrics_ms = static_cast<double>(NowNs() - t0) * 1e-6;
    }
    if (spec.storm) {
        leg.timeline_hash = rig.health->timeline_hash();
        leg.health_samples = rig.health->total_appended();
        leg.alerts = rig.alerts.events();
        leg.trace_recorded = rig.session.total_recorded();
        leg.trace_dropped = rig.session.total_dropped();
        leg.health = std::move(rig.health);
    }
    return leg;
}

/** Checks `leg` reproduced `first` exactly. */
void
ExpectSameSimulation(const Leg& first, const Leg& leg, bool storm,
                     Checks& checks)
{
    const std::string what = "replay at " + std::to_string(leg.threads) +
                             " thread(s) diverged from the first replay: ";
    checks.Expect(leg.hash == first.hash, what + "fleet trace hash");
    checks.Expect(leg.events == first.events, what + "event count");
    checks.Expect(leg.queue.scheduled == first.queue.scheduled &&
                      leg.queue.cancelled == first.queue.cancelled &&
                      leg.fleet.arbiter_requests ==
                          first.fleet.arbiter_requests &&
                      leg.fleet.conflicts_observed ==
                          first.fleet.conflicts_observed &&
                      leg.agents.epochs == first.agents.epochs,
                  what + "sim/core/cluster counts");
    if (storm) {
        checks.Expect(leg.timeline_hash == first.timeline_hash &&
                          leg.health_samples == first.health_samples,
                      what + "health timeline");
        checks.Expect(leg.alerts == first.alerts, what + "alert log");
    }
}

/** Checks that hold for every replay on its own. */
void
ExpectHealthyLeg(const FleetInputs& in, const Leg& leg, Checks& checks)
{
    checks.Expect(leg.queue.dropped == 0,
                  "queue dropped " + std::to_string(leg.queue.dropped) +
                      " events (lossy backpressure)");
    checks.Expect(leg.events > 0 && leg.agents.epochs > 0 &&
                      leg.fleet.arbiter_requests > 0,
                  "fleet made no progress");
    if (in.spec.storm) {
        for (const std::string& rule : in.scenario->expected_alerts) {
            bool fired = false;
            for (const auto& event : leg.alerts) {
                fired = fired || (event.firing && event.rule == rule);
            }
            checks.Expect(fired, "expected alert " + rule + " never fired");
        }
    }
}

// ---- Untraced run: end-to-end metrics ----------------------------------

RunOutcome
EndToEnd(const FleetInputs& in, const Options& options, Checks& checks)
{
    const FleetSpec& spec = in.spec;
    // Set-up alone, several times: construction is short and noisy, so
    // setup_s is the median over these and every replay's set-up.
    std::vector<double> setup;
    for (int i = 0; i < kSetupOnlySamples; ++i) {
        Rig rig(in, spec.threads);
        const double t0 = NowSeconds();
        sol::fleet::ShardedFleetRunner runner(rig.config);
        setup.push_back(NowSeconds() - t0);
    }
    // Replays for --seconds, longer (up to kMaxStretch times) while
    // fewer than min_measured ran on a quiet host.
    std::vector<Leg> legs;
    std::vector<double> steal;
    std::size_t quiet_replays = 0;
    const double start = NowSeconds();
    while (true) {
        const double elapsed = NowSeconds() - start;
        if (elapsed >= options.seconds && legs.size() >= spec.min_measured &&
            (quiet_replays >= spec.min_measured ||
             elapsed >= kMaxStretch * options.seconds)) {
            break;
        }
        legs.push_back(RunLeg(in, spec.threads, nullptr));
        ExpectHealthyLeg(in, legs.back(), checks);
        ExpectSameSimulation(legs.front(), legs.back(), spec.storm, checks);
        steal.push_back(legs.back().steal);
        quiet_replays += legs.back().steal < kQuietSteal ? 1 : 0;
    }
    const Leg cross = RunLeg(in, spec.cross_threads, nullptr);
    ExpectHealthyLeg(in, cross, checks);
    ExpectSameSimulation(legs.front(), cross, spec.storm, checks);

    // Rates are medians over every window of the measured replays (see
    // FleetSpec::min_measured), so host CPU steal moves them little.
    // Set-up is the median over every construction.
    std::vector<double> events_per_s;
    std::vector<double> cpu_ns_per_event;
    std::vector<double> ops_per_s;
    std::vector<double> cpu_us_per_op;
    std::vector<double> windows;
    RunOutcome out;
    for (const Leg& leg : legs) {
        setup.push_back(leg.setup_s);
        out.attempted += leg.queue.scheduled;
        out.failed += leg.queue.dropped;
    }
    const std::vector<std::size_t> quiet =
        Quietest(steal, std::clamp(quiet_replays, spec.min_measured,
                                   spec.max_measured));
    for (const std::size_t i : quiet) {
        const Leg& leg = legs[i];
        for (std::size_t w = 0; w < leg.window_ms.size(); ++w) {
            const double wall_s = leg.window_ms[w] * 1e-3;
            const double events = std::max(leg.window_events[w], 1.0);
            const double ops = std::max(leg.window_ops[w], 1.0);
            events_per_s.push_back(events / wall_s);
            cpu_ns_per_event.push_back(leg.window_cpu_s[w] * 1e9 / events);
            ops_per_s.push_back(ops / wall_s);
            cpu_us_per_op.push_back(leg.window_cpu_s[w] * 1e6 / ops);
        }
        windows.insert(windows.end(), leg.window_ms.begin(),
                       leg.window_ms.end());
    }
    const Leg& first = legs.front();
    Metrics& m = out.metrics;
    Set(m, "setup_s", Median(setup));
    Set(m, "events_per_s", Median(events_per_s));
    Set(m, "cpu_ns_per_event", Median(cpu_ns_per_event));
    Set(m, "window_p50_ms", Median(windows));
    Set(m, "window_tail_ms", Percentile(windows, 90.0));
    Set(m, "peak_rss_mb", PeakRssMb());
    Set(m, "failed_ratio", DenialRatio(first.fleet.conflicts_resolved,
                                       first.fleet.arbiter_requests));
    Set(m, "agent_ops_per_s", Median(ops_per_s));
    Set(m, "cpu_us_per_agent_op", Median(cpu_us_per_op));
    // Virtual epoch durations: deterministic per seed, so these two are
    // behaviour sentinels on the fleet workloads.
    Set(m, "epoch_p50_us", InterpolatedPercentile(first.epochs, 50.0) * 1e-3);
    Set(m, "epoch_p99_us", InterpolatedPercentile(first.epochs, 99.0) * 1e-3);

    out.notes["replays"] = std::to_string(legs.size());
    out.notes["replays_measured"] = std::to_string(quiet.size());
    out.notes["steal_median_all"] = std::to_string(Median(steal));
    out.notes["threads"] = std::to_string(spec.threads);
    out.notes["cross_check_threads"] = std::to_string(spec.cross_threads);
    out.notes["windows_pooled"] = std::to_string(windows.size());
    out.notes["window_tail_percentile"] = "p90";
    out.notes["events_per_replay"] = std::to_string(first.events);
    out.notes["fleet_trace_hash"] = std::to_string(first.hash);
    out.notes["epoch_samples"] = std::to_string(first.epochs.count());
    if (spec.storm) {
        out.notes["timeline_hash"] = std::to_string(first.timeline_hash);
        out.notes["alert_transitions"] = std::to_string(first.alerts.size());
    }
    return out;
}

// ---- Traced run: per-layer metrics -------------------------------------

/** Per-shard, per-window host time of the serial NodeShard leg. */
struct SerialLeg {
    std::vector<std::vector<double>> shard_ms;  ///< [window][shard]
    std::uint64_t hash = 0;
    std::uint64_t events = 0;
    double total_shard_s = 0.0;
};

SerialLeg
RunSerialLeg(const FleetInputs& in, SpanLog* spans)
{
    const FleetSpec& spec = in.spec;
    sol::telemetry::trace::TraceSession session;
    std::vector<std::unique_ptr<sol::cluster::NodeShard>> shards;
    ScopedSpan root(spans, "serial_replay", "bench");
    {
        ScopedSpan span(spans, "setup", "cluster", root.index());
        const sol::fleet::FleetConfig fleet = MakeFleetConfig(in, 1);
        for (std::size_t s = 0; s < spec.nodes; ++s) {
            // The shard the runner builds for node s.
            sol::cluster::NodeShardConfig shard;
            shard.first_node_index = s;
            shard.num_nodes = 1;
            shard.base_seed = fleet.base_seed;
            shard.start_stagger = fleet.start_stagger;
            shard.queue_pending_limit = fleet.queue_pending_limit;
            shard.trace_session = spec.storm ? &session : nullptr;
            shard.trace_track = "shard" + std::to_string(s);
            shard.trace_capacity = fleet.trace_capacity;
            shard.node = fleet.node;
            shards.push_back(std::make_unique<sol::cluster::NodeShard>(shard));
        }
    }
    SerialLeg leg;
    const auto windows =
        static_cast<std::size_t>(spec.horizon.count() / kWindow.count());
    for (std::size_t w = 0; w < windows; ++w) {
        ScopedSpan window(spans, "window", "fleet", root.index());
        const TimePoint horizon(kWindow * static_cast<std::int64_t>(w + 1));
        std::vector<double>& row = leg.shard_ms.emplace_back();
        for (auto& shard : shards) {
            ScopedSpan span(spans, "shard_run_until", "cluster",
                            window.index());
            const std::int64_t t0 = NowNs();
            shard->RunUntil(horizon);
            const std::int64_t elapsed = NowNs() - t0;
            row.push_back(static_cast<double>(elapsed) * 1e-6);
            leg.total_shard_s += static_cast<double>(elapsed) * 1e-9;
        }
    }
    for (auto& shard : shards) {
        shard->Stop();
        // The runner's fleet_trace_hash() fold.
        leg.hash += sol::sim::DeriveStreamSeed(shard->queue().trace_hash(), 0);
        leg.events += shard->queue().executed();
    }
    return leg;
}

/** Node-tick events of one replay (the node driver's PeriodicTask). */
double
NodeTicks(const FleetInputs& in)
{
    const Duration stagger = MakeFleetConfig(in, 1).start_stagger;
    double ticks = 0.0;
    for (std::size_t i = 0; i < in.spec.nodes; ++i) {
        const Duration live = in.spec.horizon -
                              stagger * static_cast<std::int64_t>(i);
        ticks += static_cast<double>(live.count() / in.node.node_tick.count());
    }
    return ticks;
}

RunOutcome
PerLayer(const FleetInputs& in, const Options& options, Checks& checks,
         SpanLog& spans)
{
    const FleetSpec& spec = in.spec;
    // Untraced and traced replays alternate for half of --seconds (at
    // least two rounds); the overhead compares the fastest of each side.
    std::vector<Leg> untraced;
    std::vector<Leg> traced;
    const double start = NowSeconds();
    while (traced.size() < 2 || NowSeconds() - start < 0.5 * options.seconds) {
        untraced.push_back(RunLeg(in, spec.threads, nullptr));
        spans.BeginRun("traced_replay_" + std::to_string(traced.size()));
        traced.push_back(RunLeg(in, spec.threads, &spans));
    }
    const Leg& base = untraced.front();
    for (const auto* legs : {&untraced, &traced}) {
        for (const Leg& leg : *legs) {
            ExpectHealthyLeg(in, leg, checks);
            ExpectSameSimulation(base, leg, spec.storm, checks);
        }
    }
    spans.BeginRun("serial_shards");
    const SerialLeg serial = RunSerialLeg(in, &spans);
    checks.Expect(serial.hash == base.hash && serial.events == base.events,
                  "serial NodeShard replay diverged from the fleet runner");

    // ---- Probes on the replay's shapes.
    spans.BeginRun("probes");
    const int probes = spans.Open("probes", "bench");
    const std::uint64_t probe_seed =
        sol::sim::DeriveStreamSeed(options.seed, 4);
    const sol::sim::EventQueueStats& q = base.queue;
    QueueShape shape;
    shape.pending = std::max<std::size_t>(q.peak_pending / spec.nodes, 1);
    shape.delays = NodeDelayMix(in.node, 4096, probe_seed);
    shape.cancel_ratio = static_cast<double>(q.cancelled) /
                         static_cast<double>(std::max<std::uint64_t>(
                             q.scheduled, 1));
    const QueueProbe queue = ProbeEventQueue(shape, &spans, probes, checks);
    const sol::core::Schedule schedule =
        sol::cluster::MakeSyntheticSchedule(in.node.synthetic);
    const EngineProbe engine =
        ProbeEpochEngine(schedule, /*threaded=*/false, &spans, probes, checks);
    const NodeProbe node = ProbeNode(in.node, &spans, probes, checks);
    const ProbeResult admit = ProbeAdmit(
        in.node.arbiter, NodeRequestMix(in.node, 200'000, probe_seed), &spans,
        probes, checks);
    const ContendedProbe contended = ProbeAdmitContended(
        std::max(1u, std::thread::hardware_concurrency()), probe_seed, &spans,
        probes, checks);
    const ProbeResult hist =
        ProbeHistogramRecord(base.epochs, probe_seed, &spans, probes, checks);
    SpanProbe span_probe;
    ProbeResult alert_eval;
    ProbeResult driver;
    if (spec.storm) {
        span_probe = ProbeTraceSpan(&spans, probes, checks);
        alert_eval = ProbeAlertReplay(*base.health, base.alerts, &spans,
                                      probes, checks);
        driver = ProbeTraceDriver(*in.driver, spec.horizon, probe_seed,
                                  &spans, probes, checks);
    }
    spans.Close(probes);

    // ---- Metrics.
    RunOutcome out;
    Metrics& m = out.metrics;
    const auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };
    Set(m, "sim.schedule_ns", queue.schedule.ns_per_op);
    Set(m, "sim.pop_ns", queue.pop.ns_per_op);
    Set(m, "sim.cancel_ns", queue.cancel.ns_per_op);
    Set(m, "sim.events_scheduled", u64(q.scheduled));
    Set(m, "sim.events_executed", u64(q.executed));
    Set(m, "sim.events_cancelled", u64(q.cancelled));
    Set(m, "sim.events_dropped", u64(q.dropped));
    Set(m, "sim.peak_pending", u64(q.peak_pending));
    Set(m, "sim.cancel_ratio", shape.cancel_ratio);

    const sol::core::RuntimeStats& a = base.agents;
    Set(m, "core.collect_ns", engine.collect.ns_per_op);
    Set(m, "core.finish_epoch_ns", engine.finish_epoch.ns_per_op);
    Set(m, "core.actuator_wake_ns", engine.actuator_wake.ns_per_op);
    Set(m, "core.assess_actuator_ns", engine.assess_actuator.ns_per_op);
    Set(m, "core.events_per_epoch", u64(q.executed) / u64(a.epochs));
    Set(m, "core.threads", base.threads_seen);
    Set(m, "core.expired_predictions", u64(a.expired_predictions));
    Set(m, "core.epochs", u64(a.epochs));
    Set(m, "core.samples_collected", u64(a.samples_collected));
    Set(m, "core.actions_taken", u64(a.actions_taken));
    Set(m, "core.safeguard_triggers", u64(a.safeguard_triggers));

    Set(m, "node.advance_ns", node.advance.ns_per_op);
    Set(m, "node.power_ns", node.power.ns_per_op);

    const sol::cluster::FleetStats& f = base.fleet;
    std::vector<double> shard_ms;
    std::vector<double> imbalance;
    for (const std::vector<double>& row : serial.shard_ms) {
        shard_ms.insert(shard_ms.end(), row.begin(), row.end());
        const double mean =
            std::max(1e-9, std::accumulate(row.begin(), row.end(), 0.0) /
                               static_cast<double>(row.size()));
        imbalance.push_back(*std::max_element(row.begin(), row.end()) / mean);
    }
    Set(m, "cluster.admit_ns", admit.ns_per_op);
    Set(m, "cluster.admit_contended_ns", contended.admit.ns_per_op);
    Set(m, "cluster.admit_p99_ns", contended.admit_p99_ns);
    Set(m, "cluster.lock_wait_p99_ns", contended.lock_wait_p99_ns);
    Set(m, "cluster.shard_run_ms", Median(shard_ms));
    Set(m, "cluster.shard_imbalance", Median(imbalance));
    Set(m, "cluster.arbiter_requests", u64(f.arbiter_requests));
    Set(m, "cluster.conflicts_observed", u64(f.conflicts_observed));
    Set(m, "cluster.conflicts_resolved", u64(f.conflicts_resolved));
    Set(m, "cluster.denial_ratio",
        DenialRatio(f.conflicts_resolved, f.arbiter_requests));

    std::vector<double> traced_windows;
    std::vector<double> collect_ms;
    for (const Leg& leg : traced) {
        traced_windows.insert(traced_windows.end(), leg.window_ms.begin(),
                              leg.window_ms.end());
        collect_ms.push_back(leg.collect_metrics_ms);
    }
    const auto faster = [](const std::vector<Leg>& legs, auto field) {
        double best = legs.front().*field;
        for (const Leg& leg : legs) {
            best = std::min(best, leg.*field);
        }
        return best;
    };
    const double untraced_wall = faster(untraced, &Leg::step_wall_s);
    const double traced_wall = faster(traced, &Leg::step_wall_s);
    const double untraced_cpu = faster(untraced, &Leg::step_cpu_s);
    Set(m, "fleet.run_window_ms", Median(traced_windows));
    Set(m, "fleet.parallel_efficiency",
        serial.total_shard_s /
            (static_cast<double>(spec.threads) * untraced_wall));
    Set(m, "fleet.collect_metrics_ms", Median(collect_ms));

    Set(m, "telemetry.hist_record_ns", hist.ns_per_op);
    Set(m, "telemetry.span_ns", span_probe.with_room.ns_per_op);
    Set(m, "telemetry.span_drop_ns", span_probe.full.ns_per_op);
    Set(m, "telemetry.alert_eval_us", alert_eval.ns_per_op * 1e-3);
    Set(m, "telemetry.trace_recorded", u64(base.trace_recorded));
    Set(m, "telemetry.trace_dropped", u64(base.trace_dropped));
    Set(m, "telemetry.health_samples", u64(base.health_samples));
    Set(m, "telemetry.alert_transitions", u64(base.alerts.size()));
    const std::uint64_t spans_offered =
        base.trace_recorded + base.trace_dropped;
    Set(m, "telemetry.trace_keep_ratio",
        spans_offered == 0 ? 0.0 : u64(base.trace_recorded) /
                                       u64(spans_offered));
    Set(m, "workloads.driver_ns", driver.ns_per_op);

    // Accounting identity: probe cost x the replay's op counts, over the
    // replay's stepping CPU time. Costs nested inside a probed call are
    // not added twice (hist_record is inside finish_epoch, power inside
    // advance).
    const double windows_run = u64(base.window_ms.size());
    double attributed_ns =
        u64(q.scheduled) * queue.schedule.ns_per_op +
        u64(q.executed) * queue.pop.ns_per_op +
        u64(q.cancelled) * queue.cancel.ns_per_op +
        u64(a.samples_collected) * engine.collect.ns_per_op +
        u64(a.epochs) * engine.finish_epoch.ns_per_op +
        u64(a.actions_taken) * engine.actuator_wake.ns_per_op +
        u64(a.actuator_assessments) * engine.assess_actuator.ns_per_op +
        NodeTicks(in) * node.advance.ns_per_op +
        u64(f.arbiter_requests) * admit.ns_per_op;
    if (spec.storm) {
        attributed_ns +=
            u64(base.trace_recorded) * span_probe.with_room.ns_per_op +
            u64(base.trace_dropped) * span_probe.full.ns_per_op +
            windows_run * alert_eval.ns_per_op +
            // ~2 oracle queries per collect, 1 per action/assessment.
            (2.0 * u64(a.samples_collected) + u64(a.actions_taken) +
             u64(a.actuator_assessments) + u64(a.model_assessments)) *
                driver.ns_per_op;
    }
    Set(m, "ledger.attributed_share", attributed_ns * 1e-9 / untraced_cpu);
    Set(m, "bench.trace_overhead", traced_wall / untraced_wall - 1.0);

    out.attempted = q.scheduled;
    out.failed = q.dropped;
    out.notes["probe_pending_per_shard"] = std::to_string(shape.pending);
    out.notes["untraced_step_wall_s"] = std::to_string(untraced_wall);
    out.notes["traced_step_wall_s"] = std::to_string(traced_wall);
    out.notes["untraced_step_cpu_s"] = std::to_string(untraced_cpu);
    out.notes["serial_shard_s"] = std::to_string(serial.total_shard_s);
    out.notes["fleet_trace_hash"] = std::to_string(base.hash);
    return out;
}

}  // namespace

RunOutcome
RunFleetWorkload(const Options& options, Checks& checks, SpanLog* spans)
{
    const FleetInputs in = MakeInputs(options.workload, options.seed);
    return spans == nullptr ? EndToEnd(in, options, checks)
                            : PerLayer(in, options, checks, *spans);
}

}  // namespace perfbench
