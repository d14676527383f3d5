#include "cluster/node_assembly.h"

#include <stdexcept>
#include <utility>

namespace sol::cluster {

namespace {

using sim::DeriveStreamSeed;

node::NodeConfig
MakeNodeConfig(const MultiAgentNodeConfig& config)
{
    node::NodeConfig node_config;
    node_config.total_cores = config.total_cores;
    return node_config;
}

MultiAgentNodeConfig
Validated(MultiAgentNodeConfig config)
{
    if (config.health != nullptr &&
        config.health_period <= sim::Duration::zero()) {
        throw std::invalid_argument(
            "MultiAgentNodeConfig::health_period must be positive");
    }
    return config;
}

/** Snapshots one agent's runtime counters into its metric namespace. */
void
WriteAgentRuntimeStats(telemetry::MetricScope scope,
                       const core::RuntimeStats& stats)
{
    scope.SetGauge("epochs", static_cast<double>(stats.epochs));
    scope.SetGauge("samples_collected",
                   static_cast<double>(stats.samples_collected));
    scope.SetGauge("invalid_samples",
                   static_cast<double>(stats.invalid_samples));
    scope.SetGauge("model_updates",
                   static_cast<double>(stats.model_updates));
    scope.SetGauge("short_circuit_epochs",
                   static_cast<double>(stats.short_circuit_epochs));
    scope.SetGauge("model_assessments",
                   static_cast<double>(stats.model_assessments));
    scope.SetGauge("failed_assessments",
                   static_cast<double>(stats.failed_assessments));
    scope.SetGauge("intercepted_predictions",
                   static_cast<double>(stats.intercepted_predictions));
    scope.SetGauge("predictions_delivered",
                   static_cast<double>(stats.predictions_delivered));
    scope.SetGauge("default_predictions",
                   static_cast<double>(stats.default_predictions));
    scope.SetGauge("expired_predictions",
                   static_cast<double>(stats.expired_predictions));
    scope.SetGauge("dropped_while_halted",
                   static_cast<double>(stats.dropped_while_halted));
    scope.SetGauge("peak_queued_predictions",
                   static_cast<double>(stats.peak_queued_predictions));
    scope.SetGauge("actions_taken",
                   static_cast<double>(stats.actions_taken));
    scope.SetGauge("actions_with_prediction",
                   static_cast<double>(stats.actions_with_prediction));
    scope.SetGauge("actuator_timeouts",
                   static_cast<double>(stats.actuator_timeouts));
    scope.SetGauge("actuator_assessments",
                   static_cast<double>(stats.actuator_assessments));
    scope.SetGauge("safeguard_triggers",
                   static_cast<double>(stats.safeguard_triggers));
    scope.SetGauge("mitigations", static_cast<double>(stats.mitigations));
    scope.SetGauge("halted_seconds", sim::ToSeconds(stats.halted_time));
}

/** Records a lifecycle instant on the control track, if there is one. */
void
MarkLifecycle(telemetry::trace::TraceRecorder* track, const char* what,
              const std::string& agent = {})
{
    if (track == nullptr) {
        return;
    }
    if (agent.empty()) {
        track->Instant(what, "node");
    } else {
        track->Instant(what, "node", {}, "agent", agent);
    }
}

}  // namespace

NodeSubstrate::NodeSubstrate(const MultiAgentNodeConfig& config)
    : node(MakeNodeConfig(config)),
      memory(config.memory_batches, config.fast_tier_batches),
      channels(config.num_channels, config.channel_visibility),
      policy(config.num_channels),
      incident_rng(DeriveStreamSeed(config.seed, 1))
{
    // --- Shared CPU substrate: one primary VM, one elastic VM. --------
    workloads::TailBenchConfig primary_config =
        workloads::ImageDnnConfig(DeriveStreamSeed(config.seed, 2));
    primary_workload = std::make_shared<workloads::TailBench>(primary_config);
    elastic_workload = std::make_shared<workloads::BestEffort>();
    primary = node.AddVm(node::VmConfig{"primary", primary_config.vcpus},
                         primary_workload);
    elastic = node.AddVm(node::VmConfig{"elastic", primary_config.vcpus},
                         elastic_workload);
    node.GrantCores(elastic, 0);  // Nothing harvested yet.

    // --- Memory substrate. --------------------------------------------
    workloads::ZipfMemoryConfig pattern_config =
        workloads::ObjectStoreMemConfig(DeriveStreamSeed(config.seed, 3));
    pattern_config.num_batches = config.memory_batches;
    memory_pattern =
        std::make_unique<workloads::ZipfMemoryPattern>(pattern_config);

    // --- Telemetry-channel substrate: a few hot channels. -------------
    sim::Rng rng(DeriveStreamSeed(config.seed, 0));
    for (node::ChannelId c = 0; c < channels.num_channels(); ++c) {
        channels.SetIncidentRate(c, config.cold_rate_per_sec);
    }
    for (std::size_t picked = 0; picked < config.hot_channels;) {
        const auto c =
            static_cast<node::ChannelId>(rng.NextBelow(config.num_channels));
        if (channels.IncidentRate(c) < config.hot_rate_per_sec) {
            channels.SetIncidentRate(c, config.hot_rate_per_sec);
            ++picked;
        }
    }
}

void
NodeSubstrate::WriteMetrics(telemetry::MetricScope scope) const
{
    scope.SetGauge("primary_p99_ms", primary_workload->PerformanceValue());
    scope.SetGauge(
        "primary_completed_requests",
        static_cast<double>(primary_workload->completed_requests()));
    scope.SetGauge("harvested_core_seconds",
                   elastic_workload->core_seconds());
    scope.SetGauge("energy_joules", node.EnergyJoules());
    scope.SetGauge("primary_freq_ghz", node.VmFrequency(primary));
    scope.SetGauge("memory_remote_fraction",
                   memory.stats().RemoteFraction());
    scope.SetGauge("incident_coverage", channels.stats().Coverage());
}

SyntheticAgentConfig
DeriveSyntheticConfig(const MultiAgentNodeConfig& config, std::size_t i)
{
    SyntheticAgentConfig cfg = config.synthetic;
    cfg.name = "synthetic" + std::to_string(i);
    cfg.seed = DeriveStreamSeed(config.seed, 8 + i);
    cfg.domain = i % 2 == 0 ? core::ActuationDomain::kTelemetryBudget
                            : core::ActuationDomain::kMemoryPlacement;
    cfg.trace_driver = config.trace_driver;
    cfg.tenant = config.node_index * config.synthetic_agents + i;
    if (config.customize_synthetic) {
        config.customize_synthetic(i, cfg);
    }
    return cfg;
}

NodeAssembly::NodeAssembly(MultiAgentNodeConfig config)
    : config_(Validated(std::move(config))),
      substrate_(config_),
      arbiter_(config_.arbiter, telemetry::MetricScope(metrics_, "arbiter"))
{
}

NodeAssembly::~NodeAssembly() = default;

void
NodeAssembly::StartAgents()
{
    for (const AgentRuntime& slot : slots_) {
        slot.Start();
    }
}

void
NodeAssembly::StopAgents()
{
    for (const AgentRuntime& slot : slots_) {
        slot.Stop();
    }
}

void
NodeAssembly::StopAgent(const std::string& name)
{
    for (const AgentRuntime& slot : slots_) {
        if (slot.name() == name) {
            slot.Stop();
            MarkLifecycle(control_trace_, "agent_stop", name);
        }
    }
}

void
NodeAssembly::StartAgent(const std::string& name)
{
    for (const AgentRuntime& slot : slots_) {
        if (slot.name() == name) {
            slot.Start();
            MarkLifecycle(control_trace_, "agent_start", name);
        }
    }
}

void
NodeAssembly::CleanUpAll()
{
    MarkLifecycle(control_trace_, "cleanup_all");
    registry_.CleanUpAll();
}

void
NodeAssembly::SampleHealth(sim::TimePoint at)
{
    const core::RuntimeStats stats = AggregateStats();
    const std::string p = config_.name.empty() ? "" : config_.name + ".";
    telemetry::SharedTimeSeriesStore& health = *config_.health;
    const auto append = [&health, &p, at](const char* name,
                                          std::uint64_t value) {
        health.Append(p + name, at, static_cast<std::int64_t>(value));
    };
    append("safeguard.trips", stats.safeguard_triggers);
    append("safeguard.mitigations", stats.mitigations);
    append("model.failures", stats.failed_assessments);
    append("model.intercepted", stats.intercepted_predictions);
    append("data.harvested", stats.samples_collected);
    append("data.invalid", stats.invalid_samples);
    append("epochs", stats.epochs);
    append("actions", stats.actions_taken);
    append("arbiter.requests", arbiter_.requests());
    append("arbiter.denied", arbiter_.conflicts_resolved());
    append("agent.halted_ns",
           static_cast<std::uint64_t>(stats.halted_time.count()));
    append("agent.active_ns",
           num_agents() * static_cast<std::uint64_t>(at.count()));
    const telemetry::LatencySnapshot s = EpochLatencyHistogram().Snapshot();
    append("epoch_latency.count", s.count);
    append("epoch_latency.p50_ns", s.p50_ns);
    append("epoch_latency.p90_ns", s.p90_ns);
    append("epoch_latency.p99_ns", s.p99_ns);
    append("epoch_latency.p999_ns", s.p999_ns);
}

std::uint64_t
NodeAssembly::TotalEpochs() const
{
    std::uint64_t epochs = 0;
    for (const AgentRuntime& slot : slots_) {
        epochs += slot.stats().epochs;
    }
    return epochs;
}

core::RuntimeStats
NodeAssembly::AggregateStats() const
{
    core::RuntimeStats total;
    for (const AgentRuntime& slot : slots_) {
        total.Accumulate(slot.stats());
    }
    return total;
}

core::RuntimeStats
NodeAssembly::AgentStats(const std::string& name) const
{
    for (const AgentRuntime& slot : slots_) {
        if (slot.name() == name) {
            return slot.stats();
        }
    }
    return core::RuntimeStats{};
}

telemetry::LatencyHistogram
NodeAssembly::EpochLatencyHistogram() const
{
    telemetry::LatencyHistogram merged;
    for (const AgentRuntime& slot : slots_) {
        slot.MergeEpochLatencyInto(merged);
    }
    return merged;
}

std::vector<std::string>
NodeAssembly::agent_names() const
{
    std::vector<std::string> names;
    names.reserve(slots_.size());
    for (const AgentRuntime& slot : slots_) {
        names.push_back(slot.name());
    }
    return names;
}

void
NodeAssembly::CollectMetrics()
{
    for (const AgentRuntime& slot : slots_) {
        WriteAgentRuntimeStats(telemetry::MetricScope(metrics_, slot.name()),
                               slot.stats());
    }
    arbiter_.WriteMetrics();

    telemetry::MetricScope node_scope(metrics_, "node");
    {
        core::MutexLock lock(substrate_.mutex);
        substrate_.WriteMetrics(node_scope);
    }
    node_scope.SetGauge("total_epochs", static_cast<double>(TotalEpochs()));
    const telemetry::LatencyHistogram epoch_hist = EpochLatencyHistogram();
    if (!epoch_hist.empty()) {
        // Snapshot-overwrite, so repeated collections stay idempotent.
        node_scope.SetHistogram("epoch_ns", epoch_hist);
    }
}

}  // namespace sol::cluster
