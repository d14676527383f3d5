#include "cluster/node_assembly.h"

#include <type_traits>
#include <utility>

namespace sol::cluster {

namespace {

using sim::DeriveStreamSeed;

// Substrate sizing (the fig 7/8 memory setting; a few hot channels).
constexpr std::size_t kMemoryBatches = 256;
/** First-tier capacity. Matches kMemoryBatches: everything fits
 *  locally, and demoting to the slow tier to save DRAM is entirely the
 *  agent's choice. */
constexpr std::size_t kFastTierBatches = 256;
constexpr std::size_t kNumChannels = 32;
constexpr std::size_t kHotChannels = 2;
constexpr double kHotRatePerSec = 0.5;
constexpr double kColdRatePerSec = 0.004;
constexpr sim::Duration kChannelVisibility = sim::Seconds(2);

node::NodeConfig
MakeNodeConfig(const MultiAgentNodeConfig& config)
{
    node::NodeConfig node_config;
    node_config.total_cores = config.total_cores;
    return node_config;
}

/** Snapshots one agent's runtime counters into its metric namespace. */
void
WriteAgentRuntimeStats(telemetry::MetricScope scope,
                       const core::RuntimeStats& stats)
{
    core::ForEachCounter(
        [&scope](const char* name, core::CounterKind, const auto& value) {
            if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                         sim::Duration>) {
                scope.SetGauge(name, sim::ToSeconds(value));
            } else {
                scope.SetGauge(name, static_cast<double>(value));
            }
        },
        stats);
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
      memory(kMemoryBatches, kFastTierBatches),
      channels(kNumChannels, kChannelVisibility),
      policy(kNumChannels),
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
    pattern_config.num_batches = kMemoryBatches;
    memory_pattern =
        std::make_unique<workloads::ZipfMemoryPattern>(pattern_config);

    // --- Telemetry-channel substrate: a few hot channels. -------------
    sim::Rng rng(DeriveStreamSeed(config.seed, 0));
    for (node::ChannelId c = 0; c < channels.num_channels(); ++c) {
        channels.SetIncidentRate(c, kColdRatePerSec);
    }
    for (std::size_t picked = 0; picked < kHotChannels;) {
        const auto c =
            static_cast<node::ChannelId>(rng.NextBelow(kNumChannels));
        if (channels.IncidentRate(c) < kHotRatePerSec) {
            channels.SetIncidentRate(c, kHotRatePerSec);
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
    : config_(std::move(config)),
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

FleetStats
NodeAssembly::Stats() const
{
    return RollUp({});
}

FleetStats
NodeAssembly::RollUp(
    const std::function<void(const std::string&, const core::RuntimeStats&)>&
        each_agent) const
{
    FleetStats stats;
    for (const AgentRuntime& slot : slots_) {
        const core::RuntimeStats agent = slot.stats();
        if (each_agent) {
            each_agent(slot.name(), agent);
        }
        stats.agents.Accumulate(agent);
        slot.MergeEpochLatencyInto(stats.epoch_latency);
    }
    stats.total_agents = slots_.size();
    stats.arbiter_requests = arbiter_.requests();
    stats.conflicts_observed = arbiter_.conflicts_observed();
    stats.conflicts_resolved = arbiter_.conflicts_resolved();
    return stats;
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
    const FleetStats stats =
        RollUp([this](const std::string& name,
                      const core::RuntimeStats& agent) {
            WriteAgentRuntimeStats(telemetry::MetricScope(metrics_, name),
                                   agent);
        });
    arbiter_.WriteMetrics();

    telemetry::MetricScope node_scope(metrics_, "node");
    {
        core::MutexLock lock(substrate_.mutex);
        substrate_.WriteMetrics(node_scope);
    }
    node_scope.SetGauge("total_epochs",
                        static_cast<double>(stats.agents.epochs));
    if (!stats.epoch_latency.empty()) {
        // Snapshot-overwrite, so repeated collections stay idempotent.
        node_scope.SetHistogram("epoch_ns", stats.epoch_latency);
    }
}

}  // namespace sol::cluster
