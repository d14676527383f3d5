/**
 * @file
 * What every node variant shares: substrate, agents, and the sweeps.
 *
 * A node is written once against the Model/Actuator API and hosted on
 * either runtime. NodeAssembly builds everything that does not depend
 * on the host, exactly once:
 *   - the substrate (NodeSubstrate, seed streams 0–3): a primary and an
 *     elastic VM, tiered memory and its access pattern, telemetry
 *     channels, the sampling policy, and the incident RNG;
 *   - the four real agents (seed streams 4–7) and the synthetic fillers
 *     (stream 8+i, alternating domain, fleet-global tenant), each with
 *     its model and actuator built against the host's clock and wired
 *     to the node's InterferenceArbiter;
 *   - the slot/registry bookkeeping and every sweep over it
 *     (StopAgent, StartAgent, CleanUpAll, AgentStats, agent_names);
 *   - the node's roll-up (Stats(): every agent's counters and epoch
 *     latencies plus the arbiter's, in one pass over the slots), which
 *     TotalEpochs, AggregateStats, EpochLatencyHistogram,
 *     CollectMetrics and, through the fleet roll-up, the fleet health
 *     sample all read.
 *
 * A host (MultiAgentNode, ThreadedMultiAgentNode) derives from it and
 * supplies only how an agent runs. Assemble() asks the host for two
 * things per agent, in slot order:
 *
 *   auto& clock = host.NewClock(parts);
 *       The clock the agent's model and actuator read. The simulated
 *       node returns its event queue; the threaded node adds a
 *       PolicyClock to the agent's parts, bound to the runtime later.
 *   host.HostAgent(name, clock, model, actuator, schedule, parts, substrate);
 *       Builds the agent's runtime into `parts` and registers it through
 *       AddAgent(). `substrate` says the agent touches the shared
 *       substrate (the real four do, synthetics do not).
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agents/smartharvest/smartharvest.h"
#include "agents/smartmemory/smartmemory.h"
#include "agents/smartmonitor/smartmonitor.h"
#include "agents/smartoverclock/smartoverclock.h"
#include "cluster/fleet_stats.h"
#include "cluster/interference_arbiter.h"
#include "cluster/synthetic_agent.h"
#include "core/agent_registry.h"
#include "core/runtime_options.h"
#include "core/runtime_stats.h"
#include "core/sync.h"
#include "node/channel_array.h"
#include "node/node.h"
#include "node/tiered_memory.h"
#include "sim/rng.h"
#include "telemetry/latency_histogram.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace.h"
#include "workloads/best_effort.h"
#include "workloads/memory_patterns.h"
#include "workloads/tailbench.h"

namespace sol::cluster {

/** Configuration of one multi-agent node (either host). */
struct MultiAgentNodeConfig {
    /** Metric namespace and display name ("node0", "node1", ...). */
    std::string name = "node0";

    /** Per-node RNG stream seed; drives workloads and agent seeds. */
    std::uint64_t seed = 1;

    /**
     * Global fleet index of this node (NodeShard sets it from the
     * node's global position). Only used to derive fleet-global tenant
     * indices for the trace driver, so single-node deployments can
     * leave it 0.
     */
    std::size_t node_index = 0;

    /**
     * Trace-driven demand oracle applied to every synthetic agent on
     * the node (workloads/trace_driver.h); null (the default) keeps
     * the flat synthetic-periodic load every prior PR hashed. Not
     * owned; must outlive the node. Synthetic i consults it as tenant
     * `node_index * synthetic_agents + i`.
     */
    const workloads::TraceDriver* trace_driver = nullptr;

    /** Which agents run; disabled agents leave their substrate idle. */
    bool run_overclock = true;
    bool run_harvest = true;
    bool run_memory = true;
    bool run_monitor = true;

    /**
     * Cheap synthetic agents co-located beside the real four, closing
     * the gap to the paper's ~77 agents per node (73 synthetics + the
     * 4 real agents). Each runs a full runtime with O(1) logic and
     * contends through the shared arbiter; 0 (the default) keeps the
     * node exactly as the single-purpose experiments expect it.
     */
    std::size_t synthetic_agents = 0;

    /** Template for every synthetic agent (name/seed/domain are set
     *  per instance; domains alternate telemetry/memory placement so
     *  synthetics pressure the arbiter without monopolizing the
     *  CPU-frequency/cores conflict surface the real agents study). */
    SyntheticAgentConfig synthetic;

    /**
     * Per-instance override applied after the defaults above (index,
     * config already carrying its derived name/seed/domain). Node
     * parity scenarios use this to give each synthetic its own cadence
     * or conflict role; NodeAssembly applies it for both hosts, so a
     * scenario scripted here runs the same on the simulated and the
     * threaded node.
     */
    std::function<void(std::size_t, SyntheticAgentConfig&)>
        customize_synthetic;

    // --- Substrate sizing (the rest is fixed; see NodeSubstrate) --------
    int total_cores = 16;

    // --- Driver cadence ---------------------------------------------------
    /** Hypervisor tick advancing VMs/counters (50 us = paper sampling). */
    sim::Duration node_tick = sim::Micros(50);
    sim::Duration memory_tick = sim::Millis(100);
    sim::Duration channel_tick = sim::Millis(20);

    /** Shared runtime ablation/fault switches (applied to all agents). */
    core::RuntimeOptions runtime;

    /**
     * Flight-recorder track every agent runtime on the simulated node
     * records into (spans + safeguard instants; see telemetry/trace.h).
     * The node's event queue serializes all agents on one thread, so one
     * SPSC recorder safely serves them all. The caller owns the
     * recorder; null (the default) disables tracing. The threaded node
     * ignores this and uses trace_session instead — its agents need one
     * recorder per thread.
     */
    telemetry::trace::TraceRecorder* trace = nullptr;

    /**
     * Trace session the *threaded* node creates per-agent model/actuator
     * recorders in (two tracks per agent plus driver and control
     * tracks). Ignored by the simulated node; null (the default)
     * disables tracing.
     */
    telemetry::trace::TraceSession* trace_session = nullptr;

    InterferenceArbiterConfig arbiter;

    agents::SmartOverclockConfig overclock;
    agents::SmartHarvestConfig harvest;
    agents::SmartMemoryConfig memory;
    agents::SmartMonitorConfig monitor;
};

/**
 * The node substrate every agent shares, built from seed streams 0–3:
 * stream 0 picks the hot channels, 1 drives channel incidents, 2 the
 * primary VM's TailBench workload, 3 the memory access pattern. Only
 * the core count is configurable; the memory and channel sizing are
 * fixed (node_assembly.cc).
 */
struct NodeSubstrate {
    explicit NodeSubstrate(const MultiAgentNodeConfig& config);

    /** Writes the substrate gauges (p99, energy, coverage, ...). */
    void WriteMetrics(telemetry::MetricScope scope) const;

    sol::node::Node node;
    sol::node::TieredMemory memory;
    sol::node::ChannelArray channels;
    agents::SamplingPolicy policy;
    std::shared_ptr<workloads::TailBench> primary_workload;
    std::shared_ptr<workloads::BestEffort> elastic_workload;
    std::unique_ptr<workloads::ZipfMemoryPattern> memory_pattern;
    sol::node::VmId primary = 0;
    sol::node::VmId elastic = 0;
    sim::Rng incident_rng;

    /** Serializes substrate access when agents run on their own
     *  threads. The simulated node runs everything on its queue's
     *  thread, so only metric collection takes it there. */
    core::Mutex mutex;
};

/** Synthetic agent i's config: stream 8+i (after the real agents'
 *  4–7), domains alternating between the two uncoupled from the CPU
 *  conflict surface, tenant node_index * synthetic_agents + i, then
 *  config.customize_synthetic. */
SyntheticAgentConfig DeriveSyntheticConfig(const MultiAgentNodeConfig& config,
                                           std::size_t i);

/**
 * Owns one agent's objects — clock, model, actuator, host wrappers,
 * runtime — and destroys them newest first, so a runtime dies before
 * whatever it drives.
 */
class AgentParts
{
  public:
    AgentParts() = default;
    AgentParts(AgentParts&&) = default;
    AgentParts& operator=(AgentParts&&) = delete;

    ~AgentParts()
    {
        while (!parts_.empty()) {
            parts_.pop_back();
        }
    }

    template <typename T, typename... Args>
    T&
    Make(Args&&... args)
    {
        auto part = std::make_shared<T>(std::forward<Args>(args)...);
        T& ref = *part;
        parts_.push_back(std::move(part));
        return ref;
    }

  private:
    std::vector<std::shared_ptr<void>> parts_;
};

/**
 * Type-erased handle on one agent's runtime, whichever host built it.
 * Owns the agent's parts, so the agent lives exactly as long as its
 * slot.
 */
class AgentRuntime
{
  public:
    template <typename Runtime>
    AgentRuntime(std::string name, Runtime& runtime, AgentParts parts)
        : name_(std::move(name)),
          start_([&runtime] { runtime.Start(); }),
          stop_([&runtime] { runtime.Stop(); }),
          stats_([&runtime] { return runtime.stats(); }),
          merge_epoch_latency_([&runtime](telemetry::LatencyHistogram& out) {
              runtime.MergeEpochLatencyInto(out);
          }),
          parts_(std::move(parts))
    {
    }

    const std::string& name() const { return name_; }
    void Start() const { start_(); }
    void Stop() const { stop_(); }
    core::RuntimeStats stats() const { return stats_(); }
    void
    MergeEpochLatencyInto(telemetry::LatencyHistogram& out) const
    {
        merge_epoch_latency_(out);
    }

  private:
    std::string name_;
    std::function<void()> start_;
    std::function<void()> stop_;
    std::function<core::RuntimeStats()> stats_;
    std::function<void(telemetry::LatencyHistogram&)>
        merge_epoch_latency_;
    AgentParts parts_;
};

/** The host-independent part of a multi-agent node (see file doc). */
class NodeAssembly
{
  public:
    NodeAssembly(const NodeAssembly&) = delete;
    NodeAssembly& operator=(const NodeAssembly&) = delete;

    /** Stops/starts one agent's runtime by name (no-op on unknown
     *  names). Models an SRE restarting a single agent while its peers
     *  keep running — the restart scenarios of the node parity suite. */
    void StopAgent(const std::string& name);
    void StartAgent(const std::string& name);

    /**
     * SRE incident response: runs every registered agent's CleanUp
     * through the node-local registry, restoring the node to its clean
     * state (nominal frequency, all cores returned, uniform sampling).
     */
    void CleanUpAll();

    /** Refreshes per-agent runtime gauges, the arbiter's counters, and
     *  the substrate gauges in metrics(). */
    void CollectMetrics();

    /** The node's roll-up: every agent's counters (real and synthetic)
     *  summed, their epoch-duration histograms merged (ns in the host's
     *  timebase), and the arbiter's counters. Shards and the fleet sum
     *  these. */
    FleetStats Stats() const;

    /** Reads of Stats(): learning epochs, counters, epoch durations. */
    std::uint64_t TotalEpochs() const { return Stats().agents.epochs; }
    core::RuntimeStats AggregateStats() const { return Stats().agents; }
    telemetry::LatencyHistogram EpochLatencyHistogram() const
    {
        return Stats().epoch_latency;
    }

    /** One agent's stats by name (zeros for unknown/disabled names). */
    core::RuntimeStats AgentStats(const std::string& name) const;

    /** Agent names in slot order: real agents, then synthetics. */
    std::vector<std::string> agent_names() const;

    // --- Introspection ---------------------------------------------------
    const std::string& name() const { return config_.name; }
    core::AgentRegistry& registry() { return registry_; }
    InterferenceArbiter& arbiter() { return arbiter_; }
    telemetry::MetricRegistry& metrics() { return metrics_; }
    bool started() const { return started_; }

    /** Total agents on the node (real + synthetic). */
    std::size_t num_agents() const { return slots_.size(); }
    std::size_t num_synthetic_agents() const { return synthetics_.size(); }
    SyntheticAgent& synthetic_agent(std::size_t i)
    {
        return *synthetics_[i];
    }

  protected:
    /** Builds the substrate. */
    explicit NodeAssembly(MultiAgentNodeConfig config);
    ~NodeAssembly();

    /** Builds every enabled agent through `host` (see file doc). */
    template <typename Host>
    void Assemble(Host& host);

    /** Registers a hosted agent's runtime as the next slot; `actuator`
     *  is what the registry's cleanup calls after stopping it. */
    template <typename Runtime, typename P>
    AgentRuntime&
    AddAgent(std::string name, Runtime& runtime,
             core::Actuator<P>& actuator, AgentParts parts)
    {
        AgentRuntime& slot =
            slots_.emplace_back(name, runtime, std::move(parts));
        registrations_.emplace_back(registry_, std::move(name),
                                    [&runtime, &actuator] {
                                        runtime.Stop();
                                        actuator.CleanUp();
                                    });
        return slot;
    }

    void StartAgents();
    void StopAgents();

    MultiAgentNodeConfig config_;
    NodeSubstrate substrate_;
    telemetry::MetricRegistry metrics_;
    InterferenceArbiter arbiter_;

    /** Lifecycle instants (agent start/stop, CleanUpAll) land here when
     *  the host made a control track; null records nothing. */
    telemetry::trace::TraceRecorder* control_trace_ = nullptr;

    agents::OverclockActuator* overclock_actuator_ = nullptr;
    agents::HarvestActuator* harvest_actuator_ = nullptr;
    bool started_ = false;

  private:
    /** Stats() in one pass over the slots, also handing each agent's
     *  own counters to `each_agent` (when set). */
    FleetStats RollUp(
        const std::function<void(const std::string& name,
                                 const core::RuntimeStats& stats)>&
            each_agent) const;

    std::vector<SyntheticAgent*> synthetics_;

    // Registry last among agent state: its registrations' cleanups run
    // first on destruction, while runtimes and actuators still exist.
    // A deque, because synthetic agents point at their slot.
    std::deque<AgentRuntime> slots_;
    core::AgentRegistry registry_;
    std::vector<core::ScopedRegistration> registrations_;
};

template <typename Host>
void
NodeAssembly::Assemble(Host& host)
{
    using sim::DeriveStreamSeed;
    NodeSubstrate& s = substrate_;

    // --- The four real agents, on the shared substrate (streams 4–7). --
    if (config_.run_overclock) {
        AgentParts parts;
        auto& clock = host.NewClock(parts);
        agents::SmartOverclockConfig cfg = config_.overclock;
        cfg.seed = DeriveStreamSeed(config_.seed, 4);
        auto& model = parts.Make<agents::OverclockModel>(s.node, s.primary,
                                                         clock, cfg);
        auto& actuator = parts.Make<agents::OverclockActuator>(
            s.node, s.primary, clock, cfg);
        actuator.SetGovernor(&arbiter_);
        overclock_actuator_ = &actuator;
        host.HostAgent(agents::kSmartOverclockName, clock, model, actuator,
                       agents::SmartOverclockSchedule(), std::move(parts),
                       /*substrate=*/true);
    }
    if (config_.run_harvest) {
        AgentParts parts;
        auto& clock = host.NewClock(parts);
        agents::SmartHarvestConfig cfg = config_.harvest;
        cfg.seed = DeriveStreamSeed(config_.seed, 5);
        auto& model = parts.Make<agents::HarvestModel>(s.node, s.primary,
                                                       clock, cfg);
        auto& actuator = parts.Make<agents::HarvestActuator>(
            s.node, s.primary, s.elastic, clock, cfg);
        actuator.SetGovernor(&arbiter_);
        harvest_actuator_ = &actuator;
        host.HostAgent(agents::kSmartHarvestName, clock, model, actuator,
                       agents::SmartHarvestSchedule(), std::move(parts),
                       /*substrate=*/true);
    }
    if (config_.run_memory) {
        AgentParts parts;
        auto& clock = host.NewClock(parts);
        agents::SmartMemoryConfig cfg = config_.memory;
        cfg.seed = DeriveStreamSeed(config_.seed, 6);
        auto& model = parts.Make<agents::MemoryModel>(s.memory, clock, cfg);
        auto& actuator =
            parts.Make<agents::MemoryActuator>(s.memory, clock, cfg);
        actuator.SetGovernor(&arbiter_);
        host.HostAgent(agents::kSmartMemoryName, clock, model, actuator,
                       agents::SmartMemorySchedule(), std::move(parts),
                       /*substrate=*/true);
    }
    if (config_.run_monitor) {
        AgentParts parts;
        auto& clock = host.NewClock(parts);
        agents::SmartMonitorConfig cfg = config_.monitor;
        cfg.seed = DeriveStreamSeed(config_.seed, 7);
        auto& model = parts.Make<agents::MonitorModel>(s.channels, s.policy,
                                                       clock, cfg);
        auto& actuator = parts.Make<agents::MonitorActuator>(s.policy, cfg);
        actuator.SetGovernor(&arbiter_);
        host.HostAgent(agents::kSmartMonitorName, clock, model, actuator,
                       agents::SmartMonitorSchedule(), std::move(parts),
                       /*substrate=*/true);
    }

    // --- Synthetic fillers up to fleet-realistic counts (8+i). ---------
    synthetics_.reserve(config_.synthetic_agents);
    for (std::size_t i = 0; i < config_.synthetic_agents; ++i) {
        AgentParts parts;
        auto& clock = host.NewClock(parts);
        auto& agent = parts.Make<SyntheticAgent>(
            DeriveSyntheticConfig(config_, i), clock, &arbiter_);
        agent.runtime_ = &host.HostAgent(
            agent.name(), clock, agent.model_, agent.actuator_,
            MakeSyntheticSchedule(agent.config_), std::move(parts),
            /*substrate=*/false);
        synthetics_.push_back(&agent);
    }
}

}  // namespace sol::cluster
