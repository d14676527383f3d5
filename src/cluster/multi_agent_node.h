/**
 * @file
 * One simulated node running the paper's full agent complement.
 *
 * Production nodes run tens of learning agents concurrently behind
 * shared safeguards (~77 in the paper's fleet); every experiment
 * elsewhere in this repo instantiates exactly one. MultiAgentNode is
 * the deployment-shaped harness: SmartOverclock, SmartHarvest,
 * SmartMemory, and SmartMonitor all run on one node, with
 *   - every actuation routed through an InterferenceArbiter that
 *     detects and resolves conflicting actuations (e.g. SmartOverclock
 *     raising frequency while SmartHarvest reclaims cores),
 *   - every agent registered in a node-local core::AgentRegistry, so
 *     an SRE (or a test) can terminate and clean up any or all agents
 *     without knowing their implementation, and
 *   - per-agent accounting namespaced into one telemetry registry
 *     ("smart-harvest.epochs", "arbiter.conflicts", ...).
 *
 * NodeAssembly (node_assembly.h) builds all of that — substrate,
 * agents, sweeps — identically for this node and for
 * ThreadedMultiAgentNode. What is particular to this host: every agent
 * runs in its own SimRuntime on the caller's event queue, calling its
 * model and actuator directly; the queue is every agent's clock; all
 * runtimes record into the one config.trace recorder; and three
 * PeriodicTasks advance the substrate (VMs, memory accesses, channel
 * incidents) at their configured ticks.
 */
#pragma once

#include <memory>
#include <string>

#include "cluster/node_assembly.h"
#include "core/sim_runtime.h"
#include "sim/event_queue.h"

namespace sol::cluster {

/** All four paper agents co-located on one simulated node. */
class MultiAgentNode : public NodeAssembly
{
  public:
    /**
     * @param queue Shared event queue (owned by the caller/driver).
     * @param config Node configuration.
     */
    MultiAgentNode(sim::EventQueue& queue, MultiAgentNodeConfig config);
    ~MultiAgentNode();

    /** Starts the node drivers and every enabled agent runtime. */
    void Start();

    /** Stops all runtimes (drivers keep the substrate advancing). */
    void Stop();

    // --- Substrate introspection -----------------------------------------
    node::Node& node() { return substrate_.node; }
    node::TieredMemory& memory() { return substrate_.memory; }
    node::ChannelArray& channels() { return substrate_.channels; }
    agents::SamplingPolicy& policy() { return substrate_.policy; }
    node::VmId primary_vm() const { return substrate_.primary; }
    node::VmId elastic_vm() const { return substrate_.elastic; }
    const workloads::TailBench& primary_workload() const
    {
        return *substrate_.primary_workload;
    }
    agents::OverclockActuator* overclock_actuator()
    {
        return overclock_actuator_;
    }
    agents::HarvestActuator* harvest_actuator() { return harvest_actuator_; }

  private:
    friend class NodeAssembly;

    // Host hooks called by NodeAssembly::Assemble.
    const sim::Clock& NewClock(AgentParts& /*parts*/) { return queue_; }

    template <typename D, typename P>
    AgentRuntime& HostAgent(std::string name, const sim::Clock& clock,
                            core::Model<D, P>& model,
                            core::Actuator<P>& actuator,
                            const core::Schedule& schedule,
                            AgentParts parts, bool substrate);

    sim::EventQueue& queue_;

    // Substrate drivers (armed by Start()).
    std::unique_ptr<sim::PeriodicTask> node_driver_;
    std::unique_ptr<sim::PeriodicTask> memory_driver_;
    std::unique_ptr<sim::PeriodicTask> channel_driver_;
};

}  // namespace sol::cluster
