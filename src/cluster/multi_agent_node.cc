#include "cluster/multi_agent_node.h"

#include <utility>

namespace sol::cluster {

template <typename D, typename P>
AgentRuntime&
MultiAgentNode::HostAgent(std::string name, const sim::Clock& /*clock*/,
                          core::Model<D, P>& model,
                          core::Actuator<P>& actuator,
                          const core::Schedule& schedule, AgentParts parts,
                          bool /*substrate*/)
{
    // The queue serializes every agent on one thread: no locks, no
    // decorators — the runtime calls the model and actuator directly.
    auto& runtime = parts.Make<core::SimRuntime<D, P>>(
        queue_, model, actuator, schedule, config_.runtime);
    runtime.SetTraceRecorder(config_.trace);
    return AddAgent(std::move(name), runtime, actuator, std::move(parts));
}

MultiAgentNode::MultiAgentNode(sim::EventQueue& queue,
                               MultiAgentNodeConfig config)
    : NodeAssembly(std::move(config)), queue_(queue)
{
    Assemble(*this);
}

MultiAgentNode::~MultiAgentNode() = default;

void
MultiAgentNode::Start()
{
    if (started_) {
        return;
    }
    started_ = true;

    const sim::Duration node_tick = config_.node_tick;
    node_driver_ = std::make_unique<sim::PeriodicTask>(
        queue_, node_tick, [this, node_tick] {
            substrate_.node.Advance(queue_.Now(), node_tick);
        });
    const sim::Duration memory_tick = config_.memory_tick;
    memory_driver_ = std::make_unique<sim::PeriodicTask>(
        queue_, memory_tick, [this, memory_tick] {
            substrate_.memory_pattern->GenerateAccesses(
                queue_.Now() - memory_tick, memory_tick, substrate_.memory);
        });
    const sim::Duration channel_tick = config_.channel_tick;
    channel_driver_ = std::make_unique<sim::PeriodicTask>(
        queue_, channel_tick, [this, channel_tick] {
            substrate_.channels.Advance(queue_.Now() - channel_tick,
                                        channel_tick,
                                        substrate_.incident_rng);
        });

    StartAgents();
}

void
MultiAgentNode::Stop()
{
    StopAgents();
}

}  // namespace sol::cluster
