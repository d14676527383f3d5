#include "cluster/node_shard.h"

#include <string>

#include "sim/rng.h"

namespace sol::cluster {

NodeShard::NodeShard(const NodeShardConfig& config)
    : config_(config)
{
    queue_.SetPendingLimit(config_.queue_pending_limit);
    if (config_.trace_session != nullptr) {
        // The queue is the shard's virtual clock, so every event on
        // this track carries a deterministic timestamp.
        const std::string track =
            config_.trace_track.empty()
                ? "shard" + std::to_string(config_.first_node_index)
                : config_.trace_track;
        trace_ = config_.trace_session->NewRecorder(
            track, &queue_, config_.trace_capacity);
    }
    nodes_.reserve(config_.num_nodes);
    for (std::size_t i = 0; i < config_.num_nodes; ++i) {
        const std::size_t global = config_.first_node_index + i;
        MultiAgentNodeConfig node_config = config_.node;
        node_config.name = "node" + std::to_string(global);
        node_config.seed =
            sim::DeriveStreamSeed(config_.base_seed, global);
        node_config.node_index = global;
        node_config.trace = trace_;
        nodes_.push_back(
            std::make_unique<MultiAgentNode>(queue_, node_config));
    }
}

void
NodeShard::RunUntil(sim::TimePoint horizon)
{
    // Bind the shard track for the duration of the step: arbiter spans
    // emitted from inside node events land on it, whichever worker
    // thread is stepping this shard.
    telemetry::trace::ScopedThreadRecorder bind(trace_);
    if (!started_) {
        started_ = true;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            MultiAgentNode* node = nodes_[i].get();
            const std::size_t global = config_.first_node_index + i;
            const sim::Duration offset = config_.start_stagger * global;
            if (offset <= sim::Duration::zero()) {
                node->Start();
            } else {
                queue_.ScheduleAfter(offset, [node] { node->Start(); });
            }
        }
    }
    queue_.RunUntil(horizon);
}

void
NodeShard::Stop()
{
    for (auto& node : nodes_) {
        node->Stop();
    }
}

void
NodeShard::CleanUpAll()
{
    for (auto& node : nodes_) {
        node->CleanUpAll();
    }
}

FleetStats
NodeShard::Stats() const
{
    FleetStats stats;
    for (const auto& node : nodes_) {
        stats.Accumulate(node->Stats());
    }
    return stats;
}

void
NodeShard::CollectNodeMetrics(telemetry::MetricRegistry& out)
{
    for (auto& node : nodes_) {
        node->CollectMetrics();
        out.MergeFrom(node->metrics(), node->name());
    }
}

void
WriteFleetScope(telemetry::MetricRegistry& out, const FleetStats& fleet,
                std::size_t num_nodes,
                const sim::EventQueueStats& queue)
{
    telemetry::MetricScope scope(out, "fleet");
    scope.SetGauge("num_nodes", static_cast<double>(num_nodes));
    scope.SetGauge("total_agents",
                   static_cast<double>(fleet.total_agents));
    scope.SetGauge("total_epochs",
                   static_cast<double>(fleet.agents.epochs));
    scope.SetGauge("total_actions",
                   static_cast<double>(fleet.agents.actions_taken));
    scope.SetGauge("safeguard_triggers",
                   static_cast<double>(fleet.agents.safeguard_triggers));
    scope.SetGauge("arbiter_requests",
                   static_cast<double>(fleet.arbiter_requests));
    scope.SetGauge("conflicts_observed",
                   static_cast<double>(fleet.conflicts_observed));
    scope.SetGauge("conflicts_resolved",
                   static_cast<double>(fleet.conflicts_resolved));

    // Fleet-wide epoch-duration distribution (virtual ns): the merge is
    // bucket-wise addition, so the result is exact and independent of
    // shard/thread layout.
    if (!fleet.epoch_latency.empty()) {
        scope.SetHistogram("epoch_ns", fleet.epoch_latency);
    }

    // Queue health: arena footprint and drop counters are fleet-level
    // signals however many shard queues the fleet runs on.
    WriteQueueGauges(scope.Sub("queue"), queue);
}

void
WriteQueueGauges(telemetry::MetricScope scope,
                 const sim::EventQueueStats& queue)
{
    scope.SetGauge("executed", static_cast<double>(queue.executed));
    scope.SetGauge("scheduled", static_cast<double>(queue.scheduled));
    scope.SetGauge("cancelled", static_cast<double>(queue.cancelled));
    scope.SetGauge("dropped", static_cast<double>(queue.dropped));
    scope.SetGauge("pending", static_cast<double>(queue.pending));
    scope.SetGauge("peak_pending",
                   static_cast<double>(queue.peak_pending));
    scope.SetGauge("arena_capacity",
                   static_cast<double>(queue.arena_capacity));
}

}  // namespace sol::cluster
