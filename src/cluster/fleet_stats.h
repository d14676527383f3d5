/**
 * @file
 * The one roll-up of a group of agents.
 *
 * FleetStats is what a node, a shard and the whole fleet report about
 * their agents. NodeAssembly builds a node's in one pass over its agent
 * slots; NodeShard and fleet::ShardedFleetRunner only sum node
 * roll-ups. Health sampling, metric collection and the scenario
 * verdicts all read it, so a group's counters are summed in exactly one
 * way.
 */
#pragma once

#include <cstdint>

#include "core/runtime_stats.h"
#include "telemetry/latency_histogram.h"

namespace sol::cluster {

/** Roll-up of a group of agents (one node, a shard, or the fleet). */
struct FleetStats {
    core::RuntimeStats agents;  ///< Every agent's counters, summed.
    /** Every agent's epoch durations, merged bucket-wise (exact and
     *  independent of how the group was walked). */
    telemetry::LatencyHistogram epoch_latency;
    std::uint64_t total_agents = 0;  ///< Real + synthetic.
    std::uint64_t arbiter_requests = 0;
    std::uint64_t conflicts_observed = 0;
    std::uint64_t conflicts_resolved = 0;

    /** Folds another group's roll-up into this one. */
    void
    Accumulate(const FleetStats& other)
    {
        agents.Accumulate(other.agents);
        epoch_latency.Merge(other.epoch_latency);
        total_agents += other.total_agents;
        arbiter_requests += other.arbiter_requests;
        conflicts_observed += other.conflicts_observed;
        conflicts_resolved += other.conflicts_resolved;
    }
};

}  // namespace sol::cluster
