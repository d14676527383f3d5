/**
 * @file
 * The one roll-up of a group of agents, and the health sample written
 * from it.
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
#include <string>

#include "core/runtime_stats.h"
#include "sim/time.h"
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

/**
 * Appends one health sample of `stats` at `at` to `store` (a
 * telemetry::TimeSeriesStore or SharedTimeSeriesStore): 17 integer
 * series named `<prefix><series>`, except the epoch-latency
 * percentiles, which are named `<latency_prefix>epoch_latency.*`. A
 * node samples with both prefixes "<node>."; the fleet with "fleet."
 * and "fleet.node.". docs/OBSERVABILITY.md lists the series.
 */
template <typename Store>
void
AppendHealthSample(Store& store, sim::TimePoint at, const FleetStats& stats,
                   const std::string& prefix,
                   const std::string& latency_prefix)
{
    const auto append = [&store, at](const std::string& name,
                                     std::uint64_t value) {
        store.Append(name, at, static_cast<std::int64_t>(value));
    };
    const core::RuntimeStats& a = stats.agents;
    append(prefix + "safeguard.trips", a.safeguard_triggers);
    append(prefix + "safeguard.mitigations", a.mitigations);
    append(prefix + "model.failures", a.failed_assessments);
    append(prefix + "model.intercepted", a.intercepted_predictions);
    append(prefix + "data.harvested", a.samples_collected);
    append(prefix + "data.invalid", a.invalid_samples);
    append(prefix + "epochs", a.epochs);
    append(prefix + "actions", a.actions_taken);
    append(prefix + "arbiter.requests", stats.arbiter_requests);
    append(prefix + "arbiter.denied", stats.conflicts_resolved);

    // Error-budget denominators for time-fraction SLOs: cumulative
    // halted agent-time against cumulative scheduled agent-time
    // (agents x elapsed virtual time, exact integer math).
    append(prefix + "agent.halted_ns",
           static_cast<std::uint64_t>(a.halted_time.count()));
    append(prefix + "agent.active_ns",
           stats.total_agents * static_cast<std::uint64_t>(at.count()));

    const telemetry::LatencySnapshot s = stats.epoch_latency.Snapshot();
    append(latency_prefix + "epoch_latency.count", s.count);
    append(latency_prefix + "epoch_latency.p50_ns", s.p50_ns);
    append(latency_prefix + "epoch_latency.p90_ns", s.p90_ns);
    append(latency_prefix + "epoch_latency.p99_ns", s.p99_ns);
    append(latency_prefix + "epoch_latency.p999_ns", s.p999_ns);
}

}  // namespace sol::cluster
