/**
 * @file
 * Shard-steppable core of the fleet driver: a group of MultiAgentNodes
 * on one private event queue.
 *
 * Stepping every node of a fleet on one shared EventQueue is correct
 * but a hard scaling wall: one virtual clock means one thread, no
 * matter how many cores the host has. The shard is that loop as a
 * self-contained unit: it owns its queue (arena, virtual clock, trace
 * hash), its contiguous slice of the fleet's nodes, and the
 * staggered-start scheduling. fleet::ShardedFleetRunner holds one
 * shard per worker-thread work item and steps them in parallel between
 * barriers; with `num_shards = 1` it is the serial fleet — every node
 * interleaved on one virtual clock.
 *
 * Nodes never exchange events across shards — fleet nodes are
 * statistically independent by construction (per-node RNG streams) —
 * so a shard's trace depends only on the fleet seed and on *which*
 * global node indices it owns, never on which thread steps it or how
 * many sibling shards exist. That is the whole determinism argument of
 * the sharded runner (docs/FLEET.md).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/fleet_stats.h"
#include "cluster/multi_agent_node.h"
#include "sim/event_queue.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace.h"

namespace sol::cluster {

/** Configuration of one shard: a contiguous slice of the fleet. */
struct NodeShardConfig {
    /** Global index of the shard's first node; node k of the shard is
     *  global node `first_node_index + k` ("node17"), and both its RNG
     *  stream and its start stagger derive from that global index, so
     *  a node behaves identically no matter how the fleet is sliced
     *  into shards. */
    std::size_t first_node_index = 0;
    std::size_t num_nodes = 0;

    /** Fleet seed; global node i runs stream DeriveStreamSeed(seed, i). */
    std::uint64_t base_seed = 1;

    /** Offset between consecutive *global* node start times. */
    sim::Duration start_stagger = sim::Millis(1);

    /**
     * Backpressure bound on this shard's queue (0 = unlimited).
     * Million-event fleet runs set this as a guard rail: an event storm
     * shows up as `fleet.queue.dropped` instead of a silent OOM. Drops
     * are lossy (an agent whose control event is shed may stall for the
     * rest of the run — see sim::EventQueue::SetPendingLimit), so set
     * it far above the expected peak and treat any non-zero
     * `fleet.queue.dropped` as an invalid run.
     */
    std::size_t queue_pending_limit = 0;

    /**
     * Flight-recorder session the shard creates its track in (null
     * disables tracing). The shard owns one SPSC ring for everything it
     * steps: its queue serializes every node's agents on whichever
     * worker thread runs the shard, so one recorder — timestamped
     * against the shard's virtual clock, hence byte-deterministic — is
     * safe. It is also injected as every node's `trace` config, and
     * RunUntil binds it as the thread-current recorder so arbiter spans
     * land on the shard track too.
     */
    telemetry::trace::TraceSession* trace_session = nullptr;

    /** Track name for the shard's recorder; empty derives
     *  "shard<first_node_index>". */
    std::string trace_track;

    /** Ring capacity for the shard's recorder (0 = session default). */
    std::size_t trace_capacity = 0;

    /** Template applied to every node (name/seed overridden per node). */
    MultiAgentNodeConfig node;
};

/** A group of MultiAgentNodes stepped together on one virtual clock. */
class NodeShard
{
  public:
    explicit NodeShard(const NodeShardConfig& config);

    /**
     * Advances the shard to an absolute virtual time. The first call
     * schedules every node's staggered start. Horizons must be
     * non-decreasing across calls (the queue never runs backwards).
     */
    void RunUntil(sim::TimePoint horizon);

    /** Advances the shard by a relative span of virtual time. */
    void Run(sim::Duration span) { RunUntil(queue_.Now() + span); }

    /** Stops every node's agent runtimes. */
    void Stop();

    /** SRE incident response: cleans up every agent on every node. */
    void CleanUpAll();

    /** The shard's roll-up: the sum of its nodes' Stats(). */
    FleetStats Stats() const;

    /** Merges per-node metrics (namespaced by node name) into `out`. */
    void CollectNodeMetrics(telemetry::MetricRegistry& out);

    std::size_t num_nodes() const { return nodes_.size(); }
    std::size_t first_node_index() const
    {
        return config_.first_node_index;
    }
    MultiAgentNode& node(std::size_t i) { return *nodes_[i]; }
    sim::EventQueue& queue() { return queue_; }
    const sim::EventQueue& queue() const { return queue_; }

    /** The shard's trace recorder (null when tracing is disabled). */
    telemetry::trace::TraceRecorder* trace() { return trace_; }

  private:
    NodeShardConfig config_;
    sim::EventQueue queue_;
    /** Owned by config_.trace_session; created before the nodes so it
     *  can be injected into their configs. */
    telemetry::trace::TraceRecorder* trace_ = nullptr;
    std::vector<std::unique_ptr<MultiAgentNode>> nodes_;
    bool started_ = false;
};

/**
 * Writes the fleet roll-up (counters and the merged epoch histogram)
 * plus one queue's health gauges into a "fleet"-scoped section of
 * `out`. fleet::ShardedFleetRunner sums its per-shard queue stats
 * before the call.
 */
void WriteFleetScope(telemetry::MetricRegistry& out,
                     const FleetStats& fleet, std::size_t num_nodes,
                     const sim::EventQueueStats& queue);

/**
 * Writes one queue's health gauges (executed/scheduled/cancelled/
 * dropped/pending/peak_pending/arena_capacity) under `scope`. The one
 * place these gauge names are spelled — the fleet scope and the
 * per-shard window metrics both go through it.
 */
void WriteQueueGauges(telemetry::MetricScope scope,
                      const sim::EventQueueStats& queue);

}  // namespace sol::cluster
