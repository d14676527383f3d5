/**
 * @file
 * Layer probes: isolated ns/op figures for one public entry point of one
 * layer, driven with the shape the workload's own run produced (pending
 * set size, delay mix, request mix, series count, latency mix).
 *
 * Every probe checks what it measured: queue pop order is strictly
 * (time, insertion), engine counters and histogram counts equal the
 * calls made, arbiter decisions match a sequential replay, trace rings
 * account for every span, alert replays reproduce the run's log.
 * Operation counts are fixed, so only the time per operation varies
 * from run to run.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/interference_arbiter.h"
#include "cluster/multi_agent_node.h"
#include "core/actuation.h"
#include "core/schedule.h"
#include "sim/time.h"
#include "telemetry/alerting.h"
#include "telemetry/latency_histogram.h"
#include "telemetry/metric_registry.h"
#include "telemetry/timeseries.h"
#include "workloads/trace_driver.h"

#include "spans.h"
#include "util.h"

namespace perfbench {

/** Time per operation of one probe loop. */
struct ProbeResult {
    double ns_per_op = 0.0;
};

// ---- sim ---------------------------------------------------------------

/** Pending-set shape of one shard queue. */
struct QueueShape {
    std::size_t pending = 0;                  ///< Primed pending-set size.
    std::vector<sol::sim::Duration> delays;   ///< Delay mix, cycled.
    double cancel_ratio = 0.0;                ///< Cancels per schedule.
};

/**
 * Delay mix of one node's event traffic, weighted by event rate: the
 * node's substrate ticks plus each agent's collect, epoch-end wake,
 * actuation-timeout and assessment events, read from the public agent
 * schedules (SmartXSchedule(), MakeSyntheticSchedule()).
 */
std::vector<sol::sim::Duration>
NodeDelayMix(const sol::cluster::MultiAgentNodeConfig& node,
             std::size_t samples, std::uint64_t seed);

struct QueueProbe {
    ProbeResult schedule;
    ProbeResult pop;
    ProbeResult cancel;
};

/** EventQueue::ScheduleAfter / Step (no-op callback) / EventHandle::
 *  Cancel in a hold loop around `shape.pending`. */
QueueProbe ProbeEventQueue(const QueueShape& shape, SpanLog* spans,
                           int parent, Checks& checks);

// ---- core --------------------------------------------------------------

struct EngineProbe {
    ProbeResult collect;          ///< CollectOnce.
    ProbeResult finish_epoch;     ///< FinishEpoch (update/predict/assess).
    ProbeResult actuator_wake;    ///< Deliver + ActuatorWake.
    ProbeResult assess_actuator;  ///< AssessActuator.
};

/** EpochEngine driven directly with a no-op Model/Actuator on
 *  `schedule`; `threaded` selects ThreadedEnginePolicy (the threaded
 *  runtime's engine) instead of SimEnginePolicy. */
EngineProbe ProbeEpochEngine(const sol::core::Schedule& schedule,
                             bool threaded, SpanLog* spans, int parent,
                             Checks& checks);

// ---- node --------------------------------------------------------------

struct NodeProbe {
    ProbeResult advance;  ///< Node::Advance at the node tick.
    ProbeResult power;    ///< PowerModel::CorePower.
};

/** A node built like MultiAgentNode's substrate, advanced at its tick. */
NodeProbe ProbeNode(const sol::cluster::MultiAgentNodeConfig& node,
                    SpanLog* spans, int parent, Checks& checks);

// ---- cluster -----------------------------------------------------------

/** The node's arbiter traffic: each agent on its configured domain,
 *  weighted by its action rate, expanding with the workload's
 *  probability and otherwise restoring. */
std::vector<sol::core::ActuationRequest>
NodeRequestMix(const sol::cluster::MultiAgentNodeConfig& node,
               std::size_t count, std::uint64_t seed);

/** Single-threaded InterferenceArbiter::Admit over `requests`, checked
 *  decision by decision against a sequential replay. */
ProbeResult ProbeAdmit(const sol::cluster::InterferenceArbiterConfig& config,
                       const std::vector<sol::core::ActuationRequest>& requests,
                       SpanLog* spans, int parent, Checks& checks);

/** Sum of the per-agent "arbiter.<agent>.requests" counters an
 *  arbiter's WriteMetrics() published into `metrics`. */
std::uint64_t PublishedRequests(const sol::telemetry::MetricRegistry& metrics);

struct ContendedProbe {
    ProbeResult admit;
    double admit_p99_ns = 0.0;      ///< From the arbiter's admit histogram.
    double lock_wait_p99_ns = 0.0;  ///< From its lock-wait histogram.
};

/** `threads` threads admitting concurrently on the coupled CPU
 *  frequency/cores domains (track_contention on). */
ContendedProbe ProbeAdmitContended(std::size_t threads, std::uint64_t seed,
                                   SpanLog* spans, int parent,
                                   Checks& checks);

// ---- telemetry ---------------------------------------------------------

/** LatencyHistogram::Record with values drawn from `shape`. */
ProbeResult ProbeHistogramRecord(const sol::telemetry::LatencyHistogram& shape,
                                 std::uint64_t seed, SpanLog* spans,
                                 int parent, Checks& checks);

struct SpanProbe {
    ProbeResult with_room;  ///< Ring has room: claim + publish.
    ProbeResult full;       ///< Ring full: the drop path.
};

/** TraceSpan into a TraceRecorder on a virtual clock, ring with room
 *  and ring full. */
SpanProbe ProbeTraceSpan(SpanLog* spans, int parent, Checks& checks);

/**
 * AlertEngine::Evaluate with the default fleet rules, replayed over a
 * run's health store: the samples of each sampled horizon are appended
 * to a fresh store and the engine evaluated there, as the fleet runner
 * did. The replayed transition log must equal `expected`.
 */
ProbeResult ProbeAlertReplay(const sol::telemetry::TimeSeriesStore& store,
                             const std::vector<sol::telemetry::AlertEvent>&
                                 expected,
                             SpanLog* spans, int parent, Checks& checks);

/** TraceDriver DemandAt + CadenceScale + ActuatorFailingAt over random
 *  (tenant, t) in [0, horizon); ns per query. */
ProbeResult ProbeTraceDriver(const sol::workloads::TraceDriver& driver,
                             sol::sim::Duration horizon, std::uint64_t seed,
                             SpanLog* spans, int parent, Checks& checks);

}  // namespace perfbench
