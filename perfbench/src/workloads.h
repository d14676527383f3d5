/**
 * @file
 * The three benchmark workloads and the metric catalogue they report.
 *
 * Every workload reports every end-to-end metric in an untraced run
 * (--trace 0) and every per-layer metric in a traced run (--trace 1);
 * a per-layer metric whose layer the workload does not exercise reads 0
 * (README.md, "Metric definitions", lists which).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime_stats.h"

#include "spans.h"
#include "util.h"

namespace perfbench {

/** One catalogue entry: metric name and unit. */
struct MetricName {
    const char* name;
    const char* unit;
};

/** The end-to-end metrics, in BENCHMARK.json order. */
const std::vector<MetricName>& EndToEndMetrics();

/** The per-layer metrics, in BENCHMARK.json order. */
const std::vector<MetricName>& PerLayerMetrics();

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string>& WorkloadNames();

/** fleet_steady / fleet_storm: a ShardedFleetRunner workload. */
RunOutcome RunFleetWorkload(const Options& options, Checks& checks,
                            SpanLog* spans);

/** threaded_node: one ThreadedMultiAgentNode on the wall clock. */
RunOutcome RunThreadedWorkload(const Options& options, Checks& checks,
                               SpanLog* spans);

/** Agent-side work items, comparable across backends: samples +
 *  model assessments + actions + actuator assessments. */
std::uint64_t AgentOps(const sol::core::RuntimeStats& stats);

/** Actuation requests the arbiter refused, as a share of all requests
 *  (0 when there were none). */
double DenialRatio(std::uint64_t refused, std::uint64_t requests);

/** Sets `name` to `value` with the catalogue's unit for it. */
void Set(Metrics& metrics, const std::string& name, double value);

}  // namespace perfbench
