/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <fleet_steady|fleet_storm|threaded_node>
 *             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
 *
 * Prints a provenance line, then as its last stdout line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1. The same object,
 * with provenance and notes, lands in <out-dir>/<workload>-seed<n>-
 * trace<k>-result.json; a traced run also writes its spans to
 * <out-dir>/<workload>-seed<n>-spans.json. Exits 1 when any correctness
 * check failed and 2 on bad usage or a build whose numbers are not
 * comparable (Debug, assertions on, or sanitized).
 */
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "spans.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricName>&
EndToEndMetrics()
{
    static const std::vector<MetricName> metrics = {
        {"setup_s", "s"},
        {"events_per_s", "1/s"},
        {"cpu_ns_per_event", "ns"},
        {"window_p50_ms", "ms"},
        {"window_tail_ms", "ms"},
        {"peak_rss_mb", "MB"},
        {"failed_ratio", "ratio"},
        {"agent_ops_per_s", "1/s"},
        {"cpu_us_per_agent_op", "us"},
        {"epoch_p50_us", "us"},
        {"epoch_p99_us", "us"},
    };
    return metrics;
}

const std::vector<MetricName>&
PerLayerMetrics()
{
    static const std::vector<MetricName> metrics = {
        {"sim.schedule_ns", "ns"},
        {"sim.pop_ns", "ns"},
        {"sim.cancel_ns", "ns"},
        {"sim.events_scheduled", "count"},
        {"sim.events_executed", "count"},
        {"sim.events_cancelled", "count"},
        {"sim.events_dropped", "count"},
        {"sim.peak_pending", "count"},
        {"sim.cancel_ratio", "ratio"},
        {"core.collect_ns", "ns"},
        {"core.finish_epoch_ns", "ns"},
        {"core.actuator_wake_ns", "ns"},
        {"core.assess_actuator_ns", "ns"},
        {"core.events_per_epoch", "count"},
        {"core.threads", "count"},
        {"core.expired_predictions", "count"},
        {"core.epochs", "count"},
        {"core.samples_collected", "count"},
        {"core.actions_taken", "count"},
        {"core.safeguard_triggers", "count"},
        {"node.advance_ns", "ns"},
        {"node.power_ns", "ns"},
        {"cluster.admit_ns", "ns"},
        {"cluster.admit_contended_ns", "ns"},
        {"cluster.admit_p99_ns", "ns"},
        {"cluster.lock_wait_p99_ns", "ns"},
        {"cluster.shard_run_ms", "ms"},
        {"cluster.shard_imbalance", "ratio"},
        {"cluster.arbiter_requests", "count"},
        {"cluster.conflicts_observed", "count"},
        {"cluster.conflicts_resolved", "count"},
        {"cluster.denial_ratio", "ratio"},
        {"fleet.run_window_ms", "ms"},
        {"fleet.parallel_efficiency", "ratio"},
        {"fleet.collect_metrics_ms", "ms"},
        {"telemetry.hist_record_ns", "ns"},
        {"telemetry.span_ns", "ns"},
        {"telemetry.span_drop_ns", "ns"},
        {"telemetry.alert_eval_us", "us"},
        {"telemetry.trace_recorded", "count"},
        {"telemetry.trace_dropped", "count"},
        {"telemetry.health_samples", "count"},
        {"telemetry.alert_transitions", "count"},
        {"telemetry.trace_keep_ratio", "ratio"},
        {"workloads.driver_ns", "ns"},
        {"ledger.attributed_share", "ratio"},
        {"bench.trace_overhead", "ratio"},
    };
    return metrics;
}

const std::vector<std::string>&
WorkloadNames()
{
    static const std::vector<std::string> names = {
        "fleet_steady", "fleet_storm", "threaded_node"};
    return names;
}

std::uint64_t
AgentOps(const sol::core::RuntimeStats& s)
{
    return s.samples_collected + s.model_assessments + s.actions_taken +
           s.actuator_assessments;
}

double
DenialRatio(std::uint64_t refused, std::uint64_t requests)
{
    return requests == 0 ? 0.0
                         : static_cast<double>(refused) /
                               static_cast<double>(requests);
}

void
Set(Metrics& metrics, const std::string& name, double value)
{
    for (const auto* catalogue : {&EndToEndMetrics(), &PerLayerMetrics()}) {
        for (const MetricName& metric : *catalogue) {
            if (name == metric.name) {
                metrics[name] = {value, metric.unit};
                return;
            }
        }
    }
    throw std::logic_error("metric not in the catalogue: " + name);
}

namespace {

// ---- Provenance ----------------------------------------------------------

#if defined(PERFBENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertions = false;
#else
constexpr bool kAssertions = true;
#endif

std::map<std::string, std::string>
Provenance(const Options& options)
{
    return {
        {"workload", options.workload},
        {"seed", std::to_string(options.seed)},
        {"seconds", std::to_string(options.seconds)},
        {"trace", options.trace ? "1" : "0"},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"compiler", PERFBENCH_CXX_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"sanitized", kSanitized ? "yes" : "no"},
        {"assertions", kAssertions ? "on" : "off"},
    };
}

/** Numbers from these builds do not compare with Release numbers. */
bool
ComparableBuild()
{
    const std::string type = PERFBENCH_BUILD_TYPE;
    return !kSanitized && !kAssertions &&
           (type == "Release" || type == "RelWithDebInfo");
}

std::string
Number(double value)
{
    if (!std::isfinite(value)) {
        return "null";
    }
    std::ostringstream os;
    os << std::setprecision(10) << value;
    return os.str();
}

std::string
StringMap(const std::map<std::string, std::string>& map)
{
    std::string out = "{";
    for (const auto& [key, value] : map) {
        out += (out.size() > 1 ? ", " : "") + JsonQuote(key) + ": " +
               JsonQuote(value);
    }
    return out + "}";
}

std::string
ResultJson(bool correct, const RunOutcome& outcome,
           const std::vector<MetricName>& catalogue)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(outcome.attempted) +
                      ", \"failed\": " + std::to_string(outcome.failed) +
                      ", \"metrics\": {";
    bool first = true;
    for (const MetricName& metric : catalogue) {
        const Metric& m = outcome.metrics.at(metric.name);
        out += std::string(first ? "" : ", ") + JsonQuote(metric.name) +
               ": {\"value\": " + Number(m.value) +
               ", \"unit\": " + JsonQuote(m.unit) + "}";
        first = false;
    }
    return out + "}}";
}

int
Usage(const std::string& problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload <fleet_steady|fleet_storm|"
                 "threaded_node> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n";
    return 2;
}

int
Main(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            return Usage("missing value for " + arg);
        }
        const std::string value = argv[++i];
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::stoull(value);
        } else if (arg == "--seconds") {
            options.seconds = std::stod(value);
        } else if (arg == "--trace") {
            options.trace = value == "1";
        } else if (arg == "--out-dir") {
            options.out_dir = value;
        } else {
            return Usage("unknown argument " + arg);
        }
    }
    bool known = false;
    for (const std::string& name : WorkloadNames()) {
        known = known || name == options.workload;
    }
    if (!known) {
        return Usage("unknown workload '" + options.workload + "'");
    }
    if (!(options.seconds > 0.0)) {
        return Usage("--seconds must be positive");
    }

    const std::map<std::string, std::string> provenance = Provenance(options);
    std::cout << "provenance " << StringMap(provenance) << "\n";
    if (!ComparableBuild()) {
        std::cerr << "perfbench: refusing to measure a " PERFBENCH_BUILD_TYPE
                  << (kSanitized ? " sanitized" : "")
                  << (kAssertions ? " assertion-enabled" : "")
                  << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }

    Checks checks;
    SpanLog span_log;
    SpanLog* spans = options.trace ? &span_log : nullptr;
    const bool fleet = options.workload != "threaded_node";
    RunOutcome outcome = fleet ? RunFleetWorkload(options, checks, spans)
                               : RunThreadedWorkload(options, checks, spans);
    const std::vector<MetricName>& catalogue =
        options.trace ? PerLayerMetrics() : EndToEndMetrics();
    for (const MetricName& metric : catalogue) {
        checks.Expect(outcome.metrics.count(metric.name) == 1,
                      std::string("metric not reported: ") + metric.name);
    }
    for (const auto& [name, metric] : outcome.metrics) {
        checks.Expect(std::isfinite(metric.value),
                      "metric is not finite: " + name);
    }
    outcome.failed += checks.failed();
    const bool correct = checks.all_passed();

    // Human-readable table, then the result file and the spans file.
    for (const MetricName& metric : catalogue) {
        const auto it = outcome.metrics.find(metric.name);
        if (it != outcome.metrics.end()) {
            std::cout << std::left << std::setw(30) << metric.name
                      << std::right << std::setw(18) << Number(it->second.value)
                      << " " << it->second.unit << "\n";
        }
    }
    std::cout << "checks: " << checks.made() << " made, " << checks.failed()
              << " failed\n";
    mkdir(options.out_dir.c_str(), 0755);
    const std::string stem = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed);
    if (spans != nullptr) {
        for (const auto& [layer, ms] : spans->LayerSelfMs()) {
            std::cout << "self time  " << std::left << std::setw(10) << layer
                      << std::right << std::setw(12) << Number(ms) << " ms\n";
        }
        if (!spans->WriteJson(stem + "-spans.json", provenance)) {
            std::cerr << "perfbench: could not write " << stem
                      << "-spans.json\n";
        }
    }
    bool complete = true;
    for (const MetricName& metric : catalogue) {
        complete = complete && outcome.metrics.count(metric.name) == 1;
    }
    if (complete) {
        const std::string result = ResultJson(correct, outcome, catalogue);
        std::ofstream file(stem + "-trace" + (options.trace ? "1" : "0") +
                           "-result.json");
        file << "{\"provenance\": " << StringMap(provenance)
             << ", \"notes\": " << StringMap(outcome.notes)
             << ", \"result\": " << result << "}\n";
        std::cout << result << std::endl;
    }
    if (!correct) {
        std::cerr << "perfbench: " << checks.failed()
                  << " correctness check(s) failed\n";
        return 1;
    }
    return 0;
}

}  // namespace

}  // namespace perfbench

int
main(int argc, char** argv)
{
    try {
        return perfbench::Main(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
