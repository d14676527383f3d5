/**
 * @file
 * Shared plumbing for the perfbench binary: host clocks, process
 * counters, order statistics, the metric map every workload fills, and
 * the correctness ledger that turns any failed check into a failed run.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/latency_histogram.h"

namespace perfbench {

/** Host monotonic time in nanoseconds. */
std::int64_t NowNs();

/** Host monotonic time in seconds. */
double NowSeconds();

/** CPU time of the whole process (user + sys, every thread), seconds. */
double ProcessCpuSeconds();

/** Peak resident set size of the process so far, MiB. */
double PeakRssMb();

/** Cumulative CPU time of the whole host, in clock ticks: all states,
 *  and the share the hypervisor stole (from /proc/stat). */
struct HostCpuTicks {
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
};
HostCpuTicks ReadHostCpuTicks();

/** Share of host CPU time stolen between two readings (0 when none
 *  elapsed). */
double StealShare(const HostCpuTicks& from, const HostCpuTicks& to);

/**
 * Indices (in run order) of the `count` samples taken under the least
 * host CPU steal; ties keep run order. The host this benchmark was
 * defined on steals CPU in episodes of seconds to a minute; measuring
 * the quieter intervals of a run keeps that out of the figures, and the
 * selection never looks at the figures themselves.
 */
std::vector<std::size_t> Quietest(const std::vector<double>& steal,
                                  std::size_t count);

/** Host steal share below which an interval counts as quiet. */
inline constexpr double kQuietSteal = 0.01;

/** OS threads in this process right now (from /proc/self/status). */
int ProcessThreads();

/** Median of `values` (0 for an empty vector). */
double Median(std::vector<double> values);

/** Nearest-rank percentile `p` in [0, 100] of `values`. */
double Percentile(std::vector<double> values, double p);

/**
 * Percentile of a LatencyHistogram, interpolated linearly inside the
 * log bucket that holds it. LatencyHistogram::ValueAtPercentile returns
 * bucket midpoints (12.5% wide), so two runs whose true percentiles
 * differ by a few percent often read identical; this finds the share of
 * samples below and inside the bucket by bisection over the public
 * percentile function and interpolates, the way Prometheus'
 * histogram_quantile does.
 */
double InterpolatedPercentile(const sol::telemetry::LatencyHistogram& hist,
                              double p);

/** `text` as a JSON string literal (quotes and backslashes escaped). */
std::string JsonQuote(const std::string& text);

/** One reported metric. */
struct Metric {
    double value = 0.0;
    std::string unit;
};

/** Metrics by name, in name order (the output order). */
using Metrics = std::map<std::string, Metric>;

/** Collects every correctness check a run makes. */
class Checks
{
  public:
    /** Records one check; a false `ok` prints `what` to stderr. */
    void Expect(bool ok, const std::string& what);

    std::uint64_t made() const { return made_; }
    std::uint64_t failed() const { return failed_; }
    bool all_passed() const { return failed_ == 0; }

  private:
    std::uint64_t made_ = 0;
    std::uint64_t failed_ = 0;
};

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_out";
};

/** What a workload hands back to main for the result line. */
struct RunOutcome {
    Metrics metrics;
    /** Operations the run attempted and how many of them failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Human-readable notes (sample counts, percentiles used) written
     *  next to the metrics in the result file. */
    std::map<std::string, std::string> notes;
};

}  // namespace perfbench
