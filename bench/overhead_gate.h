/**
 * @file
 * The one protocol behind the benches' observe-only overhead gates:
 * the flight recorder on vs off (fleet_scale, node_concurrency) and the
 * health sampler on vs off (scenario_suite).
 *
 * A smoke leg lasts tens of milliseconds, so wall time would charge
 * any descheduling to whichever side it hit. Each leg is therefore
 * timed in process CPU time, the legs run as interleaved pairs that
 * alternate which side runs first (so neither side always inherits the
 * other's warm or cold state), and the overhead is the median pair's
 * ratio: one noisy pair can neither pass nor fail the gate. The gate holds only in smoke mode on
 * unsanitized builds, where the budget is 5%; sanitizers multiply the
 * cost of the probed bookkeeping far beyond production reality, and
 * full-size runs are report-only, so both run one pair.
 */
#pragma once

#include <time.h>

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "telemetry/metric_registry.h"

namespace sol::bench {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
inline constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
inline constexpr bool kSanitizedBuild = true;
#else
inline constexpr bool kSanitizedBuild = false;
#endif
#else
inline constexpr bool kSanitizedBuild = false;
#endif

/** The most an observe-only feature may add to a leg's CPU time. */
inline constexpr double kOverheadBudget = 0.05;

/** Interleaved pairs behind a gated verdict (odd, so the median is one
 *  pair's value). One pair of tens-of-milliseconds legs swings by
 *  several percent either way on a shared 4-core host: the median of
 *  21 read fleet_scale's ~3% tracer cost anywhere from 1.3% to 7%,
 *  and 41 pairs cut that spread by about 1.4x. */
inline constexpr std::size_t kOverheadPairs = 41;

/** CPU time consumed so far by every thread of this process. Unlike
 *  wall time it does not grow while the process is descheduled. */
inline double
ProcessCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** What one overhead probe measured, and its verdict. */
struct OverheadProbe {
    bool smoke = false;
    bool gated = false;      ///< Smoke mode on an unsanitized build.
    std::size_t pairs = 0;
    double overhead = 0.0;   ///< Median pair's on/off - 1, floored at 0.
    double off_cpu_s = 0.0;  ///< Median off leg, CPU seconds.
    double on_cpu_s = 0.0;   ///< Median on leg, CPU seconds.

    bool ok() const { return !gated || overhead <= kOverheadBudget; }

    /** "1.23% (PASS)", "(FAIL)", "(report only)" or "(report only:
     *  sanitized)". */
    std::string
    Verdict() const
    {
        return telemetry::TableWriter::Num(overhead * 100.0, 2) + "%" +
               (!smoke            ? " (report only)"
                : kSanitizedBuild ? " (report only: sanitized)"
                : ok()            ? " (PASS)"
                                  : " (FAIL)");
    }

    /** ok(); on failure also names `what` in a FAIL line on stderr. */
    bool
    Check(const std::string& what) const
    {
        if (!ok()) {
            std::cerr << "FAIL: " << what << " overhead "
                      << telemetry::TableWriter::Num(overhead * 100.0, 2)
                      << "% exceeds the 5% budget (median of " << pairs
                      << " CPU-time pairs)\n";
        }
        return ok();
    }
};

/**
 * Runs interleaved off/on pairs and takes the median pair:
 * kOverheadPairs of them when gated, one otherwise. Even pairs run the
 * off leg first, odd pairs the on leg. `run_off(i)` and `run_on(i)`
 * run pair i's legs and return each leg's CPU seconds.
 */
template <typename Off, typename On>
OverheadProbe
MeasureOverhead(bool smoke, Off run_off, On run_on)
{
    OverheadProbe probe;
    probe.smoke = smoke;
    probe.gated = smoke && !kSanitizedBuild;
    probe.pairs = probe.gated ? kOverheadPairs : 1;
    std::vector<double> ratios;
    std::vector<double> off;
    std::vector<double> on;
    for (std::size_t i = 0; i < probe.pairs; ++i) {
        if (i % 2 == 0) {
            off.push_back(run_off(i));
            on.push_back(run_on(i));
        } else {
            on.push_back(run_on(i));
            off.push_back(run_off(i));
        }
        ratios.push_back(on.back() / off.back() - 1.0);
    }
    const auto median = [](std::vector<double> values) {
        std::sort(values.begin(), values.end());
        return values[values.size() / 2];
    };
    probe.overhead = std::max(0.0, median(ratios));
    probe.off_cpu_s = median(off);
    probe.on_cpu_s = median(on);
    return probe;
}

}  // namespace sol::bench
