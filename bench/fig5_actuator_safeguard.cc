/**
 * @file
 * Regenerates Figure 5: the SmartOverclock actuator safeguard during
 * long-lasting idle phases.
 *
 * The workload alternates short compute bursts with multi-minute idle
 * periods (a VM running periodic data-processing jobs). The safeguard
 * monitors the P90 of the activity factor alpha over the past 100 s and
 * disables overclocking during sustained low activity, re-enabling
 * quickly when activity returns. The run prints a time series plus the
 * wasted-overclocked-idle-time summary with and without the safeguard.
 */
#include <iostream>

#include "experiments/overclock_experiments.h"
#include "telemetry/metric_registry.h"

using sol::experiments::OverclockRunConfig;
using sol::experiments::OverclockRunResult;
using sol::experiments::OverclockWorkload;
using sol::experiments::RunOverclock;
using sol::telemetry::TableWriter;

namespace {

/** Seconds the node spent overclocked while the workload was idle. */
double
OverclockedIdleSeconds(const OverclockRunResult& run)
{
    double total = 0.0;
    for (const auto& point : run.trace) {
        if (!point.workload_busy && point.freq_ghz > 1.51) {
            total += 1.0;  // 1 Hz trace.
        }
    }
    return total;
}

}  // namespace

int
main()
{
    std::cout << "=== Figure 5: actuator safeguard during idle phases"
              << " ===\n";
    std::cout << "(Synthetic workload with 40 s bursts every 400 s)\n\n";

    OverclockRunConfig base;
    base.workload = OverclockWorkload::kSynthetic;
    base.duration = sol::sim::Seconds(2400);
    base.synthetic.period = sol::sim::Seconds(400);
    base.synthetic.work_gcycles = 480;  // 40 s busy at nominal.
    base.record_trace = true;

    TableWriter table({"actuator safeguard", "idle overclocked s",
                       "avg power W", "safeguard triggers",
                       "halted s"});
    OverclockRunResult guarded;
    for (const bool enabled : {true, false}) {
        OverclockRunConfig config = base;
        config.runtime.disable_actuator_safeguard = !enabled;
        const OverclockRunResult run = RunOverclock(config);
        if (enabled) {
            guarded = run;
        }
        table.AddRow({enabled ? "on" : "off",
                      TableWriter::Num(OverclockedIdleSeconds(run), 0),
                      TableWriter::Num(run.avg_power_watts, 1),
                      std::to_string(run.stats.safeguard_triggers),
                      TableWriter::Num(
                          sol::sim::ToSeconds(run.stats.halted_time), 0)});
    }
    table.Print(std::cout);

    std::cout << "\nTime series (guarded run, one row per 20 s):\n";
    std::cout << "time_s,freq_ghz,alpha,safeguard_active,busy\n";
    for (std::size_t i = 0; i < guarded.trace.size(); i += 20) {
        const auto& p = guarded.trace[i];
        std::cout << p.time_s << "," << p.freq_ghz << ","
                  << TableWriter::Num(p.alpha, 2) << ","
                  << (p.safeguard_active ? 1 : 0) << ","
                  << (p.workload_busy ? 1 : 0) << "\n";
    }
    std::cout << "\nPaper reference: the safeguard disables the agent"
              << " during low-activity periods and re-enables it quickly"
              << " when activity returns.\n";

    sol::telemetry::BenchJson json("fig5_actuator_safeguard");
    json.AddTable("results", table);
    TableWriter trace({"time_s", "freq_ghz", "alpha", "safeguard_active"});
    for (const auto& p : guarded.trace) {
        trace.AddRow({TableWriter::Exact(p.time_s),
                      TableWriter::Exact(p.freq_ghz),
                      TableWriter::Exact(p.alpha),
                      p.safeguard_active ? "1" : "0"});
    }
    json.AddTable("guarded_trace", trace);
    json.WriteFile();
    return 0;
}
