/**
 * @file
 * Regenerates Figure 8: SmartMemory Model and Actuator safeguards on the
 * intentionally difficult oscillating workload (SpecJBB running 150 s,
 * sleeping 80 s, reshuffling its hot set at every reactivation).
 *
 * Four configurations: no safeguards, actuator-only, model-only, and all
 * safeguards. The actuator safeguard recovers from instantaneous SLO
 * violations immediately; the model safeguard prevents inaccurate
 * predictions from being used at all; only the combination both avoids
 * violations and recovers quickly.
 *
 * Expected shape (paper): ~66% SLO attainment with no safeguards rising
 * to ~90% with all safeguards enabled.
 */
#include <iostream>

#include "experiments/memory_experiments.h"
#include "telemetry/metric_registry.h"

using sol::experiments::MemoryRunConfig;
using sol::experiments::MemoryRunResult;
using sol::experiments::MemoryWorkload;
using sol::experiments::RunMemory;
using sol::telemetry::TableWriter;

int
main()
{
    std::cout << "=== Figure 8: SmartMemory Model + Actuator safeguards"
              << " (oscillating SpecJBB) ===\n\n";

    MemoryRunConfig base;
    base.workload = MemoryWorkload::kOscillating;
    base.duration = sol::sim::Seconds(1200);
    // Scaled mitigation size (see fig7 bench).
    base.agent.mitigation_batches = 16;

    struct Config {
        const char* name;
        bool model;
        bool actuator;
    };
    const Config configs[] = {
        {"no safeguards", false, false},
        {"actuator only", false, true},
        {"model only", true, false},
        {"all safeguards", true, true},
    };

    TableWriter table({"config", "SLO attainment %", "remote frac %",
                       "mitigations", "intercepted preds"});
    MemoryRunResult all_run;
    MemoryRunResult none_run;
    for (const auto& config : configs) {
        MemoryRunConfig run_config = base;
        run_config.runtime.disable_model_assessment = !config.model;
        run_config.runtime.disable_actuator_safeguard = !config.actuator;
        const MemoryRunResult run = RunMemory(run_config);
        if (config.model && config.actuator) {
            all_run = run;
        }
        if (!config.model && !config.actuator) {
            none_run = run;
        }
        table.AddRow({config.name,
                      TableWriter::Num(100.0 * run.slo_attainment, 1),
                      TableWriter::Num(
                          100.0 * run.overall_remote_fraction, 1),
                      std::to_string(run.stats.mitigations),
                      std::to_string(run.stats.intercepted_predictions)});
    }
    table.Print(std::cout);

    std::cout << "\nRemote-access fraction time series (rows per 30 s;"
              << " no-safeguards vs all-safeguards):\n";
    std::cout << "time_s,remote_none,remote_all\n";
    const std::size_t n =
        std::min(none_run.trace.size(), all_run.trace.size());
    for (std::size_t i = 0; i < n; i += 15) {
        std::cout << none_run.trace[i].time_s << ","
                  << TableWriter::Num(none_run.trace[i].remote_fraction, 3)
                  << ","
                  << TableWriter::Num(all_run.trace[i].remote_fraction, 3)
                  << "\n";
    }
    std::cout << "\nPaper reference: 66% SLO attainment without"
              << " safeguards vs 90% with all safeguards.\n";

    sol::telemetry::BenchJson json("fig8_memory_safeguards");
    json.AddTable("results", table);
    // Both runs sample on the same SLO-window grid, so one time column
    // serves.
    TableWriter trace({"time_s", "remote_none", "remote_all"});
    for (std::size_t i = 0; i < n; ++i) {
        trace.AddRow({TableWriter::Exact(none_run.trace[i].time_s),
                      TableWriter::Exact(none_run.trace[i].remote_fraction),
                      TableWriter::Exact(all_run.trace[i].remote_fraction)});
    }
    json.AddTable("remote_fraction_trace", trace);
    json.WriteFile();
    return 0;
}
