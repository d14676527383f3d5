#include "experiments/overclock_experiments.h"

#include <memory>

#include "node/node.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "workloads/disk_speed.h"
#include "workloads/object_store.h"

namespace sol::experiments {

namespace {

/** Simulation tick for the CPU workloads (fine enough for ms latency). */
constexpr sim::Duration kTick = sim::Millis(2);

std::shared_ptr<node::CpuWorkload>
MakeWorkload(const OverclockRunConfig& config)
{
    switch (config.workload) {
      case OverclockWorkload::kSynthetic:
        return std::make_shared<workloads::SyntheticBatch>(
            config.synthetic);
      case OverclockWorkload::kObjectStore: {
        workloads::ObjectStoreConfig os;
        os.seed = config.seed + 100;
        return std::make_shared<workloads::ObjectStore>(os);
      }
      case OverclockWorkload::kDiskSpeed:
        return std::make_shared<workloads::DiskSpeed>();
    }
    return nullptr;
}

}  // namespace

std::string
ToString(OverclockWorkload wl)
{
    switch (wl) {
      case OverclockWorkload::kSynthetic:
        return "Synthetic";
      case OverclockWorkload::kObjectStore:
        return "ObjectStore";
      case OverclockWorkload::kDiskSpeed:
        return "DiskSpeed";
    }
    return "Unknown";
}

OverclockRunResult
RunOverclock(const OverclockRunConfig& config)
{
    sim::EventQueue queue;
    node::NodeConfig node_config;
    node_config.total_cores = 8;
    node::Node node(node_config);

    auto workload = MakeWorkload(config);
    const node::VmId vm =
        node.AddVm(node::VmConfig{"customer", 8}, workload);

    sim::PeriodicTask node_driver(queue, kTick, [&] {
        node.Advance(queue.Now(), kTick);
    });

    agents::SmartOverclockConfig agent_config = config.agent;
    agent_config.seed = config.seed;
    agents::OverclockModel model(node, vm, queue, agent_config);
    agents::OverclockActuator actuator(node, vm, queue, agent_config);
    model.BreakModel(config.broken_model);

    std::unique_ptr<core::SimRuntime<agents::OverclockSample, double>>
        runtime;
    if (config.static_freq_ghz.has_value()) {
        node.SetVmFrequency(vm, *config.static_freq_ghz);
    } else {
        runtime = std::make_unique<
            core::SimRuntime<agents::OverclockSample, double>>(
            queue, model, actuator, agents::SmartOverclockSchedule(),
            config.runtime);
        runtime->Start();
    }

    // Fig 2: corrupt a fraction of IPS readings with out-of-range values.
    sim::Rng fault_rng(config.seed + 17);
    if (runtime && config.bad_data_prob > 0.0) {
        const double prob = config.bad_data_prob;
        runtime->SetDataFault(
            [&fault_rng, prob](agents::OverclockSample& sample) {
                if (fault_rng.NextBool(prob)) {
                    sample.ips = 1e17 * (1.0 + fault_rng.NextDouble());
                }
            });
    }

    // Fig 4: stall the model loop when a batch finishes processing
    // (only after the warm-up phase).
    bool was_busy = false;
    std::unique_ptr<sim::PeriodicTask> stall_watch;
    if (runtime && config.stall_on_batch_end > sim::Duration::zero()) {
        auto* synthetic =
            dynamic_cast<workloads::SyntheticBatch*>(workload.get());
        if (synthetic) {
            was_busy = synthetic->busy();
            stall_watch = std::make_unique<sim::PeriodicTask>(
                queue, sim::Millis(50), [&, synthetic] {
                    const bool busy = synthetic->busy();
                    if (was_busy && !busy &&
                        queue.Now() >= config.measure_from) {
                        runtime->StallModelFor(config.stall_on_batch_end);
                    }
                    was_busy = busy;
                });
        }
    }

    // Energy snapshot at the start of the measurement window.
    double energy_at_measure_start = 0.0;
    if (config.measure_from > sim::TimePoint(0)) {
        queue.ScheduleAt(config.measure_from, [&] {
            energy_at_measure_start = node.EnergyJoules();
        });
    }

    // Fig 5: 1 Hz trace of frequency / alpha / safeguard state.
    OverclockRunResult result;
    std::unique_ptr<sim::PeriodicTask> tracer;
    if (config.record_trace) {
        auto* synthetic =
            dynamic_cast<workloads::SyntheticBatch*>(workload.get());
        tracer = std::make_unique<sim::PeriodicTask>(
            queue, sim::Seconds(1), [&, synthetic] {
                OverclockTracePoint point;
                point.time_s = sim::ToSeconds(queue.Now());
                point.freq_ghz = node.VmFrequency(vm);
                point.alpha = actuator.last_alpha();
                point.safeguard_active = actuator.safeguard_active();
                point.workload_busy = synthetic && synthetic->busy();
                result.trace.push_back(point);
            });
    }

    queue.RunFor(config.duration);

    if (runtime) {
        runtime->Stop();
        result.stats = runtime->stats();
    }
    result.workload = workload->name();
    result.perf_value = workload->PerformanceValue();
    result.perf_unit = workload->PerformanceUnit();
    result.perf_higher_is_better = workload->PerformanceHigherIsBetter();
    result.energy_joules = node.EnergyJoules();
    result.avg_power_watts =
        (node.EnergyJoules() - energy_at_measure_start) /
        sim::ToSeconds(config.duration - config.measure_from);
    return result;
}

double
NormalizedPerf(const OverclockRunResult& run,
               const OverclockRunResult& baseline)
{
    if (baseline.perf_value <= 0.0 || run.perf_value <= 0.0) {
        return 0.0;
    }
    if (run.perf_higher_is_better) {
        return run.perf_value / baseline.perf_value;
    }
    return baseline.perf_value / run.perf_value;
}

}  // namespace sol::experiments
