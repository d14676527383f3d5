#include "experiments/harvest_experiments.h"

#include <memory>

#include "node/node.h"
#include "sim/event_queue.h"
#include "workloads/best_effort.h"
#include "workloads/tailbench.h"

namespace sol::experiments {

namespace {

/** Simulation tick: the hypervisor's 50 us sampling granularity. */
constexpr sim::Duration kTick = sim::Micros(50);

}  // namespace

std::string
ToString(HarvestWorkload wl)
{
    switch (wl) {
      case HarvestWorkload::kImageDnn:
        return "image-dnn";
      case HarvestWorkload::kMoses:
        return "moses";
    }
    return "Unknown";
}

HarvestRunResult
RunHarvest(const HarvestRunConfig& config)
{
    sim::EventQueue queue;
    node::NodeConfig node_config;
    node_config.total_cores = 16;
    node::Node node(node_config);

    const workloads::TailBenchConfig primary_config =
        config.workload == HarvestWorkload::kImageDnn
            ? workloads::ImageDnnConfig(config.seed)
            : workloads::MosesConfig(config.seed);
    auto primary_workload =
        std::make_shared<workloads::TailBench>(primary_config);
    auto elastic_workload = std::make_shared<workloads::BestEffort>();

    const node::VmId primary = node.AddVm(
        node::VmConfig{"primary", primary_config.vcpus}, primary_workload);
    const node::VmId elastic = node.AddVm(
        node::VmConfig{"elastic", primary_config.vcpus}, elastic_workload);
    node.GrantCores(elastic, 0);  // Nothing harvested yet.

    sim::PeriodicTask node_driver(queue, kTick, [&] {
        node.Advance(queue.Now(), kTick);
    });

    agents::SmartHarvestConfig agent_config = config.agent;
    agent_config.seed = config.seed;
    agents::HarvestModel model(node, primary, queue, agent_config);
    agents::HarvestActuator actuator(node, primary, elastic, queue,
                                     agent_config);
    model.BreakModel(config.broken_model);

    std::unique_ptr<core::SimRuntime<agents::HarvestSample, int>> runtime;
    if (config.harvesting) {
        runtime =
            std::make_unique<core::SimRuntime<agents::HarvestSample, int>>(
                queue, model, actuator, agents::SmartHarvestSchedule(),
                config.runtime);
        runtime->Start();
    }

    // Fig 6 right: stall the model when the primary's burst begins —
    // exactly when its CPU utilization ramps up.
    bool was_burst = false;
    std::unique_ptr<sim::PeriodicTask> stall_watch;
    if (runtime && config.stall_on_burst > sim::Duration::zero()) {
        was_burst = primary_workload->in_burst();
        stall_watch = std::make_unique<sim::PeriodicTask>(
            queue, sim::Millis(1), [&] {
                const bool burst = primary_workload->in_burst();
                if (!was_burst && burst) {
                    runtime->StallModelFor(config.stall_on_burst);
                }
                was_burst = burst;
            });
    }

    queue.RunFor(config.duration);

    HarvestRunResult result;
    if (runtime) {
        runtime->Stop();
        result.stats = runtime->stats();
    }
    result.workload = primary_workload->name();
    result.p99_latency_ms = primary_workload->PerformanceValue();
    result.completed_requests = primary_workload->completed_requests();
    result.harvested_core_seconds = elastic_workload->core_seconds();
    return result;
}

double
LatencyIncreasePct(const HarvestRunResult& run,
                   const HarvestRunResult& baseline)
{
    if (baseline.p99_latency_ms <= 0.0) {
        return 0.0;
    }
    return 100.0 * (run.p99_latency_ms - baseline.p99_latency_ms) /
           baseline.p99_latency_ms;
}

}  // namespace sol::experiments
