#include "probes.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <latch>
#include <memory>
#include <optional>
#include <map>
#include <type_traits>
#include <string>
#include <thread>
#include <utility>

#include "agents/smartharvest/smartharvest.h"
#include "agents/smartmemory/smartmemory.h"
#include "agents/smartmonitor/smartmonitor.h"
#include "agents/smartoverclock/smartoverclock.h"
#include "cluster/synthetic_agent.h"
#include "core/actuator.h"
#include "core/epoch_engine.h"
#include "core/model.h"
#include "node/node.h"
#include "node/power_model.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace.h"
#include "workloads/best_effort.h"
#include "workloads/tailbench.h"

namespace perfbench {

using sol::core::ActuationDomain;
using sol::core::ActuationIntent;
using sol::core::ActuationRequest;
using sol::sim::Duration;
using sol::sim::TimePoint;

namespace {

/** Keeps a computed value alive so the optimizer cannot drop the loop
 *  that produced it. */
template <typename T>
void
Keep(const T& value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

ProbeResult
Result(std::int64_t elapsed_ns, std::uint64_t ops)
{
    return {ops == 0 ? 0.0
                     : static_cast<double>(elapsed_ns) /
                           static_cast<double>(ops)};
}

// ---- Per-agent event traffic ------------------------------------------

/** One agent's schedule plus how often it acts (for the mixes). */
struct AgentTraffic {
    std::string name;
    ActuationDomain domain = ActuationDomain::kTelemetryBudget;
    double expand_probability = 0.5;
    sol::core::Schedule schedule;
};

std::vector<AgentTraffic>
NodeAgents(const sol::cluster::MultiAgentNodeConfig& node)
{
    namespace agents = sol::agents;
    std::vector<AgentTraffic> out;
    if (node.run_overclock) {
        out.push_back({agents::kSmartOverclockName,
                       ActuationDomain::kCpuFrequency, 0.5,
                       agents::SmartOverclockSchedule()});
    }
    if (node.run_harvest) {
        out.push_back({agents::kSmartHarvestName, ActuationDomain::kCpuCores,
                       0.5, agents::SmartHarvestSchedule()});
    }
    if (node.run_memory) {
        out.push_back({agents::kSmartMemoryName,
                       ActuationDomain::kMemoryPlacement, 0.5,
                       agents::SmartMemorySchedule()});
    }
    if (node.run_monitor) {
        out.push_back({agents::kSmartMonitorName,
                       ActuationDomain::kTelemetryBudget, 0.5,
                       agents::SmartMonitorSchedule()});
    }
    // Synthetics exactly as MultiAgentNode derives them (name, seed
    // stream, alternating domain, then the per-instance override).
    for (std::size_t i = 0; i < node.synthetic_agents; ++i) {
        sol::cluster::SyntheticAgentConfig cfg = node.synthetic;
        cfg.name = "synthetic" + std::to_string(i);
        cfg.seed = sol::sim::DeriveStreamSeed(node.seed, 8 + i);
        cfg.domain = i % 2 == 0 ? ActuationDomain::kTelemetryBudget
                                : ActuationDomain::kMemoryPlacement;
        if (node.customize_synthetic) {
            node.customize_synthetic(i, cfg);
        }
        out.push_back({cfg.name, cfg.domain, cfg.expand_fraction,
                       sol::cluster::MakeSyntheticSchedule(cfg)});
    }
    return out;
}

double
PerSecond(Duration period)
{
    return period.count() > 0 ? 1e9 / static_cast<double>(period.count())
                              : 0.0;
}

/** Epochs per virtual second of one schedule (full epochs). */
double
EpochRate(const sol::core::Schedule& s)
{
    return PerSecond(s.data_collect_interval) /
           static_cast<double>(std::max(1, s.data_per_epoch));
}

/** Weighted sampler over (value, weight) pairs. */
template <typename T>
std::vector<T>
SampleWeighted(const std::vector<std::pair<T, double>>& items,
               std::size_t count, std::uint64_t seed)
{
    double total = 0.0;
    for (const auto& item : items) {
        total += item.second;
    }
    sol::sim::Rng rng(seed);
    std::vector<T> out;
    out.reserve(count);
    for (std::size_t n = 0; n < count; ++n) {
        double u = rng.NextDouble() * total;
        std::size_t i = 0;
        while (i + 1 < items.size() && u >= items[i].second) {
            u -= items[i].second;
            ++i;
        }
        out.push_back(items[i].first);
    }
    return out;
}

}  // namespace

// ---- sim ---------------------------------------------------------------

std::vector<Duration>
NodeDelayMix(const sol::cluster::MultiAgentNodeConfig& node,
             std::size_t samples, std::uint64_t seed)
{
    std::vector<std::pair<Duration, double>> mix = {
        {node.node_tick, PerSecond(node.node_tick)},
        {node.memory_tick, PerSecond(node.memory_tick)},
        {node.channel_tick, PerSecond(node.channel_tick)},
    };
    for (const AgentTraffic& agent : NodeAgents(node)) {
        const sol::core::Schedule& s = agent.schedule;
        const double epochs = EpochRate(s);
        mix.emplace_back(s.data_collect_interval,
                         PerSecond(s.data_collect_interval));
        mix.emplace_back(Duration::zero(), epochs);  // Actuator wake.
        mix.emplace_back(s.max_actuation_delay, epochs);  // Timeout re-arm.
        mix.emplace_back(s.assess_actuator_interval,
                         PerSecond(s.assess_actuator_interval));
    }
    return SampleWeighted(mix, samples, seed);
}

QueueProbe
ProbeEventQueue(const QueueShape& shape, SpanLog* spans, int parent,
                Checks& checks)
{
    constexpr std::size_t kBatch = 256;
    constexpr std::size_t kBatches = 6000;
    const std::size_t cancels_per_batch = static_cast<std::size_t>(
        std::lround(std::clamp(shape.cancel_ratio, 0.0, 0.9) *
                    static_cast<double>(kBatch)));
    const std::vector<Duration>& delays = shape.delays;
    std::size_t next_delay = 0;
    const auto draw = [&delays, &next_delay] {
        const Duration d = delays[next_delay];
        next_delay = next_delay + 1 == delays.size() ? 0 : next_delay + 1;
        return d;
    };

    // Verification pass: the same hold loop with checking callbacks.
    // Each event carries its scheduled time and insertion number; pops
    // must come in strictly increasing (time, insertion) order at
    // exactly the scheduled time, and cancelled events must never run.
    {
        struct OrderCheck {
            const sol::sim::EventQueue* queue = nullptr;
            TimePoint last_time{-1};
            std::uint64_t last_seq = 0;
            std::uint64_t violations = 0;
            std::uint64_t fired = 0;
            std::vector<bool> cancelled;
        } check;
        sol::sim::EventQueue queue;
        check.queue = &queue;
        std::uint64_t seq = 0;
        const auto schedule_one = [&queue, &check, &seq](Duration delay) {
            const TimePoint when = queue.Now() + delay;
            const std::uint64_t my_seq = seq++;
            check.cancelled.push_back(false);
            return queue.ScheduleAt(when, [c = &check, when, my_seq] {
                const bool ordered =
                    when > c->last_time ||
                    (when == c->last_time && my_seq > c->last_seq);
                if (!ordered || c->queue->Now() != when ||
                    c->cancelled[my_seq]) {
                    ++c->violations;
                }
                c->last_time = when;
                c->last_seq = my_seq;
                ++c->fired;
            });
        };
        for (std::size_t i = 0; i < shape.pending; ++i) {
            schedule_one(draw());
        }
        std::vector<std::pair<sol::sim::EventHandle, std::uint64_t>> handles;
        bool handles_cancelled = true;
        for (std::size_t b = 0; b < kBatches / 8; ++b) {
            handles.clear();
            for (std::size_t i = 0; i < kBatch; ++i) {
                const std::uint64_t id = seq;
                sol::sim::EventHandle h = schedule_one(draw());
                if (i < cancels_per_batch) {
                    handles.emplace_back(std::move(h), id);
                }
            }
            for (auto& [handle, id] : handles) {
                handle.Cancel();
                check.cancelled[id] = true;
                handles_cancelled = handles_cancelled && handle.cancelled() &&
                                    !handle.pending();
            }
            for (std::size_t i = cancels_per_batch; i < kBatch; ++i) {
                queue.Step();
            }
        }
        const sol::sim::EventQueueStats stats = queue.stats();
        checks.Expect(handles_cancelled,
                      "sim probe: a cancelled handle is still pending");
        checks.Expect(check.violations == 0,
                      "sim probe: pop order is not strictly (time, seq)");
        checks.Expect(stats.executed == check.fired &&
                          stats.scheduled == seq &&
                          stats.cancelled ==
                              (kBatches / 8) * cancels_per_batch &&
                          stats.pending == shape.pending,
                      "sim probe: queue counters disagree with the loop");
    }

    // Timed pass: no-op callbacks, each phase timed per batch.
    sol::sim::EventQueue queue;
    for (std::size_t i = 0; i < shape.pending; ++i) {
        queue.ScheduleAfter(draw(), [] {});
    }
    std::vector<Duration> batch_delays(kBatch);
    std::vector<sol::sim::EventHandle> handles(cancels_per_batch);
    std::int64_t schedule_ns = 0;
    std::int64_t cancel_ns = 0;
    std::int64_t pop_ns = 0;
    ScopedSpan span(spans, "probe.sim.event_queue", "sim", parent);
    for (std::size_t b = 0; b < kBatches; ++b) {
        for (Duration& d : batch_delays) {
            d = draw();
        }
        const std::int64_t t0 = NowNs();
        for (std::size_t i = 0; i < kBatch; ++i) {
            if (i < cancels_per_batch) {
                handles[i] = queue.ScheduleAfter(batch_delays[i], [] {});
            } else {
                queue.ScheduleAfter(batch_delays[i], [] {});
            }
        }
        const std::int64_t t1 = NowNs();
        for (sol::sim::EventHandle& h : handles) {
            h.Cancel();
        }
        const std::int64_t t2 = NowNs();
        for (std::size_t i = cancels_per_batch; i < kBatch; ++i) {
            queue.Step();
        }
        const std::int64_t t3 = NowNs();
        schedule_ns += t1 - t0;
        cancel_ns += t2 - t1;
        pop_ns += t3 - t2;
    }
    checks.Expect(queue.pending() == shape.pending,
                  "sim probe: pending set drifted from its primed size");
    QueueProbe out;
    out.schedule = Result(schedule_ns, kBatches * kBatch);
    out.cancel = Result(cancel_ns, kBatches * cancels_per_batch);
    out.pop = Result(pop_ns, kBatches * (kBatch - cancels_per_batch));
    return out;
}

// ---- core --------------------------------------------------------------

namespace {

/** Model whose every operation is trivial; the probe times the engine. */
class NoopModel final : public sol::core::Model<double, double>
{
  public:
    explicit NoopModel(const TimePoint* now) : now_(now) {}

    [[gnu::noinline]] double CollectData() override { return sample_ += 1.0; }
    [[gnu::noinline]] bool ValidateData(const double&) override
    {
        return true;
    }
    [[gnu::noinline]] void CommitData(TimePoint, const double& d) override
    {
        sum_ += d;
    }
    [[gnu::noinline]] void UpdateModel() override { value_ = sum_; }
    [[gnu::noinline]] sol::core::Prediction<double> ModelPredict() override
    {
        return sol::core::MakePrediction(value_, *now_,
                                         sol::sim::Millis(200));
    }
    [[gnu::noinline]] sol::core::Prediction<double> DefaultPredict() override
    {
        return sol::core::MakeDefaultPrediction(0.0, *now_,
                                                sol::sim::Millis(200));
    }
    [[gnu::noinline]] bool AssessModel() override { return true; }

  private:
    const TimePoint* now_;
    double sample_ = 0.0;
    double sum_ = 0.0;
    double value_ = 0.0;
};

class NoopActuator final : public sol::core::Actuator<double>
{
  public:
    [[gnu::noinline]] void
    TakeAction(std::optional<sol::core::Prediction<double>> pred) override
    {
        if (pred.has_value()) {
            ++with_prediction_;
        }
    }
    [[gnu::noinline]] bool AssessPerformance() override { return true; }
    void Mitigate() override {}
    void CleanUp() override {}

    std::uint64_t with_prediction() const { return with_prediction_; }

  private:
    std::uint64_t with_prediction_ = 0;
};

template <typename Policy>
EngineProbe
RunEngineProbe(const sol::core::Schedule& schedule, SpanLog* spans,
               int parent, Checks& checks)
{
    constexpr std::uint64_t kCollects = 2'000'000;
    constexpr std::uint64_t kEpochs = 500'000;
    TimePoint now{0};
    NoopModel model(&now);
    NoopActuator actuator;
    sol::core::EpochEngine<double, double, Policy> engine(
        model, actuator, schedule, sol::core::RuntimeOptions{});
    engine.OnStart(now);
    const Duration tick = schedule.data_collect_interval;
    EngineProbe out;

    {
        ScopedSpan span(spans, "probe.core.collect", "core", parent);
        int in_epoch = 0;
        engine.BeginEpoch(now);
        const std::int64_t t0 = NowNs();
        for (std::uint64_t i = 0; i < kCollects; ++i) {
            now += tick;
            if (engine.CollectOnce(now) !=
                    decltype(engine)::CollectOutcome::kEpochContinues ||
                ++in_epoch == schedule.data_per_epoch) {
                engine.BeginEpoch(now);
                in_epoch = 0;
            }
        }
        out.collect = Result(NowNs() - t0, kCollects);
    }
    {
        ScopedSpan span(spans, "probe.core.finish_epoch", "core", parent);
        const std::int64_t t0 = NowNs();
        for (std::uint64_t i = 0; i < kEpochs; ++i) {
            now += tick;
            Keep(engine.FinishEpoch(now, true));
        }
        out.finish_epoch = Result(NowNs() - t0, kEpochs);
    }
    {
        ScopedSpan span(spans, "probe.core.actuator_wake", "core", parent);
        const std::int64_t t0 = NowNs();
        for (std::uint64_t i = 0; i < kEpochs; ++i) {
            engine.Deliver(sol::core::MakePrediction(1.0, now,
                                                     sol::sim::Millis(200)));
            engine.ActuatorWake(now, /*from_timeout=*/false);
            now += tick;
        }
        out.actuator_wake = Result(NowNs() - t0, kEpochs);
    }
    {
        ScopedSpan span(spans, "probe.core.assess_actuator", "core", parent);
        const std::int64_t t0 = NowNs();
        for (std::uint64_t i = 0; i < kEpochs; ++i) {
            now += tick;
            engine.AssessActuator(now);
        }
        out.assess_actuator = Result(NowNs() - t0, kEpochs);
    }

    const auto& stats = engine.stats();
    const auto get = [](const auto& counter) -> std::uint64_t {
        if constexpr (std::is_integral_v<std::decay_t<decltype(counter)>>) {
            return counter;
        } else {
            return counter.load();
        }
    };
    checks.Expect(get(stats.samples_collected) == kCollects &&
                      get(stats.epochs) == kEpochs &&
                      get(stats.model_assessments) == kEpochs &&
                      get(stats.actions_taken) == kEpochs &&
                      actuator.with_prediction() == kEpochs &&
                      get(stats.actuator_assessments) == kEpochs &&
                      get(stats.expired_predictions) == 0,
                  "core probe: engine counters disagree with the calls made");
    checks.Expect(engine.EpochLatencyHistogram().count() == kEpochs,
                  "core probe: epoch histogram count != epochs finished");
    return out;
}

}  // namespace

EngineProbe
ProbeEpochEngine(const sol::core::Schedule& schedule, bool threaded,
                 SpanLog* spans, int parent, Checks& checks)
{
    return threaded ? RunEngineProbe<sol::core::ThreadedEnginePolicy>(
                          schedule, spans, parent, checks)
                    : RunEngineProbe<sol::core::SimEnginePolicy>(
                          schedule, spans, parent, checks);
}

// ---- node --------------------------------------------------------------

NodeProbe
ProbeNode(const sol::cluster::MultiAgentNodeConfig& config, SpanLog* spans,
          int parent, Checks& checks)
{
    constexpr std::uint64_t kTicks = 400'000;
    constexpr std::uint64_t kPowerCalls = 4'000'000;
    NodeProbe out;

    // The substrate MultiAgentNode builds: an image-dnn primary VM and a
    // best-effort elastic VM with nothing harvested yet.
    sol::node::NodeConfig node_config;
    node_config.total_cores = config.total_cores;
    sol::node::Node node(node_config);
    const sol::workloads::TailBenchConfig primary_config =
        sol::workloads::ImageDnnConfig(
            sol::sim::DeriveStreamSeed(config.seed, 2));
    const sol::node::VmId primary = node.AddVm(
        sol::node::VmConfig{"primary", primary_config.vcpus},
        std::make_shared<sol::workloads::TailBench>(primary_config));
    const sol::node::VmId elastic =
        node.AddVm(sol::node::VmConfig{"elastic", primary_config.vcpus},
                   std::make_shared<sol::workloads::BestEffort>());
    node.GrantCores(elastic, 0);

    const Duration dt = config.node_tick;
    TimePoint now{0};
    {
        ScopedSpan span(spans, "probe.node.advance", "node", parent);
        const std::int64_t t0 = NowNs();
        for (std::uint64_t i = 0; i < kTicks; ++i) {
            now += dt;
            node.Advance(now, dt);
        }
        out.advance = Result(NowNs() - t0, kTicks);
    }
    const double expected_cycles =
        static_cast<double>(node.GrantedCores(primary)) *
        node.VmFrequency(primary) * 1e9 * sol::sim::ToSeconds(dt) *
        static_cast<double>(kTicks);
    const double cycles = node.ReadCounters(primary).total_cycles;
    checks.Expect(std::abs(cycles - expected_cycles) <=
                          1e-6 * expected_cycles &&
                      node.EnergyJoules() > 0.0 &&
                      std::isfinite(node.EnergyJoules()),
                  "node probe: cycle/energy accounting is off");

    // Power at the DVFS settings and utilizations the node visits.
    const std::vector<double>& freqs = node.AllowedFrequencies();
    std::vector<std::pair<double, double>> inputs;
    sol::sim::Rng rng(sol::sim::DeriveStreamSeed(config.seed, 99));
    for (int i = 0; i < 1024; ++i) {
        inputs.emplace_back(freqs[rng.NextBelow(freqs.size())],
                            rng.NextDouble());
    }
    const sol::node::PowerModel power(node_config.power);
    double watts = 0.0;
    {
        ScopedSpan span(spans, "probe.node.power", "node", parent);
        const std::int64_t t0 = NowNs();
        for (std::uint64_t i = 0; i < kPowerCalls; ++i) {
            const auto& [f, u] = inputs[i & 1023];
            watts += power.CorePower(f, u);
        }
        out.power = Result(NowNs() - t0, kPowerCalls);
    }
    Keep(watts);
    bool monotone = std::isfinite(watts) && watts > 0.0;
    for (std::size_t i = 1; i < freqs.size(); ++i) {
        monotone = monotone && power.CorePower(freqs[i], 0.5) >
                                   power.CorePower(freqs[i - 1], 0.5);
    }
    checks.Expect(monotone, "node probe: core power not finite/monotone");
    return out;
}

// ---- cluster -----------------------------------------------------------

std::vector<ActuationRequest>
NodeRequestMix(const sol::cluster::MultiAgentNodeConfig& node,
               std::size_t count, std::uint64_t seed)
{
    const std::vector<AgentTraffic> agents = NodeAgents(node);
    std::vector<std::pair<std::size_t, double>> weights;
    for (std::size_t i = 0; i < agents.size(); ++i) {
        weights.emplace_back(i, EpochRate(agents[i].schedule));
    }
    const std::vector<std::size_t> picks =
        SampleWeighted(weights, count, seed);
    sol::sim::Rng rng(sol::sim::DeriveStreamSeed(seed, 1));
    std::vector<ActuationRequest> out;
    out.reserve(count);
    for (const std::size_t i : picks) {
        const AgentTraffic& agent = agents[i];
        const bool expand = rng.NextBool(agent.expand_probability);
        out.push_back({agent.name, agent.domain,
                       expand ? ActuationIntent::kExpand
                              : ActuationIntent::kRestore,
                       1.0});
    }
    return out;
}

namespace {

/** Sequential reference of the arbiter's first-holder-wins rule. */
class ReferenceArbiter
{
  public:
    explicit ReferenceArbiter(
        const sol::cluster::InterferenceArbiterConfig& config)
        : enabled_(config.enabled)
    {
        for (int d = 0; d < sol::core::kNumActuationDomains; ++d) {
            coupled_[d][d] = true;
        }
        for (const auto& [x, y] : config.couplings) {
            coupled_[static_cast<int>(x)][static_cast<int>(y)] = true;
            coupled_[static_cast<int>(y)][static_cast<int>(x)] = true;
        }
    }

    bool
    Admit(const ActuationRequest& r)
    {
        const int d = static_cast<int>(r.domain);
        if (r.intent == ActuationIntent::kRestore) {
            if (holder_[d] == r.agent) {
                holder_[d].clear();
            }
            return true;
        }
        for (int c = 0; c < sol::core::kNumActuationDomains; ++c) {
            if (coupled_[d][c] && !holder_[c].empty() &&
                holder_[c] != r.agent && enabled_) {
                return false;
            }
        }
        holder_[d] = r.agent;
        return true;
    }

  private:
    bool enabled_;
    std::array<std::array<bool, sol::core::kNumActuationDomains>,
               sol::core::kNumActuationDomains>
        coupled_{};
    std::array<std::string, sol::core::kNumActuationDomains> holder_;
};

}  // namespace

ProbeResult
ProbeAdmit(const sol::cluster::InterferenceArbiterConfig& config,
           const std::vector<ActuationRequest>& requests, SpanLog* spans,
           int parent, Checks& checks)
{
    constexpr int kPasses = 8;
    const bool supported =
        config.policy == sol::cluster::ArbitrationPolicy::kFirstHolderWins;
    checks.Expect(supported, "cluster probe: replay models first-holder-wins "
                             "only");
    std::vector<char> decisions(requests.size());
    std::int64_t elapsed = 0;
    ProbeResult out;
    {
        ScopedSpan span(spans, "probe.cluster.admit", "cluster", parent);
        for (int pass = 0; pass < kPasses; ++pass) {
            sol::telemetry::MetricRegistry metrics;
            sol::cluster::InterferenceArbiter arbiter(
                config, sol::telemetry::MetricScope(metrics, "arbiter"));
            const std::int64_t t0 = NowNs();
            for (std::size_t i = 0; i < requests.size(); ++i) {
                decisions[i] = arbiter.Admit(requests[i]).admitted ? 1 : 0;
            }
            elapsed += NowNs() - t0;
        }
        out = Result(elapsed, kPasses * requests.size());
    }
    ReferenceArbiter reference(config);
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (reference.Admit(requests[i]) != (decisions[i] != 0)) {
            ++mismatches;
        }
    }
    checks.Expect(mismatches == 0,
                  "cluster probe: " + std::to_string(mismatches) +
                      " admit decisions differ from the sequential replay");
    return out;
}

std::uint64_t
PublishedRequests(const sol::telemetry::MetricRegistry& metrics)
{
    const std::string suffix = ".requests";
    std::uint64_t sum = 0;
    for (const auto& [key, value] : metrics.counters()) {
        if (key.rfind("arbiter.", 0) == 0 && key.size() > suffix.size() &&
            key.compare(key.size() - suffix.size(), suffix.size(), suffix) ==
                0) {
            sum += value;
        }
    }
    return sum;
}

ContendedProbe
ProbeAdmitContended(std::size_t threads, std::uint64_t seed, SpanLog* spans,
                    int parent, Checks& checks)
{
    constexpr std::size_t kAgentsPerThread = 4;
    constexpr std::size_t kRequestsPerThread = 200'000;
    threads = std::max<std::size_t>(threads, 2);
    sol::cluster::InterferenceArbiterConfig config;
    config.track_contention = true;
    sol::telemetry::MetricRegistry metrics;
    sol::cluster::InterferenceArbiter arbiter(
        config, sol::telemetry::MetricScope(metrics, "arbiter"));

    // Each thread's own agents on the coupled frequency/cores pair,
    // requests pre-generated so the timed loop is Admit only.
    std::vector<std::vector<ActuationRequest>> work(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        sol::sim::Rng rng(sol::sim::DeriveStreamSeed(seed, 100 + t));
        std::vector<ActuationRequest> agents;
        for (std::size_t k = 0; k < kAgentsPerThread; ++k) {
            agents.push_back({"probe" + std::to_string(t) + "." +
                                  std::to_string(k),
                              (t + k) % 2 == 0 ? ActuationDomain::kCpuFrequency
                                               : ActuationDomain::kCpuCores,
                              ActuationIntent::kRestore, 1.0});
        }
        for (std::size_t i = 0; i < kRequestsPerThread; ++i) {
            ActuationRequest r = agents[rng.NextBelow(kAgentsPerThread)];
            r.intent = rng.NextBool(0.5) ? ActuationIntent::kExpand
                                         : ActuationIntent::kRestore;
            work[t].push_back(std::move(r));
        }
        for (const ActuationRequest& agent : agents) {
            work[t].push_back(agent);  // Release every hold at the end.
        }
    }

    std::vector<std::int64_t> elapsed(threads, 0);
    {
        ScopedSpan span(spans, "probe.cluster.admit_contended", "cluster",
                        parent);
        std::latch start(static_cast<std::ptrdiff_t>(threads));
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                start.arrive_and_wait();
                const std::int64_t t0 = NowNs();
                for (const ActuationRequest& r : work[t]) {
                    arbiter.Admit(r);
                }
                elapsed[t] = NowNs() - t0;
            });
        }
        for (std::thread& thread : pool) {
            thread.join();
        }
    }
    std::int64_t total_ns = 0;
    std::uint64_t total_ops = 0;
    for (std::size_t t = 0; t < threads; ++t) {
        total_ns += elapsed[t];
        total_ops += work[t].size();
    }

    arbiter.WriteMetrics();
    checks.Expect(arbiter.requests() == total_ops &&
                      PublishedRequests(metrics) == total_ops,
                  "cluster contended probe: request accounting lost counts");
    checks.Expect(arbiter.conflicts_resolved() <=
                      arbiter.conflicts_observed(),
                  "cluster contended probe: resolved > observed");
    checks.Expect(!arbiter.HolderOf(ActuationDomain::kCpuFrequency) &&
                      !arbiter.HolderOf(ActuationDomain::kCpuCores),
                  "cluster contended probe: a hold survived every restore");

    ContendedProbe out;
    out.admit = Result(total_ns, total_ops);
    out.admit_p99_ns = InterpolatedPercentile(arbiter.admit_histogram(), 99.0);
    out.lock_wait_p99_ns =
        InterpolatedPercentile(arbiter.lock_wait_histogram(), 99.0);
    return out;
}

// ---- telemetry ---------------------------------------------------------

ProbeResult
ProbeHistogramRecord(const sol::telemetry::LatencyHistogram& shape,
                     std::uint64_t seed, SpanLog* spans, int parent,
                     Checks& checks)
{
    constexpr std::uint64_t kRecords = 8'000'000;
    constexpr std::size_t kValues = 4096;
    std::vector<std::uint64_t> values(kValues);
    sol::sim::Rng rng(seed);
    for (std::uint64_t& v : values) {
        v = shape.empty() ? 1'000'000 + rng.NextBelow(1'000'000)
                          : shape.ValueAtPercentile(rng.NextDouble() * 100.0);
    }
    sol::telemetry::LatencyHistogram hist;
    std::uint64_t expected_sum = 0;
    ProbeResult out;
    {
        ScopedSpan span(spans, "probe.telemetry.hist_record", "telemetry",
                        parent);
        const std::int64_t t0 = NowNs();
        for (std::uint64_t i = 0; i < kRecords; ++i) {
            hist.Record(values[i & (kValues - 1)]);
        }
        out = Result(NowNs() - t0, kRecords);
    }
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        expected_sum += values[i & (kValues - 1)];
    }
    checks.Expect(hist.count() == kRecords && hist.sum_ns() == expected_sum,
                  "telemetry probe: histogram count/sum != records");
    return out;
}

SpanProbe
ProbeTraceSpan(SpanLog* spans, int parent, Checks& checks)
{
    constexpr std::size_t kCapacity = std::size_t{1} << 15;
    constexpr int kFills = 32;
    constexpr std::uint64_t kDrops = 2'000'000;
    sol::sim::EventQueue clock;  // A shard's virtual clock.
    sol::telemetry::trace::TraceSession session;
    sol::telemetry::trace::TraceRecorder* recorder =
        session.NewRecorder("probe", &clock, kCapacity);
    SpanProbe out;
    std::uint64_t consumed = 0;
    std::int64_t fill_ns = 0;
    {
        ScopedSpan span(spans, "probe.telemetry.span", "telemetry", parent);
        for (int f = 0; f < kFills; ++f) {
            const std::int64_t t0 = NowNs();
            for (std::size_t i = 0; i < kCapacity; ++i) {
                sol::telemetry::trace::TraceSpan s(recorder, "collect",
                                                   "engine");
                s.AddArg("valid", 1);
            }
            fill_ns += NowNs() - t0;
            if (f + 1 < kFills) {
                recorder->ConsumeAll(
                    [&consumed](const sol::telemetry::trace::TraceEvent&) {
                        ++consumed;
                    });
            }
        }
        out.with_room = Result(fill_ns, kFills * kCapacity);
    }
    {
        ScopedSpan span(spans, "probe.telemetry.span_drop", "telemetry",
                        parent);
        const std::int64_t t0 = NowNs();
        for (std::uint64_t i = 0; i < kDrops; ++i) {
            sol::telemetry::trace::TraceSpan s(recorder, "collect", "engine");
            s.AddArg("valid", 1);
        }
        out.full = Result(NowNs() - t0, kDrops);
    }
    checks.Expect(recorder->recorded() == kFills * kCapacity &&
                      consumed == (kFills - 1) * kCapacity &&
                      recorder->dropped() == kDrops,
                  "telemetry probe: trace ring lost or invented spans");
    return out;
}

ProbeResult
ProbeAlertReplay(const sol::telemetry::TimeSeriesStore& store,
                 const std::vector<sol::telemetry::AlertEvent>& expected,
                 SpanLog* spans, int parent, Checks& checks)
{
    constexpr int kReplays = 20;
    // Samples grouped by horizon, in series-name order (the order the
    // store visits them; append order within one horizon does not
    // change what Evaluate reads).
    std::map<TimePoint, std::vector<std::pair<std::string, std::int64_t>>>
        by_horizon;
    store.VisitSeries([&by_horizon](const std::string& name,
                                    const sol::telemetry::TimeSeries& s) {
        for (std::size_t i = 0; i < s.size(); ++i) {
            const sol::telemetry::TimeSample sample = s.at(i);
            by_horizon[sample.at].emplace_back(name, sample.value);
        }
    });
    std::int64_t eval_ns = 0;
    std::uint64_t evaluations = 0;
    bool identical = true;
    {
        ScopedSpan span(spans, "probe.telemetry.alert_eval", "telemetry",
                        parent);
        for (int r = 0; r < kReplays; ++r) {
            sol::telemetry::TimeSeriesStore replay;
            sol::telemetry::AlertEngine engine;
            engine.AddRules(sol::telemetry::DefaultFleetAlertRules());
            for (const auto& [at, samples] : by_horizon) {
                for (const auto& [name, value] : samples) {
                    replay.Append(name, at, value);
                }
                const std::int64_t t0 = NowNs();
                engine.Evaluate(replay, at);
                eval_ns += NowNs() - t0;
                ++evaluations;
            }
            identical = identical && engine.events() == expected;
        }
    }
    checks.Expect(identical && !by_horizon.empty(),
                  "telemetry probe: alert replay diverged from the run's log");
    return Result(eval_ns, evaluations);
}

// ---- workloads ---------------------------------------------------------

ProbeResult
ProbeTraceDriver(const sol::workloads::TraceDriver& driver,
                 Duration horizon, std::uint64_t seed, SpanLog* spans,
                 int parent, Checks& checks)
{
    constexpr std::uint64_t kQueries = 2'000'000;
    constexpr std::size_t kInputs = 4096;
    const sol::workloads::TraceDriverConfig& config = driver.config();
    sol::sim::Rng rng(seed);
    std::vector<std::pair<std::size_t, TimePoint>> inputs;
    for (std::size_t i = 0; i < kInputs; ++i) {
        inputs.emplace_back(
            rng.NextBelow(std::max<std::size_t>(config.num_tenants, 1)),
            TimePoint(Duration(static_cast<std::int64_t>(
                rng.NextBelow(static_cast<std::uint64_t>(horizon.count()))))));
    }
    double demand = 0.0;
    double cadence = 0.0;
    std::uint64_t failing = 0;
    ProbeResult out;
    {
        ScopedSpan span(spans, "probe.workloads.driver", "workloads", parent);
        const std::int64_t t0 = NowNs();
        for (std::uint64_t i = 0; i < kQueries; ++i) {
            const auto& [tenant, t] = inputs[i & (kInputs - 1)];
            demand += driver.DemandAt(t);
            cadence += driver.CadenceScale(tenant);
            failing += driver.ActuatorFailingAt(tenant, t) ? 1 : 0;
        }
        out = Result(NowNs() - t0, 3 * kQueries);  // Three queries each.
    }
    Keep(demand);
    Keep(cadence);
    // The oracle is pure: re-derive the failing count from the storm
    // windows and check the demand range.
    std::uint64_t expected_failing = 0;
    bool demand_ok = true;
    for (std::uint64_t i = 0; i < kQueries; ++i) {
        const auto& [tenant, t] = inputs[i & (kInputs - 1)];
        bool fails = false;
        for (const auto& storm : config.storms) {
            fails = fails || (storm.fail_actuator && t >= storm.from &&
                              t < storm.until &&
                              tenant >= storm.tenant_begin &&
                              tenant < storm.tenant_end);
        }
        expected_failing += fails ? 1 : 0;
        const double d = driver.DemandAt(t);
        demand_ok = demand_ok && d >= config.min_demand - 1e-12 && d <= 1.0;
    }
    checks.Expect(failing == expected_failing && demand_ok,
                  "workloads probe: trace driver answers disagree with its "
                  "storm windows");
    return out;
}

}  // namespace perfbench
