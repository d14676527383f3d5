/**
 * @file
 * One node running the paper's full agent complement on real threads.
 *
 * MultiAgentNode (multi_agent_node.h) hosts every agent as a SimRuntime
 * continuation on one event queue: intra-node concurrency is simulated,
 * never exercised. ThreadedMultiAgentNode is the credibility leg behind
 * those numbers: the same agents — the four real paper agents plus
 * synthetic fillers up to the paper's ~77 per node — each hosted on its
 * own core::ThreadedRuntime, so 2×77 OS threads announce actuation
 * intents into the shared InterferenceArbiter genuinely concurrently.
 *
 * Everything that is not hosting is shared with the simulated node,
 * not restated: NodeAssembly (node_assembly.h) builds the substrate,
 * the agents' models and actuators with their seed streams, the
 * arbiter, and the slot/registry sweeps for both. So a scripted
 * scenario is the same scenario on either node, and the arbiter is the
 * same object with the same policy (hardened for concurrent admission,
 * see interference_arbiter.h). What this file adds is how the agents
 * run:
 *   - Time is a ClockPolicy template parameter. Every runtime gets its
 *     own instance, exposed to models and actuators through a
 *     PolicyClock. Deployments use the default SteadyClockPolicy; the
 *     node parity suite (tests/node_parity_test.cc) instantiates the
 *     node over core::ManualClock and serializes every agent's tick
 *     grants into one global virtual timeline, which pins the admission
 *     order to the event queue's and makes aggregated RuntimeStats and
 *     arbiter counters comparable field-for-field.
 *   - The real four agents share mutable node substrate (VMs, tiered
 *     memory, telemetry channels) that is single-threaded by design;
 *     LockedModel/LockedActuator decorators serialize every substrate
 *     touch on the substrate mutex, and a driver thread advances the
 *     substrate at node_tick cadence under the same mutex. Synthetic
 *     agents touch no substrate and run entirely unlocked — they
 *     contend only inside the arbiter, which is the contention the
 *     paper studies.
 *   - Observability: with config.trace_session set, the node creates
 *     one flight-recorder track per thread — "<node>.driver",
 *     "<node>.control", and "<node>.<agent>.model" /
 *     "<node>.<agent>.actuator" per agent — keeping every SPSC ring
 *     single-producer across 2×77 agent threads. Agent tracks read the
 *     agent's own PolicyClock, so under ManualClock the trace
 *     timestamps are virtual and deterministic. Lifecycle events
 *     (node/agent start/stop, CleanUpAll) land on the control track,
 *     which assumes a single controlling thread — the same assumption
 *     Start/Stop/StopAgent already make.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/node_assembly.h"
#include "core/sync.h"
#include "core/threaded_runtime.h"
#include "sim/time.h"
#include "telemetry/trace.h"

namespace sol::cluster {

/**
 * sim::Clock view of a ThreadedRuntime's ClockPolicy.
 *
 * Models and actuators take `const sim::Clock&` at construction, but a
 * runtime's ClockPolicy only exists once the runtime does — and the
 * runtime needs the model first. The adapter breaks the cycle: build
 * the agent against an unbound PolicyClock, build the runtime, then
 * Bind. Reads before Bind return time zero (nothing reads the clock
 * before Start).
 */
template <typename ClockPolicy>
class PolicyClock : public sim::Clock
{
  public:
    void Bind(const ClockPolicy* policy) { policy_ = policy; }

    sim::TimePoint
    Now() const override
    {
        return policy_ != nullptr ? policy_->Now() : sim::TimePoint{};
    }

  private:
    const ClockPolicy* policy_ = nullptr;
};

/** Model decorator serializing every call on a shared mutex (the four
 *  real agents' substrate objects are single-threaded). */
template <typename D, typename P>
class LockedModel : public core::Model<D, P>
{
  public:
    LockedModel(core::Model<D, P>& inner, core::Mutex& mutex)
        : inner_(inner), mutex_(mutex)
    {
    }

    D
    CollectData() override
    {
        core::MutexLock lock(mutex_);
        return inner_.CollectData();
    }

    bool
    ValidateData(const D& data) override
    {
        core::MutexLock lock(mutex_);
        return inner_.ValidateData(data);
    }

    void
    CommitData(sim::TimePoint time, const D& data) override
    {
        core::MutexLock lock(mutex_);
        inner_.CommitData(time, data);
    }

    void
    UpdateModel() override
    {
        core::MutexLock lock(mutex_);
        inner_.UpdateModel();
    }

    core::Prediction<P>
    ModelPredict() override
    {
        core::MutexLock lock(mutex_);
        return inner_.ModelPredict();
    }

    core::Prediction<P>
    DefaultPredict() override
    {
        core::MutexLock lock(mutex_);
        return inner_.DefaultPredict();
    }

    bool
    AssessModel() override
    {
        core::MutexLock lock(mutex_);
        return inner_.AssessModel();
    }

    bool
    ShortCircuitEpoch() override
    {
        core::MutexLock lock(mutex_);
        return inner_.ShortCircuitEpoch();
    }

  private:
    core::Model<D, P>& inner_;
    core::Mutex& mutex_;
};

/** Actuator decorator, same discipline as LockedModel. The governor is
 *  called while the lock is held; the arbiter is thread-safe and never
 *  calls back out, so the lock order is always node → arbiter. */
template <typename P>
class LockedActuator : public core::Actuator<P>
{
  public:
    LockedActuator(core::Actuator<P>& inner, core::Mutex& mutex)
        : inner_(inner), mutex_(mutex)
    {
    }

    void
    TakeAction(std::optional<core::Prediction<P>> pred) override
    {
        core::MutexLock lock(mutex_);
        inner_.TakeAction(std::move(pred));
    }

    bool
    AssessPerformance() override
    {
        core::MutexLock lock(mutex_);
        return inner_.AssessPerformance();
    }

    void
    Mitigate() override
    {
        core::MutexLock lock(mutex_);
        inner_.Mitigate();
    }

    void
    CleanUp() override
    {
        core::MutexLock lock(mutex_);
        inner_.CleanUp();
    }

  private:
    core::Actuator<P>& inner_;
    core::Mutex& mutex_;
};

/**
 * All agents of one node, each on its own ThreadedRuntime.
 *
 * Takes the same MultiAgentNodeConfig as MultiAgentNode — same
 * substrate sizing, agent selection, synthetic fleet, arbiter policy,
 * and seed derivation — so one config describes the same node under
 * either host.
 *
 * @tparam ClockPolicy Per-agent time source (every runtime gets its
 *   own instance; tests reach them via agent_clock()).
 */
template <typename ClockPolicy = core::SteadyClockPolicy>
class ThreadedMultiAgentNode : public NodeAssembly
{
  public:
    explicit ThreadedMultiAgentNode(MultiAgentNodeConfig config)
        : NodeAssembly(std::move(config))
    {
        // Driver/control tracks first, then agent tracks in build
        // order: creation order fixes the tid order in the trace.
        if (config_.trace_session != nullptr) {
            driver_trace_ = config_.trace_session->NewRecorder(
                config_.name + ".driver", &trace_clock_);
            control_trace_ = config_.trace_session->NewRecorder(
                config_.name + ".control", &trace_clock_);
        }
        Assemble(*this);
    }

    ~ThreadedMultiAgentNode()
    {
        Stop();
        StopDriver();
        // NodeAssembly's registrations then run their cleanups against
        // live runtimes, actuators, and the substrate mutex.
    }

    ThreadedMultiAgentNode(const ThreadedMultiAgentNode&) = delete;
    ThreadedMultiAgentNode& operator=(const ThreadedMultiAgentNode&) =
        delete;

    /** Starts the substrate driver (if any real agent is enabled) and
     *  every agent's runtime threads. */
    void
    Start()
    {
        if (started_) {
            return;
        }
        started_ = true;
        if (control_trace_ != nullptr) {
            control_trace_->Instant("node_start", "node");
        }
        const bool has_real_agents =
            config_.run_overclock || config_.run_harvest ||
            config_.run_memory || config_.run_monitor;
        if (has_real_agents && !driver_running_.exchange(true)) {
            driver_thread_ = std::thread([this] { DriverLoop(); });
        }
        StartAgents();
    }

    /** Stops every agent runtime (the driver keeps the substrate
     *  advancing, as on the simulated node). */
    void
    Stop()
    {
        StopAgents();
        if (started_ && control_trace_ != nullptr) {
            control_trace_->Instant("node_stop", "node");
        }
        started_ = false;
    }

    /** Agent i's time source — the parity harness drives each agent's
     *  ManualClock through this. */
    ClockPolicy& agent_clock(std::size_t i) { return *clocks_[i]; }

  private:
    friend class NodeAssembly;

    // Host hooks called by NodeAssembly::Assemble.
    PolicyClock<ClockPolicy>&
    NewClock(AgentParts& parts)
    {
        return parts.Make<PolicyClock<ClockPolicy>>();
    }

    template <typename D, typename P>
    AgentRuntime&
    HostAgent(std::string name, PolicyClock<ClockPolicy>& clock,
              core::Model<D, P>& model, core::Actuator<P>& actuator,
              const core::Schedule& schedule, AgentParts parts,
              bool substrate)
    {
        core::Model<D, P>* hosted_model = &model;
        core::Actuator<P>* hosted_actuator = &actuator;
        if (substrate) {
            hosted_model = &parts.Make<LockedModel<D, P>>(
                model, substrate_.mutex);
            hosted_actuator = &parts.Make<LockedActuator<P>>(
                actuator, substrate_.mutex);
        }
        auto& runtime =
            parts.Make<core::ThreadedRuntime<D, P, ClockPolicy>>(
                *hosted_model, *hosted_actuator, schedule, config_.runtime);
        clock.Bind(&runtime.clock());
        if (config_.trace_session != nullptr) {
            // One SPSC track per agent thread, on the agent's own clock.
            const std::string base = config_.name + "." + name;
            runtime.SetTraceRecorders(
                config_.trace_session->NewRecorder(base + ".model", &clock),
                config_.trace_session->NewRecorder(base + ".actuator",
                                                   &clock));
        }
        clocks_.push_back(&runtime.clock());
        return AddAgent(std::move(name), runtime, *hosted_actuator,
                        std::move(parts));
    }

    /** Advances the shared substrate at node_tick cadence (wall time),
     *  batching the slower memory/channel drivers exactly like the
     *  simulated node's PeriodicTasks. */
    void
    DriverLoop()
    {
        telemetry::trace::ScopedThreadRecorder bind(driver_trace_);
        // determinism-lint: allow(wall-clock) -- driver pacing only.
        auto last = std::chrono::steady_clock::now();
        sim::Duration memory_accum{0};
        sim::Duration channel_accum{0};
        while (driver_running_.load()) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(config_.node_tick));
            // determinism-lint: allow(wall-clock) -- driver pacing only.
            const auto wall = std::chrono::steady_clock::now();
            const auto elapsed =
                std::chrono::duration_cast<sim::Duration>(wall - last);
            last = wall;
            telemetry::trace::TraceSpan tick_span(driver_trace_,
                                                  "node_tick", "node");
            core::MutexLock lock(substrate_.mutex);
            const sim::TimePoint start = substrate_now_;
            substrate_now_ += elapsed;
            substrate_.node.Advance(substrate_now_, elapsed);
            memory_accum += elapsed;
            if (memory_accum >= config_.memory_tick) {
                substrate_.memory_pattern->GenerateAccesses(
                    start, memory_accum, substrate_.memory);
                memory_accum = sim::Duration{0};
            }
            channel_accum += elapsed;
            if (channel_accum >= config_.channel_tick) {
                substrate_.channels.Advance(start, channel_accum,
                                            substrate_.incident_rng);
                channel_accum = sim::Duration{0};
            }
        }
    }

    void
    StopDriver()
    {
        if (driver_running_.exchange(false) && driver_thread_.joinable()) {
            driver_thread_.join();
        }
    }

    /** Wall timebase for the driver/control tracks (agent tracks use
     *  their agent's PolicyClock instead). */
    telemetry::trace::SteadyClock trace_clock_;
    telemetry::trace::TraceRecorder* driver_trace_ = nullptr;

    /** Each agent's runtime clock, in slot order. */
    std::vector<ClockPolicy*> clocks_;

    // Substrate driver thread (armed by Start()).
    sim::TimePoint substrate_now_{0};
    std::atomic<bool> driver_running_{false};
    std::thread driver_thread_;
};

}  // namespace sol::cluster
