/**
 * @file
 * Introspection counters exported by the SOL runtimes.
 *
 * These back both the experiment reports (how often safeguards fired,
 * how many predictions expired) and the operational monitoring a
 * production deployment would alert on. Both runtimes maintain them
 * through the shared core::EpochEngine, so the counters obey the same
 * identities everywhere (tests/runtime_parity_test.cc asserts
 * field-for-field equality between the runtimes):
 *
 *   epochs        = model_updates + short_circuit_epochs
 *   predictions_delivered = epochs
 *                 = actions_with_prediction + expired_predictions
 *                   + dropped_while_halted + still-queued
 *   actions_taken = actions_with_prediction + actuator_timeouts
 *
 * The counters are declared once, in RuntimeCounters, and listed once,
 * in ForEachCounter. RuntimeStats (plain) and AtomicRuntimeStats (the
 * threaded runtime's relaxed atomics) are both that declaration, and
 * every walk over the counters — roll-up, snapshot, printing, metric
 * gauges, the parity suites — goes through ForEachCounter, so a new
 * counter is added in those two places and nowhere else.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>

#include "sim/time.h"

namespace sol::core {

/**
 * The agent counters, over a storage template: `Cell<T>` is T itself
 * for RuntimeStats and std::atomic<T> for AtomicRuntimeStats. Every
 * field is 8 bytes (a count or a sim::Duration), which is what lets
 * the static_asserts below catch a field added without its
 * ForEachCounter line.
 */
template <template <typename> class Cell>
struct RuntimeCounters {
    // Model loop.
    Cell<std::uint64_t> samples_collected{};
    Cell<std::uint64_t> invalid_samples{};  ///< Rejected by ValidateData.
    Cell<std::uint64_t> epochs{};
    Cell<std::uint64_t> model_updates{};
    /** Ended without enough data. */
    Cell<std::uint64_t> short_circuit_epochs{};
    Cell<std::uint64_t> model_assessments{};
    Cell<std::uint64_t> failed_assessments{};
    /** Replaced by defaults. */
    Cell<std::uint64_t> intercepted_predictions{};

    // Prediction flow.
    Cell<std::uint64_t> predictions_delivered{};
    Cell<std::uint64_t> default_predictions{};
    /** Evicted by the queue bound, or stale when dequeued. */
    Cell<std::uint64_t> expired_predictions{};
    /** Dropped at delivery while actuation was halted, or flushed from
     *  the queue by a safeguard trigger. */
    Cell<std::uint64_t> dropped_while_halted{};
    /** High-water mark of the bounded prediction queue. Compared against
     *  RuntimeOptions::max_queued_predictions it shows how close the
     *  agent runs to eviction (the queue-bound overflow path). */
    Cell<std::uint64_t> peak_queued_predictions{};

    // Actuator loop.
    Cell<std::uint64_t> actions_taken{};
    Cell<std::uint64_t> actions_with_prediction{};
    /** Conservative TakeAction(empty) fallbacks: the actuation timeout
     *  fired without a prediction, or the queued one arrived stale. */
    Cell<std::uint64_t> actuator_timeouts{};
    Cell<std::uint64_t> actuator_assessments{};
    Cell<std::uint64_t> safeguard_triggers{};  ///< Healthy -> failing edges.
    Cell<std::uint64_t> mitigations{};         ///< Mitigate() invocations.
    Cell<sim::Duration> halted_time{};  ///< Total time actuation halted.
};

/** How a counter rolls up across agents. */
enum class CounterKind {
    kSum,   ///< Counts and durations add.
    kPeak,  ///< High-water marks take the maximum.
};

/**
 * Calls `f(name, kind, stats.<counter>...)` once per counter, in
 * declaration order, passing that counter of every `stats` argument
 * (any mix of RuntimeStats and AtomicRuntimeStats, const or not).
 * `name` is the counter's exported name: the field name, except that
 * halted_time is exported in seconds as "halted_seconds".
 */
template <typename F, typename... Stats>
constexpr void
ForEachCounter(F&& f, Stats&... stats)
{
    constexpr CounterKind kSum = CounterKind::kSum;
    f("samples_collected", kSum, stats.samples_collected...);
    f("invalid_samples", kSum, stats.invalid_samples...);
    f("epochs", kSum, stats.epochs...);
    f("model_updates", kSum, stats.model_updates...);
    f("short_circuit_epochs", kSum, stats.short_circuit_epochs...);
    f("model_assessments", kSum, stats.model_assessments...);
    f("failed_assessments", kSum, stats.failed_assessments...);
    f("intercepted_predictions", kSum, stats.intercepted_predictions...);
    f("predictions_delivered", kSum, stats.predictions_delivered...);
    f("default_predictions", kSum, stats.default_predictions...);
    f("expired_predictions", kSum, stats.expired_predictions...);
    f("dropped_while_halted", kSum, stats.dropped_while_halted...);
    f("peak_queued_predictions", CounterKind::kPeak,
      stats.peak_queued_predictions...);
    f("actions_taken", kSum, stats.actions_taken...);
    f("actions_with_prediction", kSum, stats.actions_with_prediction...);
    f("actuator_timeouts", kSum, stats.actuator_timeouts...);
    f("actuator_assessments", kSum, stats.actuator_assessments...);
    f("safeguard_triggers", kSum, stats.safeguard_triggers...);
    f("mitigations", kSum, stats.mitigations...);
    f("halted_seconds", kSum, stats.halted_time...);
}

template <typename T>
using PlainCell = T;

/** Counters maintained by the runtime while an agent executes. */
struct RuntimeStats : RuntimeCounters<PlainCell> {
    /**
     * Folds another agent's counters into this one (multi-agent
     * roll-ups): counters add, peaks take the maximum.
     */
    void Accumulate(const RuntimeStats& other);
};

/** Writes the stats as "name = value" lines (durations in seconds). */
std::ostream& operator<<(std::ostream& os, const RuntimeStats& stats);

/**
 * Lock-free twin of RuntimeStats for the threaded runtime.
 *
 * The model and actuator threads update disjoint-or-commutative
 * counters many times per epoch; routing those through a mutex put a
 * lock acquisition on every sample of the 50 us collection loops.
 * Relaxed atomics are exact for monotonic counters, and Snapshot() is
 * a per-field load — fields may be skewed by in-flight increments,
 * which is the same guarantee the mutex gave a caller reading between
 * two updates of one epoch.
 */
struct AtomicRuntimeStats : RuntimeCounters<std::atomic> {
    /** Raises a peak gauge to at least `value` (relaxed CAS loop). */
    static void
    RaisePeak(std::atomic<std::uint64_t>& peak, std::uint64_t value)
    {
        std::uint64_t seen = peak.load(std::memory_order_relaxed);
        while (seen < value &&
               !peak.compare_exchange_weak(seen, value,
                                           std::memory_order_relaxed)) {
        }
    }

    /** Copies every field into the plain struct (relaxed loads). */
    RuntimeStats Snapshot() const;
};

/** Number of counters ForEachCounter visits. */
inline constexpr std::size_t kNumRuntimeCounters = [] {
    std::size_t n = 0;
    ForEachCounter([&n](const char*, CounterKind) { ++n; });
    return n;
}();

static_assert(sizeof(RuntimeStats) ==
                  kNumRuntimeCounters * sizeof(std::uint64_t),
              "every RuntimeCounters field must be listed in ForEachCounter");
static_assert(sizeof(AtomicRuntimeStats) ==
                  kNumRuntimeCounters * sizeof(std::uint64_t),
              "every RuntimeCounters field must be listed in ForEachCounter");

}  // namespace sol::core
