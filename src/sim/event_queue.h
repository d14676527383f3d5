/**
 * @file
 * Discrete-event simulation core.
 *
 * The EventQueue is the heart of the deterministic experiment harness: the
 * node, the workloads, and the SOL SimRuntime all schedule callbacks on it
 * and observe a single shared virtual clock. Events that fire at the same
 * instant execute in insertion order, so a fixed seed reproduces a run
 * exactly.
 *
 * Internals (see sim/event_arena.h): events live in an arena addressed
 * by 32-bit indices, keys and closure payloads in separate parallel
 * arrays. Ordering is two-tier: timers due within the next ~16.8 ms
 * (the agents' periodic collects and ticks) are parked in a calendar
 * ring of 2^14 ns buckets, scheduled and cancelled in O(1), and a
 * bucket is melded into a pairing heap only once it holds the earliest
 * events; everything further out (timeouts, assessments) goes straight
 * into the heap. The steady schedule/fire path performs no heap
 * allocation (closures up to 24 bytes are stored inline in the recycled
 * slot and fired in place), cancellation eagerly unlinks the event —
 * O(1) in the ring, O(log n) amortized in the heap — with O(1)
 * generation-token invalidation of stale handles, and pop order is the
 * same strict (time, sequence) total order the seed binary-heap
 * implementation used — same seeds produce byte-identical traces, which
 * trace_hash() fingerprints.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/event_arena.h"
#include "sim/fnv.h"
#include "sim/time.h"

namespace sol::sim {

/**
 * Handle that allows a scheduled event to be cancelled.
 *
 * Cancellation is eager: the event is unlinked from the queue the
 * moment Cancel() runs, so a cancelled high-frequency timeout costs
 * nothing at its deadline. Cancelling an event that already fired (or
 * was already cancelled) is a harmless no-op — the generation token in
 * the handle can never match a recycled slot.
 *
 * Precondition: a handle must not be used (Cancel(), pending()) after
 * its queue is destroyed — it holds a plain pointer to the queue's
 * arena. Destroying or overwriting a stale handle is always fine. The
 * owners in src/ satisfy this by construction: every runtime and
 * periodic task takes its queue by reference and is destroyed first
 * (NodeShard declares its queue before its nodes).
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Removes the event from the queue if it has not fired yet. */
    void Cancel();

    /**
     * True if this handle's Cancel() took effect before the event
     * fired, or the event was rejected by the queue's pending limit.
     * Either way the callback is guaranteed never to run.
     */
    bool cancelled() const { return cancel_took_effect_; }

    /** True while the event is still scheduled (not fired/cancelled). */
    bool pending() const;

  private:
    friend class EventQueue;
    EventHandle(detail::EventArena* arena, std::uint32_t index,
                std::uint32_t generation)
        : arena_(arena), index_(index), generation_(generation)
    {}

    /** Inert handle for events dropped by the pending limit. */
    static EventHandle
    Dropped()
    {
        EventHandle handle;
        handle.cancel_took_effect_ = true;
        return handle;
    }

    detail::EventArena* arena_ = nullptr;
    std::uint32_t index_ = detail::kNilEvent;
    std::uint32_t generation_ = 0;
    bool cancel_took_effect_ = false;
};

/** Counters describing an EventQueue's lifetime behavior. */
struct EventQueueStats {
    std::uint64_t scheduled = 0;  ///< Events admitted to the queue.
    std::uint64_t executed = 0;   ///< Events that fired.
    std::uint64_t cancelled = 0;  ///< Events removed before firing.
    std::uint64_t dropped = 0;    ///< Events rejected by the limit.
    std::size_t pending = 0;      ///< Events currently scheduled.
    std::size_t peak_pending = 0;
    std::size_t arena_capacity = 0;  ///< Event slots allocated.
    std::size_t arena_blocks = 0;
};

/** Virtual-time event queue with deterministic same-instant ordering. */
class EventQueue : public Clock
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current virtual time. */
    TimePoint Now() const override { return now_; }

    /** Schedules fn at an absolute virtual time (>= Now()). */
    template <typename Fn>
    EventHandle
    ScheduleAt(TimePoint when, Fn&& fn)
    {
        return ScheduleEvent(when,
                             detail::InlineEvent(std::forward<Fn>(fn)));
    }

    /** Schedules fn after a relative delay (clamped to >= 0). */
    template <typename Fn>
    EventHandle
    ScheduleAfter(Duration delay, Fn&& fn)
    {
        if (delay < Duration::zero()) {
            delay = Duration::zero();
        }
        return ScheduleEvent(now_ + delay,
                             detail::InlineEvent(std::forward<Fn>(fn)));
    }

    /** Runs events until the queue is empty or the horizon is reached.
     *
     * The virtual clock is advanced to the horizon even if the last event
     * fires earlier, so periodic drivers stay in lockstep across calls.
     */
    void RunUntil(TimePoint horizon);

    /** Runs events for a relative span of virtual time. */
    void RunFor(Duration span) { RunUntil(now_ + span); }

    /** Runs until the queue drains entirely (caps at max_events). */
    void RunUntilIdle(std::uint64_t max_events = 100'000'000);

    /** Executes the single earliest pending event, if any. */
    bool Step();

    /**
     * Backpressure bound on pending events (0 = unlimited, the
     * default). Once `limit` events are pending, further schedules are
     * rejected: the callback is discarded, stats().dropped counts it,
     * and the returned handle reports cancelled().
     *
     * This is an OOM guard rail, not flow control: a drop is *lossy*.
     * Self-rescheduling loops (runtime timeouts, periodic drivers)
     * whose re-arm event is dropped stay silently stalled for the rest
     * of the run, so the limit must sit far above the workload's peak
     * (stats().peak_pending) and stats().dropped must be checked —
     * any non-zero value means the run's results are degraded. The
     * fleet drivers surface it as the `fleet.queue.dropped` gauge.
     */
    void SetPendingLimit(std::size_t limit) { pending_limit_ = limit; }

    /** Number of events still pending (cancelled events excluded —
     *  cancellation removes them immediately). */
    std::size_t pending() const { return arena_.pending(); }

    /** Total events executed so far (cancelled events excluded). */
    std::uint64_t executed() const { return executed_; }

    /**
     * Order-sensitive FNV-1a fingerprint of every (time, sequence)
     * pair executed so far. Two runs of the same seeded simulation
     * produce the same hash; any divergence in event order or timing
     * changes it. The determinism regression tests and the fleet bench
     * compare these across runs.
     */
    std::uint64_t trace_hash() const { return trace_hash_; }

    /** Lifetime counters (allocation footprint, drops, peaks). */
    EventQueueStats stats() const;

  private:
    EventHandle ScheduleEvent(TimePoint when, detail::InlineEvent fn);

    /** Folds one executed event into the trace fingerprint. */
    void
    MixTrace(TimePoint when, std::uint64_t seq)
    {
        trace_hash_ = FnvMix(
            FnvMix(trace_hash_, static_cast<std::uint64_t>(when.count())),
            seq);
    }

    detail::EventArena arena_;
    TimePoint now_{0};
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t trace_hash_ = kFnvOffsetBasis;
    std::size_t pending_limit_ = 0;
};

/**
 * Convenience wrapper that re-schedules a callback at a fixed period until
 * stopped. Used by node drivers and telemetry samplers.
 */
class PeriodicTask
{
  public:
    /**
     * Starts ticking. The first tick fires at start + period.
     *
     * @param queue Event queue that owns time.
     * @param period Interval between ticks; must be positive.
     * @param fn Callback invoked each tick.
     */
    PeriodicTask(EventQueue& queue, Duration period,
                 std::function<void()> fn);
    ~PeriodicTask();

    PeriodicTask(const PeriodicTask&) = delete;
    PeriodicTask& operator=(const PeriodicTask&) = delete;

    /** Stops future ticks; safe to call multiple times, including from
     *  inside the task's own callback. The pending tick is cancelled
     *  eagerly, leaving nothing in the queue. */
    void Stop();

  private:
    void Arm();

    EventQueue& queue_;
    Duration period_;
    std::function<void()> fn_;
    bool stopped_ = false;
    EventHandle next_;
};

}  // namespace sol::sim
