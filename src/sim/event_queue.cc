#include "sim/event_queue.h"

#include <cassert>
#include <utility>

namespace sol::sim {

void
EventHandle::Cancel()
{
    if (arena_ && arena_->Remove(index_, generation_)) {
        cancel_took_effect_ = true;
    }
}

bool
EventHandle::pending() const
{
    return arena_ && arena_->IsLive(index_, generation_);
}

EventHandle
EventQueue::ScheduleEvent(TimePoint when, detail::InlineEvent fn)
{
    if (when < now_) {
        when = now_;
    }
    if (pending_limit_ != 0 && arena_.pending() >= pending_limit_) {
        ++dropped_;
        return EventHandle::Dropped();
    }
    const std::uint32_t index =
        arena_.Push(when, next_seq_++, std::move(fn));
    return EventHandle(&arena_, index, arena_.GenerationOf(index));
}

void
EventQueue::RunUntil(TimePoint horizon)
{
    detail::EventArena::Popped event;
    while (arena_.PopEarliest(horizon, &event)) {
        now_ = event.when;
        ++executed_;
        MixTrace(event.when, event.seq);
        arena_.InvokePopped(event);
    }
    if (horizon > now_ && horizon != kTimeInfinity) {
        now_ = horizon;
    }
}

void
EventQueue::RunUntilIdle(std::uint64_t max_events)
{
    std::uint64_t budget = max_events;
    while (budget-- > 0 && Step()) {
    }
}

bool
EventQueue::Step()
{
    detail::EventArena::Popped event;
    if (!arena_.PopEarliest(kTimeInfinity, &event)) {
        return false;
    }
    now_ = event.when;
    ++executed_;
    MixTrace(event.when, event.seq);
    arena_.InvokePopped(event);
    return true;
}

EventQueueStats
EventQueue::stats() const
{
    const detail::EventArena::Stats arena = arena_.stats();
    EventQueueStats stats;
    stats.scheduled = arena.scheduled;
    stats.executed = executed_;
    stats.cancelled = arena.cancelled;
    stats.dropped = dropped_;
    stats.pending = arena_.pending();
    stats.peak_pending = arena.peak_pending;
    stats.arena_capacity = arena.capacity;
    stats.arena_blocks = arena.blocks;
    return stats;
}

PeriodicTask::PeriodicTask(EventQueue& queue, Duration period,
                           std::function<void()> fn)
    : queue_(queue),
      period_(period),
      fn_(std::move(fn))
{
    assert(period_ > Duration::zero());
    Arm();
}

PeriodicTask::~PeriodicTask()
{
    Stop();
}

void
PeriodicTask::Stop()
{
    stopped_ = true;
    next_.Cancel();
}

void
PeriodicTask::Arm()
{
    // Stop() cancels the pending tick, so a tick that fires is live;
    // only fn_ itself can stop the task mid-tick.
    next_ = queue_.ScheduleAfter(period_, [this] {
        fn_();
        if (!stopped_) {
            Arm();
        }
    });
}

}  // namespace sol::sim
