#include "core/runtime_stats.h"

#include <algorithm>

namespace sol::core {

namespace {

void
PrintValue(std::ostream& os, std::uint64_t count)
{
    os << count;
}

void
PrintValue(std::ostream& os, sim::Duration duration)
{
    os << sim::ToSeconds(duration);
}

}  // namespace

void
RuntimeStats::Accumulate(const RuntimeStats& other)
{
    ForEachCounter(
        [](const char*, CounterKind kind, auto& mine, const auto& theirs) {
            mine = kind == CounterKind::kPeak ? std::max(mine, theirs)
                                              : mine + theirs;
        },
        *this, other);
}

std::ostream&
operator<<(std::ostream& os, const RuntimeStats& stats)
{
    ForEachCounter(
        [&os](const char* name, CounterKind, const auto& value) {
            os << name << " = ";
            PrintValue(os, value);
            os << "\n";
        },
        stats);
    return os;
}

RuntimeStats
AtomicRuntimeStats::Snapshot() const
{
    RuntimeStats out;
    ForEachCounter(
        [](const char*, CounterKind, auto& to, const auto& from) {
            to = from.load(std::memory_order_relaxed);
        },
        out, *this);
    return out;
}

}  // namespace sol::core
