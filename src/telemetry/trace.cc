#include "telemetry/trace.h"

#include <bit>
#include <cstdio>
#include <sstream>

#include "telemetry/json_escape.h"

namespace sol::telemetry::trace {

namespace {

thread_local TraceRecorder* g_thread_recorder = nullptr;

std::size_t
RoundCapacity(std::size_t capacity)
{
    return std::bit_ceil(std::max<std::size_t>(capacity, 2));
}

/** Formats nanoseconds as microseconds with exactly three fractional
 *  digits ("12.345") — integer math only, so the bytes are
 *  deterministic across platforms. */
void
AppendMicros(std::string& out, std::int64_t ns)
{
    if (ns < 0) {
        out += '-';
        ns = -ns;
    }
    out += std::to_string(ns / 1000);
    const auto frac = static_cast<unsigned>(ns % 1000);
    char buf[8];
    std::snprintf(buf, sizeof(buf), ".%03u", frac);
    out += buf;
}

void
AppendEventJson(std::string& out, const TraceEvent& event, int tid)
{
    out += R"({"ph":")";
    out += event.kind == TraceEvent::Kind::kComplete ? 'X' : 'i';
    out += R"(","pid":1,"tid":)";
    out += std::to_string(tid);
    out += R"(,"name":")";
    AppendJsonEscaped(out, event.name);
    out += R"(","cat":")";
    AppendJsonEscaped(out, event.category);
    out += R"(","ts":)";
    AppendMicros(out, event.ts_ns);
    if (event.kind == TraceEvent::Kind::kComplete) {
        out += R"(,"dur":)";
        AppendMicros(out, event.dur_ns);
    } else {
        out += R"(,"s":"t")";
    }
    if (event.num_args > 0 || event.string_key != nullptr) {
        out += R"(,"args":{)";
        bool first = true;
        for (std::uint8_t i = 0; i < event.num_args; ++i) {
            if (!first) {
                out += ',';
            }
            first = false;
            out += '"';
            AppendJsonEscaped(out, event.args[i].key);
            out += "\":";
            out += std::to_string(event.args[i].value);
        }
        if (event.string_key != nullptr) {
            if (!first) {
                out += ',';
            }
            out += '"';
            AppendJsonEscaped(out, event.string_key);
            out += "\":\"";
            AppendJsonEscaped(out, event.string_value);
            out += '"';
        }
        out += '}';
    }
    out += '}';
}

}  // namespace

TraceRecorder::TraceRecorder(std::string track, const sim::Clock* clock,
                             std::size_t capacity)
    : track_(std::move(track)),
      clock_(clock),
      slots_(RoundCapacity(capacity)),
      mask_(slots_.size() - 1)
{
}

void
TraceRecorder::FillArgs(TraceEvent& event,
                        std::initializer_list<TraceArg> args,
                        const char* string_key,
                        std::string_view string_value)
{
    event.num_args = 0;
    for (const TraceArg& arg : args) {
        if (event.num_args >= TraceEvent::kMaxArgs) {
            break;
        }
        event.args[event.num_args++] = arg;
    }
    event.string_key = string_key;
    if (string_key != nullptr) {
        const std::size_t n =
            std::min(string_value.size(), TraceEvent::kMaxStringArg);
        std::memcpy(event.string_value, string_value.data(), n);
        event.string_value[n] = '\0';
    } else {
        event.string_value[0] = '\0';
    }
}

void
TraceRecorder::Complete(const char* name, const char* category,
                        sim::TimePoint begin, sim::Duration duration,
                        std::initializer_list<TraceArg> args,
                        const char* string_key,
                        std::string_view string_value)
{
    TraceEvent* slot = Claim();
    if (slot == nullptr) {
        return;
    }
    slot->kind = TraceEvent::Kind::kComplete;
    slot->name = name;
    slot->category = category;
    slot->ts_ns = begin.count();
    slot->dur_ns = duration.count();
    FillArgs(*slot, args, string_key, string_value);
    Publish();
}

void
TraceRecorder::Instant(const char* name, const char* category,
                       std::initializer_list<TraceArg> args,
                       const char* string_key,
                       std::string_view string_value)
{
    TraceEvent* slot = Claim();
    if (slot == nullptr) {
        return;
    }
    slot->kind = TraceEvent::Kind::kInstant;
    slot->name = name;
    slot->category = category;
    slot->ts_ns = Now().count();
    slot->dur_ns = 0;
    FillArgs(*slot, args, string_key, string_value);
    Publish();
}

void
TraceRecorder::InstantAt(const char* name, const char* category,
                         sim::TimePoint at,
                         std::initializer_list<TraceArg> args,
                         const char* string_key,
                         std::string_view string_value)
{
    TraceEvent* slot = Claim();
    if (slot == nullptr) {
        return;
    }
    slot->kind = TraceEvent::Kind::kInstant;
    slot->name = name;
    slot->category = category;
    slot->ts_ns = at.count();
    slot->dur_ns = 0;
    FillArgs(*slot, args, string_key, string_value);
    Publish();
}

TraceRecorder*
CurrentThreadRecorder()
{
    return g_thread_recorder;
}

ScopedThreadRecorder::ScopedThreadRecorder(TraceRecorder* recorder)
    : previous_(g_thread_recorder)
{
    g_thread_recorder = recorder;
}

ScopedThreadRecorder::~ScopedThreadRecorder()
{
    g_thread_recorder = previous_;
}

TraceRecorder*
TraceSession::NewRecorder(std::string track, const sim::Clock* clock,
                          std::size_t capacity)
{
    core::MutexLock lock(mutex_);
    recorders_.push_back(std::make_unique<TraceRecorder>(
        std::move(track), clock,
        capacity == 0 ? default_capacity_ : capacity));
    return recorders_.back().get();
}

std::size_t
TraceSession::size() const
{
    core::MutexLock lock(mutex_);
    return recorders_.size();
}

TraceRecorder&
TraceSession::recorder(std::size_t index)
{
    core::MutexLock lock(mutex_);
    return *recorders_[index];
}

std::uint64_t
TraceSession::total_recorded() const
{
    core::MutexLock lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& recorder : recorders_) {
        total += recorder->recorded();
    }
    return total;
}

std::uint64_t
TraceSession::total_dropped() const
{
    core::MutexLock lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& recorder : recorders_) {
        total += recorder->dropped();
    }
    return total;
}

void
ChromeTraceWriter::Write(TraceSession& session, std::ostream& os)
{
    os << ToString(session);
}

std::string
ChromeTraceWriter::ToString(TraceSession& session)
{
    std::string out;
    out.reserve(1 << 16);
    out += R"({"displayTimeUnit":"ms","traceEvents":[)";
    out += "\n";
    out += R"({"ph":"M","pid":1,"tid":0,"name":"process_name",)"
           R"("args":{"name":"sol"}})";

    const std::size_t tracks = session.size();
    for (std::size_t i = 0; i < tracks; ++i) {
        TraceRecorder& recorder = session.recorder(i);
        const int tid = static_cast<int>(i) + 1;
        out += ",\n";
        out += R"({"ph":"M","pid":1,"tid":)";
        out += std::to_string(tid);
        out += R"(,"name":"thread_name","args":{"name":")";
        AppendJsonEscaped(out, recorder.track());
        out += "\"}}";
        recorder.ConsumeAll([&out, tid](const TraceEvent& event) {
            out += ",\n";
            AppendEventJson(out, event, tid);
        });
        const std::uint64_t dropped = recorder.dropped();
        if (dropped > 0) {
            out += ",\n";
            out += R"({"ph":"C","pid":1,"tid":)";
            out += std::to_string(tid);
            out += R"(,"name":"trace_dropped","ts":0,"args":{"dropped":)";
            out += std::to_string(dropped);
            out += "}}";
        }
    }
    out += "\n]}\n";
    return out;
}

bool
ChromeTraceWriter::WriteFile(TraceSession& session,
                             const std::string& name)
{
    return WriteFile(name, ToString(session));
}

bool
ChromeTraceWriter::WriteFile(const std::string& name,
                             const std::string& serialized)
{
    return !WriteArtifactFile("TRACE_" + name + ".json", serialized)
                .empty();
}

}  // namespace sol::telemetry::trace
