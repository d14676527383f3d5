/**
 * @file
 * Flight-recorder tracing: per-thread SPSC ring buffers of spans and
 * instants, serialized to Chrome trace_event JSON (Perfetto-loadable).
 *
 * The recorder answers the question aggregate counters can't: when a
 * safeguard trips or the arbiter denies a burst of expand intents,
 * *when* did it happen, in what order, and how long did each phase
 * take. It is designed as an always-available bounded-overhead layer:
 *
 *   - One TraceRecorder per producer thread (SPSC): exactly one thread
 *     records into a ring; the ChromeTraceWriter (or any consumer)
 *     drains it from another thread through an acquire/release
 *     head/tail pair. No locks, no allocation on the hot path.
 *   - Fixed-capacity slots with drop-counted overflow: when the ring
 *     is full new events are dropped (the buffer keeps the *head* of
 *     the run) and counted exactly; the drop count is published into
 *     the serialized trace so truncation is never silent.
 *   - Near-zero cost when disabled: every instrumentation point takes
 *     a `TraceRecorder*` that may be null; TraceSpan's constructor
 *     does a single pointer test and reads no clock when it is.
 *   - Deterministic timestamps under virtual time: a recorder reads
 *     time through `sim::Clock`, so simulated runs produce
 *     byte-identical traces across runs and thread counts, while
 *     threaded runs use a steady-clock-backed sim::Clock
 *     (core::ManualClock in parity tests, SteadyClock otherwise).
 *
 * Event names and categories must be string literals (or otherwise
 * outlive the recorder): slots store `const char*`, never copies. The
 * one exception is a single short string argument per event (agent or
 * holder names), copied into a fixed in-slot buffer.
 *
 * Thread-attribution for shared components (the arbiter is called from
 * 77 actuator threads) goes through CurrentThreadRecorder(): each
 * runtime loop binds its recorder with ScopedThreadRecorder, and the
 * arbiter records into whichever recorder the calling thread bound —
 * preserving SPSC without the arbiter knowing about threads.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/sync.h"
#include "core/thread_annotations.h"
#include "sim/time.h"

namespace sol::telemetry::trace {

/** sim::Clock over std::chrono::steady_clock, origin at construction.
 *  Backs tracks that have no runtime clock of their own (node driver /
 *  control threads, ad-hoc test threads). */
class SteadyClock : public sim::Clock
{
  public:
    SteadyClock() : origin_(std::chrono::steady_clock::now()) {}

    sim::TimePoint
    Now() const override
    {
        return std::chrono::duration_cast<sim::Duration>(
            std::chrono::steady_clock::now() - origin_);
    }

  private:
    std::chrono::steady_clock::time_point origin_;
};

/** One integer key/value pair attached to an event. Keys must be
 *  string literals. */
struct TraceArg {
    const char* key = nullptr;
    std::int64_t value = 0;
};

/** One fixed-size ring slot. POD-copyable; no ownership. */
struct TraceEvent {
    enum class Kind : std::uint8_t {
        kComplete,  ///< Span with begin timestamp + duration (ph "X").
        kInstant,   ///< Point event (ph "i").
    };
    static constexpr std::size_t kMaxArgs = 2;
    static constexpr std::size_t kMaxStringArg = 23;

    Kind kind = Kind::kInstant;
    std::uint8_t num_args = 0;
    const char* name = nullptr;      ///< Literal; never null once recorded.
    const char* category = nullptr;  ///< Literal; never null once recorded.
    std::int64_t ts_ns = 0;
    std::int64_t dur_ns = 0;  ///< kComplete only.
    TraceArg args[kMaxArgs] = {};
    const char* string_key = nullptr;  ///< Literal; null = no string arg.
    char string_value[kMaxStringArg + 1] = {};
};

/**
 * Single-producer single-consumer ring of TraceEvents for one track.
 *
 * Exactly one thread may call the recording methods (Complete /
 * Instant / the TraceSpan destructor); exactly one thread at a time
 * may call ConsumeAll. Producer and consumer may run concurrently.
 * Capacity is rounded up to a power of two. When the ring is full,
 * new events are dropped and counted (`dropped()`), keeping the
 * events from the start of the run — a flight recorder that captures
 * the head of the flight, with exact truncation accounting.
 */
class TraceRecorder
{
  public:
    /**
     * @param track  Display name for this track (Perfetto thread row).
     * @param clock  Timestamp source; may be null (timestamps 0, for
     *               tracks that only use explicit-timestamp Complete).
     *               Must outlive all recording calls.
     * @param capacity  Slot count, rounded up to a power of two
     *                  (minimum 2).
     */
    TraceRecorder(std::string track, const sim::Clock* clock,
                  std::size_t capacity);

    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    const std::string& track() const { return track_; }
    std::size_t capacity() const { return slots_.size(); }

    sim::TimePoint
    Now() const
    {
        return clock_ == nullptr ? sim::TimePoint{} : clock_->Now();
    }

    /** Records a span with explicit begin/duration (producer only). */
    void Complete(const char* name, const char* category,
                  sim::TimePoint begin, sim::Duration duration,
                  std::initializer_list<TraceArg> args = {},
                  const char* string_key = nullptr,
                  std::string_view string_value = {});

    /** Records a point event timestamped via the clock (producer
     *  only). */
    void Instant(const char* name, const char* category,
                 std::initializer_list<TraceArg> args = {},
                 const char* string_key = nullptr,
                 std::string_view string_value = {});

    /** Records a point event with an explicit timestamp (producer
     *  only). For producers that already know the virtual time of the
     *  moment they mark — the fleet track's alert instants land at the
     *  sampling boundary even though that track has no clock. */
    void InstantAt(const char* name, const char* category,
                   sim::TimePoint at,
                   std::initializer_list<TraceArg> args = {},
                   const char* string_key = nullptr,
                   std::string_view string_value = {});

    /** Events accepted into the ring so far (relaxed; producer-exact). */
    std::uint64_t
    recorded() const
    {
        return head_.load(std::memory_order_relaxed);
    }

    /** Events rejected because the ring was full (relaxed;
     *  producer-exact). */
    std::uint64_t
    dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /**
     * Drains every currently-visible event in record order (consumer
     * only; safe against a concurrently-recording producer).
     */
    template <typename Fn>
    void
    ConsumeAll(Fn&& fn)
    {
        std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        const std::uint64_t head = head_.load(std::memory_order_acquire);
        while (tail != head) {
            fn(slots_[static_cast<std::size_t>(tail) & mask_]);
            ++tail;
        }
        tail_.store(tail, std::memory_order_release);
    }

  private:
    friend class TraceSpan;

    /** True, counting a drop, when the ring has no free slot. */
    bool
    DropIfFull()
    {
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        const std::uint64_t tail = tail_.load(std::memory_order_acquire);
        if (head - tail < slots_.size()) {
            return false;
        }
        // Producer-owned like head_: a plain load/store pair is exact and
        // skips the locked read-modify-write on the drop path.
        dropped_.store(dropped_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
        return true;
    }

    /** Claims the next slot, or null (and counts a drop) if full. */
    TraceEvent*
    Claim()
    {
        if (DropIfFull()) {
            return nullptr;
        }
        return &slots_[static_cast<std::size_t>(
                           head_.load(std::memory_order_relaxed)) &
                       mask_];
    }

    /** Publishes the slot claimed by the last Claim(). */
    void
    Publish()
    {
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        head_.store(head + 1, std::memory_order_release);
    }

    static void FillArgs(TraceEvent& event,
                         std::initializer_list<TraceArg> args,
                         const char* string_key,
                         std::string_view string_value);

    std::string track_;
    const sim::Clock* clock_;
    std::vector<TraceEvent> slots_;
    std::size_t mask_;
    /** Next write, and so the count of events ever recorded;
     *  producer-owned. */
    std::atomic<std::uint64_t> head_{0};
    std::atomic<std::uint64_t> tail_{0};  ///< Next read; consumer-owned.
    std::atomic<std::uint64_t> dropped_{0};  ///< Producer-owned.
};

/**
 * RAII span: records one kComplete event covering its own lifetime.
 *
 * With a null recorder every method is a no-op and no clock is read —
 * this is the "near-zero cost when disabled" path, a single branch. A
 * span that opens on a full ring is dropped right there (the drop is
 * counted then) and costs no more than a disabled one from that point.
 * Only the producer fills the ring, so a ring full at open is still
 * full at close unless a concurrent consumer drains it in between.
 * Name/category/arg keys must be string literals.
 */
class TraceSpan
{
  public:
    TraceSpan(TraceRecorder* recorder, const char* name,
              const char* category)
        : recorder_(recorder), name_(name), category_(category)
    {
        if (recorder_ != nullptr) {
            if (recorder_->DropIfFull()) {
                recorder_ = nullptr;
            } else {
                begin_ = recorder_->Now();
            }
        }
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

    /** Attaches an integer arg (at most TraceEvent::kMaxArgs; extras
     *  are ignored). */
    void
    AddArg(const char* key, std::int64_t value)
    {
        if (recorder_ != nullptr && num_args_ < TraceEvent::kMaxArgs) {
            args_[num_args_++] = TraceArg{key, value};
        }
    }

    /** Attaches the single short string arg (truncated to fit the
     *  slot buffer). */
    void
    SetString(const char* key, std::string_view value)
    {
        if (recorder_ == nullptr) {
            return;
        }
        string_key_ = key;
        const std::size_t n =
            std::min(value.size(), TraceEvent::kMaxStringArg);
        std::memcpy(string_value_, value.data(), n);
        string_value_[n] = '\0';
    }

    ~TraceSpan();

  private:
    TraceRecorder* recorder_;
    const char* name_;
    const char* category_;
    sim::TimePoint begin_{};
    std::uint8_t num_args_ = 0;
    TraceArg args_[TraceEvent::kMaxArgs] = {};
    const char* string_key_ = nullptr;
    char string_value_[TraceEvent::kMaxStringArg + 1] = {};
};

/** Recorder bound to the current thread (null if none). Shared
 *  components (the arbiter) record through this so events land on the
 *  calling thread's track and SPSC is preserved. */
TraceRecorder* CurrentThreadRecorder();

/** Binds a recorder to the current thread for a scope; restores the
 *  previous binding on destruction (nestable). */
class ScopedThreadRecorder
{
  public:
    explicit ScopedThreadRecorder(TraceRecorder* recorder);
    ~ScopedThreadRecorder();

    ScopedThreadRecorder(const ScopedThreadRecorder&) = delete;
    ScopedThreadRecorder& operator=(const ScopedThreadRecorder&) = delete;

  private:
    TraceRecorder* previous_;
};

/**
 * Owns a set of recorders (tracks) that serialize into one trace.
 *
 * NewRecorder is thread-safe; creation order defines the track (tid)
 * order in the serialized JSON, so creating recorders in a
 * deterministic order makes the whole trace byte-deterministic in sim
 * mode. Recorders live until the session dies; pointers remain stable.
 */
class TraceSession
{
  public:
    explicit TraceSession(std::size_t default_capacity = 1 << 12)
        : default_capacity_(default_capacity)
    {
    }

    /** Creates a recorder; capacity 0 means the session default. */
    TraceRecorder* NewRecorder(std::string track, const sim::Clock* clock,
                               std::size_t capacity = 0);

    std::size_t size() const;
    /** @pre index < size(). */
    TraceRecorder& recorder(std::size_t index);

    std::uint64_t total_recorded() const;
    std::uint64_t total_dropped() const;

  private:
    mutable core::Mutex mutex_;
    std::size_t default_capacity_;
    /** Pointers are stable and recorders are internally SPSC; the
     *  lock guards only the vector of tracks. */
    std::vector<std::unique_ptr<TraceRecorder>> recorders_
        SOL_GUARDED_BY(mutex_);
};

/**
 * Serializes (and drains) a TraceSession as Chrome trace_event JSON:
 * `{"displayTimeUnit":"ms","traceEvents":[...]}` with one metadata
 * thread_name per track, ph "X" for spans, ph "i" for instants, and a
 * `trace_dropped` counter event per track that overflowed. Load the
 * file in Perfetto (ui.perfetto.dev) or chrome://tracing.
 *
 * Serialization is byte-deterministic given identical recorded events
 * (fixed key order, integer microsecond.nnn timestamps, track order =
 * recorder creation order). Draining consumes the events: serialize
 * once, after producers have stopped or at a quiescent point.
 */
class ChromeTraceWriter
{
  public:
    /** Drains `session` and writes the JSON to `os`. */
    static void Write(TraceSession& session, std::ostream& os);

    /** Drains `session` and returns the JSON (for byte comparisons). */
    static std::string ToString(TraceSession& session);

    /**
     * Drains `session` into `TRACE_<name>.json` beside the BENCH and
     * HEALTH files (WriteArtifactFile's rule: $SOL_BENCH_JSON_DIR or
     * the working directory, "-" disables). Returns true if a file was
     * written.
     */
    static bool WriteFile(TraceSession& session, const std::string& name);

    /** Writes an already-serialized trace (from ToString) to the same
     *  location WriteFile(session, name) would use. */
    static bool WriteFile(const std::string& name,
                          const std::string& serialized);
};

inline TraceSpan::~TraceSpan()
{
    if (recorder_ == nullptr) {
        return;
    }
    TraceEvent* slot = recorder_->Claim();
    if (slot == nullptr) {
        return;  // Claim counted the drop; a full ring reads no clock.
    }
    const sim::TimePoint end = recorder_->Now();
    slot->kind = TraceEvent::Kind::kComplete;
    slot->name = name_;
    slot->category = category_;
    slot->ts_ns = begin_.count();
    slot->dur_ns = (end - begin_).count();
    slot->num_args = num_args_;
    for (std::uint8_t i = 0; i < num_args_; ++i) {
        slot->args[i] = args_[i];
    }
    slot->string_key = string_key_;
    if (string_key_ != nullptr) {
        std::memcpy(slot->string_value, string_value_,
                    sizeof(string_value_));
    } else {
        slot->string_value[0] = '\0';
    }
    recorder_->Publish();
}

}  // namespace sol::telemetry::trace
