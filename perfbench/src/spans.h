/**
 * @file
 * The benchmark's own flight recorder: host-time spans recorded around
 * its calls into each library layer, kept in memory and written out as
 * one JSON file when the run ends.
 *
 * Nothing inside the library is instrumented; a span here brackets a
 * public call (a fleet window, one shard's RunUntil, a probe loop). A
 * span's self time is its duration minus the part of it covered by its
 * children, so the window spans of the serial leg split into shard time
 * (cluster) and the rest (fleet).
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded span (host steady-clock nanoseconds). */
struct Span {
    std::string name;
    std::string layer;  ///< Module name: sim, core, node, cluster, ...
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;    ///< Index of the enclosing span, -1 for roots.
    int run = 0;        ///< Leg id (see SpanLog::BeginRun).
};

/** In-memory span store. Single-threaded: only the main thread records. */
class SpanLog
{
  public:
    /** Starts a new leg ("untraced", "traced", "serial", "probes");
     *  later spans carry its id. */
    int BeginRun(const std::string& label);

    /** Opens a span; returns its index. */
    int Open(const std::string& name, const std::string& layer,
             int parent = -1);

    /** Closes span `index` now. */
    void Close(int index);

    /** Self time per span: duration minus the union of its children. */
    std::vector<std::int64_t> SelfTimes() const;

    /** Self time summed per layer, ms (spans of leg `run` only; -1 =
     *  every leg). */
    std::map<std::string, double> LayerSelfMs(int run = -1) const;

    /** Writes every span plus the per-layer self-time table as JSON. */
    bool WriteJson(const std::string& path,
                   const std::map<std::string, std::string>& header) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::string> runs_;
    int current_run_ = -1;
};

/** RAII span on a SpanLog; a null log records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog* log, const std::string& name,
               const std::string& layer, int parent = -1)
        : log_(log), index_(log != nullptr ? log->Open(name, layer, parent)
                                           : -1)
    {
    }

    ~ScopedSpan()
    {
        if (log_ != nullptr) {
            log_->Close(index_);
        }
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int index() const { return index_; }

  private:
    SpanLog* log_;
    int index_;
};

}  // namespace perfbench
