/**
 * @file
 * Named metric collection for experiments and runtime introspection.
 *
 * Publishers flush counters, gauges and latency histograms here as
 * absolute snapshots (SetCounter/SetGauge/SetHistogram, so a repeated
 * flush is idempotent); benches render them as JSON. Multi-agent
 * harnesses namespace their metrics per agent/node with MetricScope,
 * and every bench binary emits a machine-readable BENCH_<name>.json
 * alongside its human tables via BenchJson so figure data stays
 * diffable across commits. A time series belongs in a BenchJson table
 * (one row per sample) or, for health, in a telemetry::TimeSeriesStore.
 *
 * A MetricRegistry is single-threaded: every writer owns its registry
 * exclusively and snapshots flow upward through MergeFrom at
 * collection points (the sharded fleet writes its window gauges on the
 * main thread, workers parked). Lookups of unknown names are
 * non-mutating and well-defined: Counter/Gauge return 0 and Histogram
 * returns an empty histogram.
 */
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/latency_histogram.h"

namespace sol::telemetry {

/** Registry of counters, gauges, and latency histograms keyed by
 *  name. */
class MetricRegistry
{
  public:
    /**
     * Sets a counter to an absolute value. Publishers keep their own
     * authoritative tally (e.g. atomic hot-path counters) and flush
     * snapshots into the registry, so a repeated flush is idempotent.
     */
    void SetCounter(const std::string& name, std::uint64_t value);

    /** Sets a point-in-time value. */
    void SetGauge(const std::string& name, double value);

    /** Replaces a histogram with a snapshot (idempotent flush, the
     *  SetCounter idiom for distribution-owning publishers). */
    void SetHistogram(const std::string& name,
                      const LatencyHistogram& histogram);

    std::uint64_t Counter(const std::string& name) const;
    double Gauge(const std::string& name) const;

    /** Histogram for `name`; unknown names return a shared empty
     *  histogram (never inserts). */
    const LatencyHistogram& Histogram(const std::string& name) const;

    /** Writes every counter, gauge, and histogram snapshot as one JSON
     *  object (histograms as integer-ns count/sum/min/max/p50/p90/p99/
     *  p999). */
    void WriteJson(std::ostream& os) const;

    /**
     * Merges another registry's metrics under `prefix + "."`: counters
     * add, gauges overwrite, histograms bucket-wise add.
     */
    void MergeFrom(const MetricRegistry& other, const std::string& prefix);

    const std::map<std::string, std::uint64_t>& counters() const
    {
        return counters_;
    }
    const std::map<std::string, double>& gauges() const { return gauges_; }
    const std::map<std::string, LatencyHistogram>& histograms() const
    {
        return histograms_;
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, LatencyHistogram> histograms_;
};

/**
 * Prefix-forwarding view of a MetricRegistry.
 *
 * Co-located agents and multi-node fleets share one registry; each
 * writer namespaces its metrics ("node0.smart-harvest.epochs") by going
 * through a scope. Scopes nest: Sub("x").Sub("y") writes "x.y.<name>".
 */
class MetricScope
{
  public:
    MetricScope(MetricRegistry& registry, std::string prefix)
        : registry_(registry), prefix_(std::move(prefix))
    {
    }

    void
    SetCounter(const std::string& name, std::uint64_t value)
    {
        registry_.SetCounter(Key(name), value);
    }

    void
    SetGauge(const std::string& name, double value)
    {
        registry_.SetGauge(Key(name), value);
    }

    void
    SetHistogram(const std::string& name,
                 const LatencyHistogram& histogram)
    {
        registry_.SetHistogram(Key(name), histogram);
    }

    std::uint64_t
    Counter(const std::string& name) const
    {
        return registry_.Counter(Key(name));
    }

    double
    Gauge(const std::string& name) const
    {
        return registry_.Gauge(Key(name));
    }

    /** Derives a nested scope. */
    MetricScope
    Sub(const std::string& prefix) const
    {
        return MetricScope(registry_, Key(prefix));
    }

  private:
    std::string
    Key(const std::string& name) const
    {
        return prefix_.empty() ? name : prefix_ + "." + name;
    }

    MetricRegistry& registry_;
    std::string prefix_;
};

/**
 * Fixed-column table writer for paper-style result rows.
 *
 * Usage:
 *   TableWriter t({"workload", "perf", "power"});
 *   t.AddRow({"Synthetic", "1.00", "0.52"});
 *   t.Print(std::cout);
 */
class TableWriter
{
  public:
    explicit TableWriter(std::vector<std::string> headers);

    void AddRow(std::vector<std::string> cells);
    void Print(std::ostream& os) const;

    /** Formats a double with fixed precision. */
    static std::string Num(double v, int precision = 3);

    /** Formats a double as the shortest text that parses back to
     *  exactly `v` (trace samples a BenchJson table must not round). */
    static std::string Exact(double v);

    /** Formats a 64-bit fingerprint as "0x" + lowercase hex (BenchJson
     *  keeps such cells as exact strings). */
    static std::string Hex(std::uint64_t v);

    const std::vector<std::string>& headers() const { return headers_; }
    const std::vector<std::vector<std::string>>& rows() const
    {
        return rows_;
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Machine-readable companion of a bench binary's human output.
 *
 * Each bench registers the tables it prints (and, optionally, a metric
 * registry) and then writes BENCH_<name>.json next to the binary's
 * working directory, so per-figure data is diffable across commits:
 *
 *   TableWriter table(...);           // printed for humans as before
 *   BenchJson json("fig6_harvest_safeguards");
 *   json.AddTable("results", table);
 *   json.WriteFile();                 // -> BENCH_fig6_harvest_safeguards.json
 *
 * Numeric-looking cells are emitted as JSON numbers so downstream
 * tooling can chart them without re-parsing strings. The output
 * directory can be overridden with the SOL_BENCH_JSON_DIR environment
 * variable; setting it to "-" disables file output.
 */
class BenchJson
{
  public:
    explicit BenchJson(std::string bench_name);

    /** Registers a printed table under a section name. */
    void AddTable(const std::string& section, const TableWriter& table);

    /** Registers a whole metric registry under a section name. */
    void AddMetrics(const std::string& section,
                    const MetricRegistry& registry);

    /** Serializes all registered sections as one JSON document. */
    void Write(std::ostream& os) const;

    /**
     * Writes BENCH_<name>.json and prints a one-line confirmation.
     *
     * @return false if the file could not be opened (the bench's human
     *   output is unaffected).
     */
    bool WriteFile() const;

  private:
    struct Section {
        std::string name;
        bool is_table = false;
        // Copied snapshots, so callers may discard the originals.
        std::vector<std::string> headers;
        std::vector<std::vector<std::string>> rows;
        MetricRegistry metrics;
    };

    std::string bench_name_;
    std::vector<Section> sections_;
};

}  // namespace sol::telemetry
