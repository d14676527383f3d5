/**
 * @file
 * Tests for the telemetry substrate: online stats, window percentiles,
 * metric registry, and table rendering.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/alerting.h"
#include "telemetry/json_escape.h"
#include "telemetry/latency_histogram.h"
#include "telemetry/metric_registry.h"
#include "telemetry/online_stats.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"
#include "telemetry/window_percentile.h"

namespace sol::telemetry {
namespace {

using sim::Millis;
using sim::Seconds;
using sim::TimePoint;

// ---------------------------------------------------------------------------
// OnlineStats
// ---------------------------------------------------------------------------

TEST(OnlineStatsTest, EmptyIsZero)
{
    OnlineStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.min(), 0.0);
    EXPECT_DOUBLE_EQ(stats.max(), 0.0);
}

TEST(OnlineStatsTest, SingleValue)
{
    OnlineStats stats;
    stats.Add(5.0);
    EXPECT_EQ(stats.count(), 1u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.min(), 5.0);
    EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(OnlineStatsTest, MatchesClosedForm)
{
    OnlineStats stats;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        stats.Add(x);
    }
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    // Sample variance with n-1 = 7: sum of squares = 32 -> 32/7.
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(OnlineStatsTest, NegativeValues)
{
    OnlineStats stats;
    stats.Add(-3.0);
    stats.Add(3.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.min(), -3.0);
    EXPECT_DOUBLE_EQ(stats.max(), 3.0);
}

TEST(OnlineStatsTest, ResetClears)
{
    OnlineStats stats;
    stats.Add(1.0);
    stats.Add(2.0);
    stats.Reset();
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// Ewma
// ---------------------------------------------------------------------------

TEST(EwmaTest, SeedsWithFirstValue)
{
    Ewma ewma(0.1);
    EXPECT_TRUE(ewma.empty());
    ewma.Add(10.0);
    EXPECT_FALSE(ewma.empty());
    EXPECT_DOUBLE_EQ(ewma.value(), 10.0);
}

TEST(EwmaTest, ConvergesToConstant)
{
    Ewma ewma(0.3);
    ewma.Add(0.0);
    for (int i = 0; i < 100; ++i) {
        ewma.Add(8.0);
    }
    EXPECT_NEAR(ewma.value(), 8.0, 1e-6);
}

TEST(EwmaTest, AlphaOneTracksExactly)
{
    Ewma ewma(1.0);
    ewma.Add(1.0);
    ewma.Add(42.0);
    EXPECT_DOUBLE_EQ(ewma.value(), 42.0);
}

TEST(EwmaTest, ResetForgets)
{
    Ewma ewma(0.5);
    ewma.Add(100.0);
    ewma.Reset();
    EXPECT_TRUE(ewma.empty());
    ewma.Add(1.0);
    EXPECT_DOUBLE_EQ(ewma.value(), 1.0);
}

// ---------------------------------------------------------------------------
// SlidingWindow
// ---------------------------------------------------------------------------

TEST(SlidingWindowTest, FillsToCapacity)
{
    SlidingWindow window(3);
    window.Add(1.0);
    window.Add(2.0);
    EXPECT_FALSE(window.full());
    window.Add(3.0);
    EXPECT_TRUE(window.full());
    EXPECT_DOUBLE_EQ(window.Mean(), 2.0);
}

TEST(SlidingWindowTest, EvictsOldest)
{
    SlidingWindow window(3);
    for (const double x : {1.0, 2.0, 3.0, 10.0}) {
        window.Add(x);
    }
    EXPECT_DOUBLE_EQ(window.Mean(), 5.0);  // {10, 2, 3}.
}

TEST(SlidingWindowTest, QuantileNearestRank)
{
    SlidingWindow window(5);
    for (const double x : {5.0, 1.0, 4.0, 2.0, 3.0}) {
        window.Add(x);
    }
    EXPECT_DOUBLE_EQ(window.Quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(window.Quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(window.Quantile(1.0), 5.0);
}

TEST(SlidingWindowTest, EmptyQuantileIsZero)
{
    SlidingWindow window(4);
    EXPECT_DOUBLE_EQ(window.Quantile(0.9), 0.0);
    EXPECT_DOUBLE_EQ(window.Mean(), 0.0);
}

// ---------------------------------------------------------------------------
// WindowPercentile
// ---------------------------------------------------------------------------

TEST(WindowPercentileTest, QuantileOverWindow)
{
    WindowPercentile wp(Seconds(10));
    for (int i = 1; i <= 10; ++i) {
        wp.Add(Seconds(i), static_cast<double>(i));
    }
    EXPECT_DOUBLE_EQ(wp.Quantile(Seconds(10), 1.0), 10.0);
    EXPECT_DOUBLE_EQ(wp.Quantile(Seconds(10), 0.0), 1.0);
}

TEST(WindowPercentileTest, OldSamplesEvicted)
{
    WindowPercentile wp(Seconds(5));
    wp.Add(Seconds(0), 100.0);
    wp.Add(Seconds(8), 1.0);
    // At t=10 the window is (5, 10]; the t=0 sample is gone.
    EXPECT_DOUBLE_EQ(wp.Quantile(Seconds(10), 1.0), 1.0);
    EXPECT_EQ(wp.Count(Seconds(10)), 1u);
}

TEST(WindowPercentileTest, P90OfMixedSamples)
{
    WindowPercentile wp(Seconds(100));
    // 95 low samples and 5 high ones: P90 should stay low.
    for (int i = 0; i < 95; ++i) {
        wp.Add(Millis(i * 100), 0.01);
    }
    for (int i = 95; i < 100; ++i) {
        wp.Add(Millis(i * 100), 0.99);
    }
    EXPECT_LT(wp.Quantile(Seconds(10), 0.9), 0.5);
    // 20 high samples tip the P90 over.
    for (int i = 100; i < 120; ++i) {
        wp.Add(Millis(i * 100), 0.99);
    }
    EXPECT_GT(wp.Quantile(Seconds(12), 0.9), 0.5);
}

TEST(WindowPercentileTest, EmptyReturnsZero)
{
    WindowPercentile wp(Seconds(1));
    EXPECT_DOUBLE_EQ(wp.Quantile(Seconds(5), 0.9), 0.0);
}

TEST(WindowPercentileTest, ResetClears)
{
    WindowPercentile wp(Seconds(10));
    wp.Add(Seconds(1), 5.0);
    wp.Reset();
    EXPECT_EQ(wp.Count(Seconds(1)), 0u);
}

// ---------------------------------------------------------------------------
// MetricRegistry and TableWriter
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, CountersAccumulate)
{
    // A publisher flushes its absolute tally (a re-flush is
    // idempotent); merging registries adds tallies up.
    MetricRegistry node;
    node.SetCounter("a", 1);
    node.SetCounter("a", 5);
    EXPECT_EQ(node.Counter("a"), 5u);

    MetricRegistry fleet;
    fleet.MergeFrom(node, "");
    fleet.MergeFrom(node, "");
    EXPECT_EQ(fleet.Counter("a"), 10u);
    // An unknown name reads as zero and is not materialized.
    EXPECT_EQ(fleet.Counter("missing"), 0u);
    EXPECT_EQ(fleet.counters().count("missing"), 0u);
}

TEST(MetricRegistryTest, GaugesOverwrite)
{
    MetricRegistry registry;
    registry.SetGauge("g", 1.5);
    registry.SetGauge("g", 2.5);
    EXPECT_DOUBLE_EQ(registry.Gauge("g"), 2.5);
    EXPECT_DOUBLE_EQ(registry.Gauge("missing"), 0.0);
    EXPECT_EQ(registry.gauges().count("missing"), 0u);
}

TEST(TableWriterTest, RejectsMismatchedRow)
{
    TableWriter table({"a", "b"});
    EXPECT_THROW(table.AddRow({"only-one"}), std::invalid_argument);
}

TEST(TableWriterTest, RendersAlignedColumns)
{
    TableWriter table({"name", "value"});
    table.AddRow({"x", "1"});
    table.AddRow({"longer-name", "2"});
    std::ostringstream out;
    table.Print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("longer-name"), std::string::npos);
    EXPECT_NE(text.find("name"), std::string::npos);
    // Header separator present.
    EXPECT_NE(text.find("|--"), std::string::npos);
}

TEST(TableWriterTest, NumFormatsPrecision)
{
    EXPECT_EQ(TableWriter::Num(1.23456, 2), "1.23");
    EXPECT_EQ(TableWriter::Num(2.0, 0), "2");
}

TEST(TableWriterTest, ExactRoundTrips)
{
    EXPECT_EQ(TableWriter::Exact(2.0), "2");
    EXPECT_EQ(TableWriter::Exact(0.1), "0.1");
    const double third = 1.0 / 3.0;
    EXPECT_EQ(std::stod(TableWriter::Exact(third)), third);
}

TEST(TableWriterTest, HexKeepsFingerprintsExact)
{
    EXPECT_EQ(TableWriter::Hex(0), "0x0");
    EXPECT_EQ(TableWriter::Hex(0xaf63dc4c8601ec8cull),
              "0xaf63dc4c8601ec8c");
    // BenchJson keeps a hex cell as a string: a double would round it.
    TableWriter table({"hash"});
    table.AddRow({TableWriter::Hex(0xffffffffffffffffull)});
    BenchJson json("hex");
    json.AddTable("t", table);
    std::ostringstream out;
    json.Write(out);
    EXPECT_NE(out.str().find("[\"0xffffffffffffffff\"]"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// MetricScope namespacing and registry merging (multi-agent accounting)
// ---------------------------------------------------------------------------

TEST(MetricScopeTest, PrefixesEveryMetricKind)
{
    MetricRegistry registry;
    MetricScope scope(registry, "node0");
    scope.SetCounter("epochs", 3);
    scope.SetGauge("p99", 1.5);
    LatencyHistogram epoch_ns;
    epoch_ns.Record(7);
    scope.SetHistogram("epoch_ns", epoch_ns);

    EXPECT_EQ(registry.Counter("node0.epochs"), 3u);
    EXPECT_EQ(registry.Gauge("node0.p99"), 1.5);
    EXPECT_EQ(registry.Histogram("node0.epoch_ns").count(), 1u);
    EXPECT_EQ(scope.Counter("epochs"), 3u);
    EXPECT_EQ(scope.Gauge("p99"), 1.5);
}

TEST(MetricScopeTest, SubScopesNest)
{
    MetricRegistry registry;
    MetricScope agent = MetricScope(registry, "node1").Sub("harvest");
    agent.SetCounter("denied", 1);
    EXPECT_EQ(registry.Counter("node1.harvest.denied"), 1u);
}

TEST(MetricRegistryTest, MergeFromNamespacesAndAccumulates)
{
    MetricRegistry node;
    node.SetCounter("epochs", 5);
    node.SetGauge("p99", 2.0);

    MetricRegistry fleet;
    fleet.MergeFrom(node, "node3");
    fleet.MergeFrom(node, "node3");  // Counters accumulate on re-merge.
    EXPECT_EQ(fleet.Counter("node3.epochs"), 10u);
    EXPECT_EQ(fleet.Gauge("node3.p99"), 2.0);
}

// ---------------------------------------------------------------------------
// JSON output (the machine-readable bench companion)
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, WriteJsonEmitsAllMetricKinds)
{
    MetricRegistry registry;
    registry.SetCounter("runs", 2);
    registry.SetGauge("speedup", 1.25);
    std::ostringstream out;
    registry.WriteJson(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"runs\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"speedup\": 1.25"), std::string::npos);
    EXPECT_NE(json.find("\"histograms\": {"), std::string::npos);
}

TEST(BenchJsonTest, TablesSerializeWithNumericCells)
{
    TableWriter table({"workload", "perf"});
    table.AddRow({"image-dnn", "1.250"});
    table.AddRow({"moses", "n/a"});

    BenchJson json("fig_test");
    json.AddTable("results", table);
    std::ostringstream out;
    json.Write(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("\"bench\": \"fig_test\""), std::string::npos);
    EXPECT_NE(text.find("\"headers\": [\"workload\",\"perf\"]"),
              std::string::npos);
    // Numeric-looking cells become JSON numbers, others stay strings.
    EXPECT_NE(text.find("[\"image-dnn\",1.25]"), std::string::npos);
    EXPECT_NE(text.find("[\"moses\",\"n/a\"]"), std::string::npos);
}

TEST(BenchJsonTest, MetricsSectionsEmbedRegistries)
{
    MetricRegistry registry;
    registry.SetCounter("conflicts", 4);
    BenchJson json("fig_test");
    json.AddMetrics("fleet", registry);
    std::ostringstream out;
    json.Write(out);
    EXPECT_NE(out.str().find("\"conflicts\": 4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, EmptySnapshotIsZero)
{
    LatencyHistogram hist;
    EXPECT_TRUE(hist.empty());
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.min_ns(), 0u);
    EXPECT_EQ(hist.max_ns(), 0u);
    const LatencySnapshot snap = hist.Snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.p50_ns, 0u);
    EXPECT_EQ(snap.p999_ns, 0u);
}

TEST(LatencyHistogramTest, SmallValuesAreExact)
{
    // Values below the sub-bucket count land in unit-wide buckets.
    LatencyHistogram hist;
    for (std::uint64_t v = 0; v < 8; ++v) {
        hist.Record(v);
    }
    EXPECT_EQ(hist.count(), 8u);
    EXPECT_EQ(hist.min_ns(), 0u);
    EXPECT_EQ(hist.max_ns(), 7u);
    EXPECT_EQ(hist.ValueAtPercentile(1.0), 0u);
    EXPECT_EQ(hist.ValueAtPercentile(100.0), 7u);
}

TEST(LatencyHistogramTest, PercentilesWithinBucketError)
{
    // Log-bucketed with 8 sub-buckets: relative error <= 1/8 per value.
    LatencyHistogram hist;
    for (std::uint64_t v = 1; v <= 10'000; ++v) {
        hist.Record(v);
    }
    const std::uint64_t p50 = hist.ValueAtPercentile(50.0);
    EXPECT_GE(p50, 4'400u);
    EXPECT_LE(p50, 5'650u);
    const std::uint64_t p99 = hist.ValueAtPercentile(99.0);
    EXPECT_GE(p99, 8'700u);
    EXPECT_LE(p99, 10'000u);  // Clamped to the observed max.
    const std::uint64_t p100 = hist.ValueAtPercentile(100.0);
    EXPECT_GE(p100, 8'750u);  // Top bucket's representative...
    EXPECT_LE(p100, 10'000u);  // ...never above the observed max.
}

TEST(LatencyHistogramTest, PercentileClampedToObservedRange)
{
    LatencyHistogram hist;
    hist.Record(1'000'000);
    // A single sample: every percentile is that sample, not a bucket
    // representative above or below it.
    EXPECT_EQ(hist.ValueAtPercentile(0.0), 1'000'000u);
    EXPECT_EQ(hist.ValueAtPercentile(50.0), 1'000'000u);
    EXPECT_EQ(hist.ValueAtPercentile(99.9), 1'000'000u);
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording)
{
    LatencyHistogram a;
    LatencyHistogram b;
    LatencyHistogram combined;
    for (std::uint64_t v = 1; v <= 500; ++v) {
        a.Record(v * 3);
        combined.Record(v * 3);
    }
    for (std::uint64_t v = 1; v <= 500; ++v) {
        b.Record(v * 7'919);
        combined.Record(v * 7'919);
    }
    a.Merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.sum_ns(), combined.sum_ns());
    EXPECT_EQ(a.min_ns(), combined.min_ns());
    EXPECT_EQ(a.max_ns(), combined.max_ns());
    for (const double p : {50.0, 90.0, 99.0, 99.9}) {
        EXPECT_EQ(a.ValueAtPercentile(p), combined.ValueAtPercentile(p));
    }
}

TEST(LatencyHistogramTest, ResetClears)
{
    LatencyHistogram hist;
    hist.Record(42);
    hist.Reset();
    EXPECT_TRUE(hist.empty());
    EXPECT_EQ(hist.ValueAtPercentile(50.0), 0u);
}

TEST(SharedLatencyHistogramTest, RecordsThroughTheLock)
{
    SharedLatencyHistogram shared;
    shared.Record(100);
    shared.Record(200);
    const LatencyHistogram copy = shared.Histogram();
    EXPECT_EQ(copy.count(), 2u);
    EXPECT_EQ(copy.sum_ns(), 300u);
    shared.Reset();
    EXPECT_TRUE(shared.Histogram().empty());
}

// ---------------------------------------------------------------------------
// MetricRegistry: histograms + the unknown-name contract
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, HistogramsRecordMergeAndSnapshot)
{
    LatencyHistogram recorded;
    recorded.Record(1'000);
    recorded.Record(3'000);
    MetricRegistry registry;
    registry.SetHistogram("epoch_ns", recorded);
    EXPECT_EQ(registry.Histogram("epoch_ns").count(), 2u);
    EXPECT_EQ(registry.Histogram("epoch_ns").Snapshot().max_ns,
              recorded.Snapshot().max_ns);
    // An unknown name reads as empty and is not materialized.
    EXPECT_TRUE(registry.Histogram("absent").empty());
    EXPECT_EQ(registry.histograms().count("absent"), 0u);

    // SetHistogram overwrites (the idempotent-flush idiom).
    LatencyHistogram more;
    more.Record(5'000);
    registry.SetHistogram("epoch_ns", more);
    EXPECT_EQ(registry.Histogram("epoch_ns").count(), 1u);
}

TEST(MetricRegistryTest, WriteJsonEmitsHistogramPercentiles)
{
    LatencyHistogram admit;
    for (std::uint64_t v = 1; v <= 100; ++v) {
        admit.Record(v * 1'000);
    }
    MetricRegistry registry;
    registry.SetHistogram("admit_ns", admit);
    std::ostringstream out;
    registry.WriteJson(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"admit_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"p50_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
}

TEST(MetricRegistryTest, MergeFromMergesHistogramsBucketwise)
{
    LatencyHistogram node_epochs;
    node_epochs.Record(2'000);
    MetricRegistry node;
    node.SetHistogram("epoch_ns", node_epochs);
    LatencyHistogram fleet_epochs;
    fleet_epochs.Record(1'000);
    MetricRegistry fleet;
    fleet.SetHistogram("node0.epoch_ns", fleet_epochs);
    fleet.MergeFrom(node, "node0");
    EXPECT_EQ(fleet.Histogram("node0.epoch_ns").count(), 2u);
    EXPECT_EQ(fleet.Histogram("node0.epoch_ns").sum_ns(), 3'000u);
}

TEST(MetricScopeTest, HistogramCallsPrefix)
{
    MetricRegistry registry;
    MetricScope scope(registry, "arbiter");
    LatencyHistogram first;
    first.Record(500);
    scope.SetHistogram("lock_wait_ns", first);
    EXPECT_EQ(registry.Histogram("arbiter.lock_wait_ns").count(), 1u);
    LatencyHistogram replacement;
    replacement.Record(1);
    replacement.Record(2);
    scope.SetHistogram("lock_wait_ns", replacement);
    EXPECT_EQ(registry.Histogram("arbiter.lock_wait_ns").count(), 2u);
    EXPECT_EQ(registry.histograms().size(), 1u);
}

// ---------------------------------------------------------------------------
// OnlineStats::Merge (Chan et al. parallel combination)
// ---------------------------------------------------------------------------

TEST(OnlineStatsMergeTest, MergeMatchesSequentialAccumulation)
{
    OnlineStats left;
    OnlineStats right;
    OnlineStats sequential;
    for (int i = 0; i < 50; ++i) {
        const double x = 3.5 * i - 40.0;
        left.Add(x);
        sequential.Add(x);
    }
    for (int i = 0; i < 37; ++i) {
        const double x = -0.25 * i * i + 7.0;
        right.Add(x);
        sequential.Add(x);
    }

    left.Merge(right);
    EXPECT_EQ(left.count(), sequential.count());
    EXPECT_NEAR(left.mean(), sequential.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), sequential.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(left.min(), sequential.min());
    EXPECT_DOUBLE_EQ(left.max(), sequential.max());
    EXPECT_NEAR(left.sum(), sequential.sum(), 1e-9);
}

TEST(OnlineStatsMergeTest, MergingEmptyIsIdentityBothWays)
{
    OnlineStats stats;
    stats.Add(1.0);
    stats.Add(3.0);

    OnlineStats empty;
    stats.Merge(empty);  // Right identity.
    EXPECT_EQ(stats.count(), 2u);
    EXPECT_DOUBLE_EQ(stats.mean(), 2.0);

    OnlineStats target;
    target.Merge(stats);  // Left identity: adopt other's state.
    EXPECT_EQ(target.count(), 2u);
    EXPECT_DOUBLE_EQ(target.mean(), 2.0);
    EXPECT_DOUBLE_EQ(target.min(), 1.0);
    EXPECT_DOUBLE_EQ(target.max(), 3.0);

    OnlineStats a;
    OnlineStats b;
    a.Merge(b);  // Empty + empty stays empty.
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(OnlineStatsMergeTest, DistantMeansStayNumericallyStable)
{
    // The naive sum-of-squares formulation loses catastrophically when
    // two shards observe well-separated clusters; Chan's delta term
    // must not.
    OnlineStats low;
    OnlineStats high;
    OnlineStats sequential;
    for (int i = 0; i < 100; ++i) {
        low.Add(1e6 + i);
        sequential.Add(1e6 + i);
    }
    for (int i = 0; i < 100; ++i) {
        high.Add(-1e6 + i);
        sequential.Add(-1e6 + i);
    }
    low.Merge(high);
    EXPECT_NEAR(low.variance(), sequential.variance(),
                sequential.variance() * 1e-9);
}

// ---------------------------------------------------------------------------
// WindowPercentile edge cases
// ---------------------------------------------------------------------------

TEST(WindowPercentileTest, SingleSampleAnswersEveryQuantile)
{
    WindowPercentile tracker(Seconds(1));
    tracker.Add(TimePoint(Millis(100)), 42.0);
    EXPECT_DOUBLE_EQ(tracker.Quantile(TimePoint(Millis(100)), 0.0), 42.0);
    EXPECT_DOUBLE_EQ(tracker.Quantile(TimePoint(Millis(100)), 0.5), 42.0);
    EXPECT_DOUBLE_EQ(tracker.Quantile(TimePoint(Millis(100)), 1.0), 42.0);
    EXPECT_EQ(tracker.Count(TimePoint(Millis(100))), 1u);
}

TEST(WindowPercentileTest, EvictionBoundaryIsExclusive)
{
    // The window is (now - window, now]: a sample exactly `window` old
    // is evicted, one nanosecond younger survives.
    WindowPercentile tracker(Millis(100));
    tracker.Add(TimePoint(Millis(100)), 1.0);
    EXPECT_EQ(tracker.Count(TimePoint(Millis(200))), 1u);
    EXPECT_EQ(tracker.Count(TimePoint(Millis(200)) + sim::Duration(1)), 0u);
}

TEST(WindowPercentileTest, CountEvictsBeforeCounting)
{
    WindowPercentile tracker(Millis(100));
    for (int i = 0; i < 10; ++i) {
        tracker.Add(TimePoint(Millis(10 * i)), i);
    }
    // At 250ms only samples newer than 150ms remain: 160..190ms.
    EXPECT_EQ(tracker.Count(TimePoint(Millis(250))), 0u);
    tracker.Reset();
    for (int i = 0; i < 10; ++i) {
        tracker.Add(TimePoint(Millis(10 * i)), i);
    }
    EXPECT_EQ(tracker.Count(TimePoint(Millis(150))), 5u);
}

TEST(WindowPercentileTest, ExtremeValuesSurviveQuantiles)
{
    WindowPercentile tracker(Seconds(10));
    const double huge = 1e300;
    tracker.Add(TimePoint(Millis(1)), -huge);
    tracker.Add(TimePoint(Millis(2)), 0.0);
    tracker.Add(TimePoint(Millis(3)), huge);
    EXPECT_DOUBLE_EQ(tracker.Quantile(TimePoint(Millis(3)), 0.0), -huge);
    EXPECT_DOUBLE_EQ(tracker.Quantile(TimePoint(Millis(3)), 0.5), 0.0);
    EXPECT_DOUBLE_EQ(tracker.Quantile(TimePoint(Millis(3)), 1.0), huge);
}

// ---------------------------------------------------------------------------
// Registry read accessors
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, ReadAccessorsWalkNameOrdered)
{
    MetricRegistry registry;
    registry.SetCounter("b.count", 2);
    registry.SetCounter("a.count", 1);
    registry.SetGauge("z.load", 0.5);
    LatencyHistogram hist;
    hist.Record(100);
    registry.SetHistogram("m.latency", hist);

    std::vector<std::string> counters;
    for (const auto& [name, value] : registry.counters()) {
        counters.push_back(name + "=" + std::to_string(value));
    }
    ASSERT_EQ(counters.size(), 2u);
    EXPECT_EQ(counters[0], "a.count=1");
    EXPECT_EQ(counters[1], "b.count=2");

    ASSERT_EQ(registry.gauges().size(), 1u);
    EXPECT_EQ(registry.gauges().begin()->first, "z.load");
    EXPECT_DOUBLE_EQ(registry.gauges().begin()->second, 0.5);

    ASSERT_EQ(registry.histograms().size(), 1u);
    EXPECT_EQ(registry.histograms().begin()->first, "m.latency");
    EXPECT_EQ(registry.histograms().begin()->second.count(), 1u);
}

// ---------------------------------------------------------------------------
// JSON string escaping, shared by every writer
// ---------------------------------------------------------------------------

TEST(JsonEscapeTest, EveryWriterEscapesANameIdentically)
{
    const std::string name = "q\"b\\n\nr\rt\tc\x01.";
    const std::string escaped = R"(q\"b\\n\nr\rt\tc\u0001.)";

    std::ostringstream bench;
    BenchJson(name).Write(bench);
    EXPECT_NE(bench.str().find("\"bench\": \"" + escaped + "\""),
              std::string::npos)
        << bench.str();

    const std::string health =
        HealthReportWriter::ToString(name, TimeSeriesStore(), AlertEngine());
    EXPECT_NE(health.find("\"health\": \"" + escaped + "\""),
              std::string::npos)
        << health;

    trace::TraceSession session;
    session.NewRecorder(name, nullptr);
    const std::string chrome = trace::ChromeTraceWriter::ToString(session);
    EXPECT_NE(chrome.find("\"args\":{\"name\":\"" + escaped + "\"}"),
              std::string::npos)
        << chrome;
}

// ---------------------------------------------------------------------------
// Artifact files: one rule for BENCH_, HEALTH_ and TRACE_ JSONs
// ---------------------------------------------------------------------------

std::string
ReadWhole(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(ArtifactFileTest, EveryWriterLandsInTheBenchJsonDirOrNowhere)
{
    std::string dir = ::testing::TempDir();
    if (dir.back() != '/') {
        dir += '/';
    }
    ASSERT_EQ(setenv("SOL_BENCH_JSON_DIR", dir.c_str(), 1), 0);
    const std::string bench = dir + "BENCH_artifact_test.json";
    const std::string health = dir + "HEALTH_artifact_test.json";
    const std::string chrome = dir + "TRACE_artifact_test.json";

    EXPECT_TRUE(BenchJson("artifact_test").WriteFile());
    EXPECT_NE(ReadWhole(bench).find("\"bench\""), std::string::npos);
    EXPECT_TRUE(HealthReportWriter::WriteFile("artifact_test", "{}"));
    EXPECT_EQ(ReadWhole(health), "{}");
    trace::TraceSession session;
    EXPECT_TRUE(
        trace::ChromeTraceWriter::WriteFile(session, "artifact_test"));
    EXPECT_NE(ReadWhole(chrome).find("traceEvents"), std::string::npos);
    EXPECT_EQ(WriteArtifactFile("BENCH_artifact_test.json", "{}"), bench);
    for (const std::string& path : {bench, health, chrome}) {
        std::remove(path.c_str());
    }

    // "-" disables every artifact, and each writer reports that nothing
    // was written.
    ASSERT_EQ(setenv("SOL_BENCH_JSON_DIR", "-", 1), 0);
    EXPECT_EQ(WriteArtifactFile("BENCH_artifact_test.json", "{}"), "");
    EXPECT_FALSE(BenchJson("artifact_test").WriteFile());
    EXPECT_FALSE(HealthReportWriter::WriteFile("artifact_test", "{}"));
    EXPECT_FALSE(
        trace::ChromeTraceWriter::WriteFile(session, "artifact_test"));
    unsetenv("SOL_BENCH_JSON_DIR");
}

}  // namespace
}  // namespace sol::telemetry
