/**
 * @file
 * Deterministic fleet health timelines: TimeSeries ring semantics,
 * AlertEngine rule evaluation, health reports, and the fleet's
 * window-barrier sampler.
 *
 * The load-bearing properties, in test order:
 *   1. TimeSeries — ring keeps the tail, queries refuse partial
 *      windows instead of extrapolating.
 *   2. TimeSeriesStore — name-ordered visitation and a timeline
 *      fingerprint that equal timelines share.
 *   3. AlertEngine — threshold/rate/burn conditions, hold timers,
 *      firing/resolved edges with observed values, SLO budgets.
 *   4. Health report — the serialized timeline, alert log and SLOs.
 *   5. Fleet integration — window-barrier sampling is byte-identical
 *      across repeat runs and 1/2/8 worker threads, observe-only
 *      (enabling it leaves the fleet trace hash untouched), and takes
 *      exactly one sample per series per barrier (the TSan leg repeats
 *      FleetHealth tests 20x).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet_runner.h"
#include "telemetry/alerting.h"
#include "telemetry/timeseries.h"

namespace sol::telemetry {
namespace {

sim::TimePoint
Ms(std::int64_t ms)
{
    return sim::TimePoint(sim::Millis(ms));
}

// ---- TimeSeries ring ----------------------------------------------------

TEST(TimeSeries, AppendsInOrderAndReportsLatest)
{
    TimeSeries series(8);
    EXPECT_TRUE(series.empty());
    series.Append(Ms(100), 5);
    series.Append(Ms(200), 7);
    series.Append(Ms(200), 9);  // Equal timestamps are legal.
    ASSERT_EQ(series.size(), 3u);
    EXPECT_EQ(series.at(0).value, 5);
    EXPECT_EQ(series.at(2).value, 9);
    EXPECT_EQ(series.Latest().at, Ms(200));
    EXPECT_EQ(series.Latest().value, 9);
    EXPECT_EQ(series.total_appended(), 3u);
}

TEST(TimeSeries, RingEvictsOldestAndKeepsTail)
{
    TimeSeries series(4);
    for (int i = 0; i < 10; ++i) {
        series.Append(Ms(100 * (i + 1)), i);
    }
    ASSERT_EQ(series.size(), 4u);
    EXPECT_EQ(series.capacity(), 4u);
    EXPECT_EQ(series.total_appended(), 10u);
    // Retained samples are the most recent four, oldest first.
    EXPECT_EQ(series.at(0).value, 6);
    EXPECT_EQ(series.at(3).value, 9);
}

TEST(TimeSeries, ValueAtResolvesLatestSampleAtOrBefore)
{
    TimeSeries series(8);
    series.Append(Ms(100), 1);
    series.Append(Ms(300), 3);
    std::int64_t value = -1;
    EXPECT_FALSE(series.ValueAt(Ms(50), &value));  // Before first.
    EXPECT_TRUE(series.ValueAt(Ms(100), &value));
    EXPECT_EQ(value, 1);
    EXPECT_TRUE(series.ValueAt(Ms(200), &value));  // Holds prior value.
    EXPECT_EQ(value, 1);
    EXPECT_TRUE(series.ValueAt(Ms(999), &value));
    EXPECT_EQ(value, 3);
}

TEST(TimeSeries, DeltaOverRefusesPartialWindows)
{
    TimeSeries series(8);
    series.Append(Ms(100), 10);
    series.Append(Ms(600), 25);
    std::int64_t delta = 0;
    // Window start (t - lookback) predates the first sample: refuse.
    EXPECT_FALSE(series.DeltaOver(Ms(400), sim::Millis(500), &delta));
    EXPECT_TRUE(series.DeltaOver(Ms(600), sim::Millis(500), &delta));
    EXPECT_EQ(delta, 15);
}

TEST(TimeSeries, DeltaOverRefusesEvictedWindowStart)
{
    TimeSeries series(2);
    series.Append(Ms(100), 1);
    series.Append(Ms(200), 2);
    series.Append(Ms(300), 3);  // Evicts the 100ms sample.
    std::int64_t delta = 0;
    EXPECT_FALSE(series.DeltaOver(Ms(300), sim::Millis(200), &delta));
    EXPECT_TRUE(series.DeltaOver(Ms(300), sim::Millis(100), &delta));
    EXPECT_EQ(delta, 1);
}

// ---- TimeSeriesStore ----------------------------------------------------

TEST(TimeSeriesStore, FindNeverInsertsAndVisitIsNameOrdered)
{
    TimeSeriesStore store;
    store.Append("b.two", Ms(100), 2);
    store.Append("a.one", Ms(100), 1);
    EXPECT_EQ(store.Find("missing"), nullptr);
    EXPECT_EQ(store.num_series(), 2u);

    std::vector<std::string> order;
    store.VisitSeries([&](const std::string& name, const TimeSeries&) {
        order.push_back(name);
    });
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "a.one");
    EXPECT_EQ(order[1], "b.two");
    EXPECT_EQ(store.total_appended(), 2u);
}

TEST(TimeSeriesStore, TimelineHashFingerprintsContent)
{
    TimeSeriesStore a;
    TimeSeriesStore b;
    a.Append("x", Ms(100), 1);
    b.Append("x", Ms(100), 1);
    EXPECT_EQ(a.timeline_hash(), b.timeline_hash());

    b.Append("x", Ms(200), 2);
    EXPECT_NE(a.timeline_hash(), b.timeline_hash());

    a.Append("x", Ms(200), 3);  // Same shape, different value.
    EXPECT_NE(a.timeline_hash(), b.timeline_hash());

    a.Clear();
    EXPECT_EQ(a.num_series(), 0u);
}

// ---- AlertEngine --------------------------------------------------------

AlertRule
ThresholdRule(const std::string& series, std::int64_t bound)
{
    AlertRule rule;
    rule.name = series + "_high";
    rule.kind = AlertKind::kThreshold;
    rule.series = series;
    rule.threshold = bound;
    return rule;
}

TEST(AlertEngine, ThresholdFiresAndResolvesWithValues)
{
    TimeSeriesStore store;
    AlertEngine engine;
    engine.AddRule(ThresholdRule("p99", 100));

    store.Append("p99", Ms(100), 50);
    engine.Evaluate(store, Ms(100));
    EXPECT_FALSE(engine.IsFiring("p99_high"));

    store.Append("p99", Ms(200), 150);
    engine.Evaluate(store, Ms(200));
    EXPECT_TRUE(engine.IsFiring("p99_high"));
    EXPECT_EQ(engine.FiringCount(), 1u);

    store.Append("p99", Ms(300), 80);
    engine.Evaluate(store, Ms(300));
    EXPECT_FALSE(engine.IsFiring("p99_high"));
    EXPECT_TRUE(engine.EverFired("p99_high"));

    ASSERT_EQ(engine.events().size(), 2u);
    EXPECT_EQ(engine.events()[0].at, Ms(200));
    EXPECT_TRUE(engine.events()[0].firing);
    EXPECT_EQ(engine.events()[0].value, 150);
    EXPECT_EQ(engine.events()[1].at, Ms(300));
    EXPECT_FALSE(engine.events()[1].firing);
    EXPECT_EQ(engine.events()[1].value, 80);
}

TEST(AlertEngine, FireBelowInvertsTheComparison)
{
    TimeSeriesStore store;
    AlertEngine engine;
    AlertRule rule = ThresholdRule("throughput", 10);
    rule.name = "throughput_low";
    rule.fire_above = false;
    engine.AddRule(rule);

    store.Append("throughput", Ms(100), 50);
    engine.Evaluate(store, Ms(100));
    EXPECT_FALSE(engine.IsFiring("throughput_low"));
    store.Append("throughput", Ms(200), 5);
    engine.Evaluate(store, Ms(200));
    EXPECT_TRUE(engine.IsFiring("throughput_low"));
}

TEST(AlertEngine, RateOfChangeRefusesPartialWindows)
{
    TimeSeriesStore store;
    AlertEngine engine;
    AlertRule rule;
    rule.name = "trip_rate";
    rule.kind = AlertKind::kRateOfChange;
    rule.series = "trips";
    rule.threshold = 5;
    rule.lookback = sim::Millis(200);
    engine.AddRule(rule);

    // One sample: the window start has no sample, so a huge absolute
    // value still cannot fire the rule.
    store.Append("trips", Ms(100), 1000);
    engine.Evaluate(store, Ms(100));
    EXPECT_FALSE(engine.IsFiring("trip_rate"));

    store.Append("trips", Ms(300), 1004);
    engine.Evaluate(store, Ms(300));
    EXPECT_FALSE(engine.IsFiring("trip_rate"));  // Delta 4 < 5.

    store.Append("trips", Ms(500), 1010);
    engine.Evaluate(store, Ms(500));
    EXPECT_TRUE(engine.IsFiring("trip_rate"));  // Delta 6 >= 5.
}

TEST(AlertEngine, HoldDelaysFiringUntilSustained)
{
    TimeSeriesStore store;
    AlertEngine engine;
    AlertRule rule = ThresholdRule("p99", 100);
    rule.hold = sim::Millis(250);
    engine.AddRule(rule);

    store.Append("p99", Ms(100), 150);
    engine.Evaluate(store, Ms(100));
    EXPECT_FALSE(engine.IsFiring("p99_high"));  // Hold running.

    store.Append("p99", Ms(200), 150);
    engine.Evaluate(store, Ms(200));
    EXPECT_FALSE(engine.IsFiring("p99_high"));  // 100ms < 250ms held.

    store.Append("p99", Ms(400), 150);
    engine.Evaluate(store, Ms(400));
    EXPECT_TRUE(engine.IsFiring("p99_high"));  // Held 300ms >= 250ms.

    // A single false observation resets the hold timer entirely.
    store.Append("p99", Ms(500), 50);
    engine.Evaluate(store, Ms(500));
    store.Append("p99", Ms(600), 150);
    engine.Evaluate(store, Ms(600));
    EXPECT_FALSE(engine.IsFiring("p99_high"));
}

TEST(AlertEngine, BurnRateComparesWindowedRatioAgainstBudget)
{
    TimeSeriesStore store;
    AlertEngine engine;
    AlertRule rule;
    rule.name = "invalid_burn";
    rule.kind = AlertKind::kBurnRate;
    rule.series = "invalid";
    rule.total_series = "total";
    rule.budget_ppm = 100'000;  // 10%.
    rule.burn_factor_milli = 2'000;  // Fire at >= 2x budget = 20%.
    rule.lookback = sim::Millis(200);
    engine.AddRule(rule);

    store.Append("invalid", Ms(100), 0);
    store.Append("total", Ms(100), 0);
    engine.Evaluate(store, Ms(100));

    // Window [100, 300]: 100 invalid of 1000 = 10% < 20%: silent.
    store.Append("invalid", Ms(300), 100);
    store.Append("total", Ms(300), 1000);
    engine.Evaluate(store, Ms(300));
    EXPECT_FALSE(engine.IsFiring("invalid_burn"));

    // Window [300, 500]: 300 more invalid of 1000 = 30% >= 20%: fire,
    // with the observed windowed ratio in ppm as the event value.
    store.Append("invalid", Ms(500), 400);
    store.Append("total", Ms(500), 2000);
    engine.Evaluate(store, Ms(500));
    EXPECT_TRUE(engine.IsFiring("invalid_burn"));
    ASSERT_FALSE(engine.events().empty());
    EXPECT_EQ(engine.events().back().value, 300'000);
}

TEST(AlertEngine, SloStatusesAccountWholeRunBudgets)
{
    TimeSeriesStore store;
    AlertEngine engine;
    AlertRule rule;
    rule.name = "invalid_burn";
    rule.kind = AlertKind::kBurnRate;
    rule.series = "invalid";
    rule.total_series = "total";
    rule.budget_ppm = 100'000;
    engine.AddRule(rule);
    engine.AddRule(ThresholdRule("p99", 1));  // Non-SLO: not reported.

    store.Append("invalid", Ms(100), 50);
    store.Append("total", Ms(100), 1000);
    const auto slos = engine.SloStatuses(store);
    ASSERT_EQ(slos.size(), 1u);
    EXPECT_EQ(slos[0].rule, "invalid_burn");
    EXPECT_EQ(slos[0].errors, 50);
    EXPECT_EQ(slos[0].total, 1000);
    EXPECT_EQ(slos[0].consumed_ppm, 50'000);
    EXPECT_EQ(slos[0].remaining_ppm, 50'000);
}

TEST(AlertEngine, RejectsMalformedRules)
{
    AlertEngine engine;
    AlertRule nameless;
    nameless.series = "x";
    EXPECT_THROW(engine.AddRule(nameless), std::invalid_argument);

    AlertRule seriesless;
    seriesless.name = "x";
    EXPECT_THROW(engine.AddRule(seriesless), std::invalid_argument);

    AlertRule burn;
    burn.name = "burn";
    burn.kind = AlertKind::kBurnRate;
    burn.series = "err";  // Missing total_series and budget.
    EXPECT_THROW(engine.AddRule(burn), std::invalid_argument);
}

TEST(AlertEngine, DefaultFleetPackIsWellFormed)
{
    const std::vector<AlertRule> pack = DefaultFleetAlertRules();
    EXPECT_GE(pack.size(), 7u);
    std::vector<std::string> names;
    for (const AlertRule& rule : pack) {
        EXPECT_FALSE(rule.name.empty());
        // Trace instants truncate string args beyond 23 bytes; every
        // pack rule name must survive the mirror whole.
        EXPECT_LE(rule.name.size(), 23u) << rule.name;
        EXPECT_FALSE(rule.series.empty()) << rule.name;
        if (rule.kind == AlertKind::kBurnRate) {
            EXPECT_FALSE(rule.total_series.empty()) << rule.name;
            EXPECT_GT(rule.budget_ppm, 0) << rule.name;
        }
        names.push_back(rule.name);
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
        << "duplicate rule names in the default pack";

    AlertEngine engine;
    engine.AddRules(pack);  // Must all pass AddRule validation.
    EXPECT_EQ(engine.num_rules(), pack.size());
}

// ---- Health report ------------------------------------------------------

TEST(HealthReportWriter, SerializesTimelineAlertsAndSlos)
{
    TimeSeriesStore store;
    AlertEngine engine;
    engine.AddRule(ThresholdRule("p99", 100));
    store.Append("p99", Ms(100), 150);
    engine.Evaluate(store, Ms(100));

    const std::string json =
        HealthReportWriter::ToString("unit", store, engine);
    EXPECT_NE(json.find("\"health\": \"unit\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"timeline_hash\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"p99_high\""), std::string::npos);
    EXPECT_NE(json.find("\"state\": \"firing\""), std::string::npos);

    // Deterministic: an identical store/engine serializes identically.
    TimeSeriesStore store2;
    AlertEngine engine2;
    engine2.AddRule(ThresholdRule("p99", 100));
    store2.Append("p99", Ms(100), 150);
    engine2.Evaluate(store2, Ms(100));
    EXPECT_EQ(json, HealthReportWriter::ToString("unit", store2, engine2));
}

// ---- Fleet integration --------------------------------------------------

fleet::FleetConfig
SmallFleet(TimeSeriesStore* health, AlertEngine* alerts)
{
    fleet::FleetConfig config;
    config.num_nodes = 4;
    config.num_shards = 4;
    config.num_threads = 1;
    config.base_seed = 7;
    config.window = sim::Millis(100);
    config.node.synthetic_agents = 2;
    config.health = health;
    config.alerts = alerts;
    return config;
}

struct FleetHealthRun {
    std::uint64_t trace_hash = 0;
    std::uint64_t executed = 0;
    std::uint64_t timeline_hash = 0;
    std::uint64_t samples = 0;
    std::vector<AlertEvent> alerts;
};

FleetHealthRun
RunSmallFleet(std::size_t threads, bool with_health)
{
    TimeSeriesStore health;
    AlertEngine engine;
    engine.AddRules(DefaultFleetAlertRules());
    fleet::FleetConfig config = SmallFleet(
        with_health ? &health : nullptr, with_health ? &engine : nullptr);
    config.num_threads = threads;
    fleet::ShardedFleetRunner runner(config);
    runner.Run(sim::Seconds(1));
    runner.Stop();

    FleetHealthRun result;
    result.trace_hash = runner.fleet_trace_hash();
    result.executed = runner.total_executed();
    result.timeline_hash = health.timeline_hash();
    result.samples = health.total_appended();
    result.alerts = engine.events();
    return result;
}

TEST(FleetHealth, TimelineIsIdenticalAcrossRepeatsAndThreads)
{
    const FleetHealthRun base = RunSmallFleet(1, true);
    EXPECT_GT(base.samples, 0u);

    const FleetHealthRun repeat = RunSmallFleet(1, true);
    EXPECT_EQ(base.timeline_hash, repeat.timeline_hash);
    EXPECT_EQ(base.samples, repeat.samples);
    EXPECT_EQ(base.alerts, repeat.alerts);

    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        const FleetHealthRun run = RunSmallFleet(threads, true);
        EXPECT_EQ(base.timeline_hash, run.timeline_hash)
            << threads << " threads";
        EXPECT_EQ(base.samples, run.samples) << threads << " threads";
        EXPECT_EQ(base.alerts, run.alerts) << threads << " threads";
    }
}

TEST(FleetHealth, SamplingIsObserveOnly)
{
    const FleetHealthRun with = RunSmallFleet(1, true);
    const FleetHealthRun without = RunSmallFleet(1, false);
    EXPECT_EQ(with.trace_hash, without.trace_hash);
    EXPECT_EQ(with.executed, without.executed);
    EXPECT_EQ(without.samples, 0u);
}

TEST(FleetHealth, SamplesOncePerWindowBarrier)
{
    // The window barrier is the only sampler: 1 s of 100 ms windows
    // gives each of the 20 fleet series one sample per barrier, stamped
    // with that window's horizon.
    TimeSeriesStore health;
    fleet::ShardedFleetRunner runner(SmallFleet(&health, nullptr));
    runner.Run(sim::Seconds(1));
    runner.Stop();

    EXPECT_EQ(health.num_series(), 20u);
    health.VisitSeries(
        [](const std::string& name, const TimeSeries& series) {
            ASSERT_EQ(series.size(), 10u) << name;
            for (std::size_t i = 0; i < series.size(); ++i) {
                EXPECT_EQ(series.at(i).at,
                          Ms(100 * static_cast<std::int64_t>(i + 1)))
                    << name;
            }
        });
}

TEST(FleetHealth, FleetSeriesCarryExpectedNames)
{
    TimeSeriesStore health;
    fleet::FleetConfig config = SmallFleet(&health, nullptr);
    fleet::ShardedFleetRunner runner(config);
    runner.Run(sim::Millis(300));
    runner.Stop();

    for (const char* name :
         {"fleet.epochs", "fleet.data.harvested", "fleet.data.invalid",
          "fleet.safeguard.trips", "fleet.safeguard.mitigations",
          "fleet.model.failures", "fleet.model.intercepted",
          "fleet.actions", "fleet.queue.executed", "fleet.queue.dropped",
          "fleet.queue.pending", "fleet.arbiter.requests",
          "fleet.arbiter.denied", "fleet.agent.halted_ns",
          "fleet.agent.active_ns", "fleet.node.epoch_latency.count",
          "fleet.node.epoch_latency.p50_ns",
          "fleet.node.epoch_latency.p99_ns"}) {
        EXPECT_NE(health.Find(name), nullptr) << name;
    }
    // active_ns is the SLO denominator: agents x elapsed virtual time.
    std::int64_t active = 0;
    ASSERT_TRUE(health.ValueAt("fleet.agent.active_ns", Ms(300), &active));
    const std::int64_t agents = 4 * (2 + 4);  // 4 nodes x (2 syn + 4 real).
    EXPECT_EQ(active, agents * Ms(300).count());
}

}  // namespace
}  // namespace sol::telemetry
