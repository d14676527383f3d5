// determinism-lint: allow-file(libm-transcendental) -- one documented
// std::pow builds the Zipf weight table (see trace_driver.h file
// comment); weights are quantized to kWeightQuantum before they touch
// the config fingerprint, which absorbs last-ulp libm variation.
#include "workloads/trace_driver.h"

#include <algorithm>
#include <cmath>

#include "sim/fnv.h"

namespace sol::workloads {

namespace {

/** Weight grid: 1/1024 steps keep Zipf ranks distinguishable out to
 *  ~1000 tenants while absorbing any last-ulp libm variation. */
constexpr double kWeightQuantum = 1024.0;

/** Curve grid: 1/4096 steps (~0.025% of full demand). */
constexpr double kCurveQuantum = 4096.0;

double
Quantize(double value, double quantum)
{
    return static_cast<double>(std::llround(value * quantum)) / quantum;
}

double
Clamp01(double value)
{
    return std::min(1.0, std::max(0.0, value));
}

/** Order-sensitive FNV-1a over 64-bit words. */
void
MixHash(std::uint64_t& hash, std::uint64_t word)
{
    hash = sim::FnvMix(hash, word);
}

std::uint64_t
QuantumBits(double value, double quantum)
{
    return static_cast<std::uint64_t>(std::llround(value * quantum));
}

}  // namespace

TraceDriver::TraceDriver(TraceDriverConfig config)
    : config_(std::move(config))
{
    if (config_.num_tenants == 0) {
        config_.num_tenants = 1;
    }
    config_.min_demand = Clamp01(config_.min_demand);
    if (config_.min_demand <= 0.0) {
        config_.min_demand = 1.0 / kCurveQuantum;
    }
    config_.cadence_stretch = std::max(1.0, config_.cadence_stretch);

    // Popularity ranking: rank == tenant index (tenant 0 hottest), so
    // with node-major tenant numbering the hot tenants land on the
    // low-index nodes — scenarios can reason about "the hot shard".
    weights_.reserve(config_.num_tenants);
    for (std::size_t rank = 0; rank < config_.num_tenants; ++rank) {
        double weight = 1.0;
        if (config_.zipf_skew > 0.0) {
            const double n = static_cast<double>(rank + 1);
            // skew == 1 is an exact IEEE division; the general case is
            // the only std::pow in the driver (documented caveat).
            weight = config_.zipf_skew == 1.0
                         ? 1.0 / n
                         : 1.0 / std::pow(n, config_.zipf_skew);
        }
        weight = Quantize(weight, kWeightQuantum);
        weights_.push_back(std::max(weight, 1.0 / kWeightQuantum));
    }

    // Fingerprint everything behavior depends on, in declaration
    // order, each continuous value as its quantum count.
    std::uint64_t hash = sim::kFnvOffsetBasis;
    MixHash(hash, config_.seed);
    MixHash(hash, config_.num_tenants);
    MixHash(hash, QuantumBits(config_.zipf_skew, kCurveQuantum));
    MixHash(hash, static_cast<std::uint64_t>(config_.curve.kind));
    MixHash(hash, QuantumBits(config_.curve.base, kCurveQuantum));
    MixHash(hash, QuantumBits(config_.curve.peak, kCurveQuantum));
    MixHash(hash, static_cast<std::uint64_t>(config_.curve.period.count()));
    MixHash(hash, static_cast<std::uint64_t>(config_.curve.at.count()));
    MixHash(hash,
            static_cast<std::uint64_t>(config_.curve.duration.count()));
    MixHash(hash, QuantumBits(config_.min_demand, kCurveQuantum));
    MixHash(hash, QuantumBits(config_.cadence_stretch, kCurveQuantum));
    MixHash(hash, QuantumBits(config_.pressure_gain, kCurveQuantum));
    for (const double weight : weights_) {
        MixHash(hash, QuantumBits(weight, kWeightQuantum));
    }
    for (const StormWindow& storm : config_.storms) {
        MixHash(hash, static_cast<std::uint64_t>(storm.from.count()));
        MixHash(hash, static_cast<std::uint64_t>(storm.until.count()));
        MixHash(hash, storm.tenant_begin);
        MixHash(hash, storm.tenant_end);
        // Sentinel compare only; the hashed value is quantized.
        // determinism-lint: allow(float-fingerprint)
        MixHash(hash, storm.invalid_rate < 0.0
                          ? ~std::uint64_t{0}
                          : QuantumBits(storm.invalid_rate,
                                        kCurveQuantum));
        MixHash(hash, (storm.degrade_model ? 1u : 0u) |
                          (storm.fail_actuator ? 2u : 0u));
    }
    hash_ = hash;
}

double
TraceDriver::TenantWeight(std::size_t tenant) const
{
    return weights_[tenant % weights_.size()];
}

double
TraceDriver::RawDemandAt(sim::TimePoint t) const
{
    const DemandCurve& curve = config_.curve;
    switch (curve.kind) {
        case DemandCurveKind::kFlat:
            return curve.base;
        case DemandCurveKind::kRamp: {
            if (curve.period.count() <= 0) {
                return curve.peak;
            }
            const double progress = Clamp01(
                static_cast<double>(t.count()) /
                static_cast<double>(curve.period.count()));
            return curve.base + (curve.peak - curve.base) * progress;
        }
        case DemandCurveKind::kStep:
            return t >= curve.at ? curve.peak : curve.base;
        case DemandCurveKind::kDiurnal: {
            if (curve.period.count() <= 0) {
                return curve.base;
            }
            // Triangle wave (trough at phase 0, crest at 0.5): the
            // morning-peak cycle without a transcendental call.
            const std::int64_t mod =
                t.count() % curve.period.count();
            const double phase =
                static_cast<double>(mod) /
                static_cast<double>(curve.period.count());
            const double tent =
                phase < 0.5 ? 2.0 * phase : 2.0 * (1.0 - phase);
            return curve.base + (curve.peak - curve.base) * tent;
        }
        case DemandCurveKind::kFlashCrowd:
            return t >= curve.at && t < curve.at + curve.duration
                       ? curve.peak
                       : curve.base;
    }
    return curve.base;
}

double
TraceDriver::DemandAt(sim::TimePoint t) const
{
    const double raw = Clamp01(RawDemandAt(t));
    return Quantize(std::max(raw, config_.min_demand), kCurveQuantum);
}

double
TraceDriver::CadenceScale(std::size_t tenant) const
{
    const double weight = TenantWeight(tenant);
    const double scale =
        1.0 + (config_.cadence_stretch - 1.0) * (1.0 - weight);
    return std::max(1.0, Quantize(scale, kCurveQuantum));
}

const StormWindow*
TraceDriver::ActiveStorm(std::size_t tenant, sim::TimePoint t,
                         bool (*flag)(const StormWindow&)) const
{
    for (const StormWindow& storm : config_.storms) {
        if (t >= storm.from && t < storm.until &&
            tenant >= storm.tenant_begin && tenant < storm.tenant_end &&
            flag(storm)) {
            return &storm;
        }
    }
    return nullptr;
}

double
TraceDriver::InvalidRateAt(std::size_t tenant, sim::TimePoint t,
                           double base) const
{
    const StormWindow* storm = ActiveStorm(
        tenant, t,
        [](const StormWindow& s) { return s.invalid_rate >= 0.0; });
    if (storm == nullptr) {
        return base;
    }
    return Quantize(Clamp01(storm->invalid_rate), kCurveQuantum);
}

double
TraceDriver::ExpandFractionAt(std::size_t tenant, sim::TimePoint t,
                              double base) const
{
    (void)tenant;  // Pressure is fleet-wide; skew acts via cadence.
    const double scaled = base * DemandAt(t) * config_.pressure_gain;
    return Quantize(Clamp01(scaled), kCurveQuantum);
}

int
TraceDriver::EpochTargetAt(std::size_t tenant, sim::TimePoint t,
                           int data_per_epoch) const
{
    (void)tenant;
    if (data_per_epoch <= 1) {
        return data_per_epoch;
    }
    const double demand = DemandAt(t);
    const int target = static_cast<int>(
        std::ceil(demand * static_cast<double>(data_per_epoch)));
    return std::min(data_per_epoch, std::max(1, target));
}

bool
TraceDriver::ModelDegradedAt(std::size_t tenant, sim::TimePoint t) const
{
    return ActiveStorm(tenant, t, [](const StormWindow& s) {
               return s.degrade_model;
           }) != nullptr;
}

bool
TraceDriver::ActuatorFailingAt(std::size_t tenant, sim::TimePoint t) const
{
    return ActiveStorm(tenant, t, [](const StormWindow& s) {
               return s.fail_actuator;
           }) != nullptr;
}

}  // namespace sol::workloads
