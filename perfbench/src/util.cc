#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>

namespace perfbench {

std::int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
NowSeconds()
{
    return static_cast<double>(NowNs()) * 1e-9;
}

double
ProcessCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

HostCpuTicks
ReadHostCpuTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;  // Aggregate "cpu" line: user nice system idle iowait
                  // irq softirq steal guest guest_nice.
    HostCpuTicks ticks;
    for (int field = 0; field < 8; ++field) {
        std::uint64_t value = 0;
        if (!(stat >> value)) {
            break;
        }
        ticks.total += value;
        if (field == 7) {
            ticks.steal = value;
        }
    }
    return ticks;
}

double
StealShare(const HostCpuTicks& from, const HostCpuTicks& to)
{
    const std::uint64_t total = to.total - from.total;
    return total == 0 ? 0.0
                      : static_cast<double>(to.steal - from.steal) /
                            static_cast<double>(total);
}

std::vector<std::size_t>
Quietest(const std::vector<double>& steal, std::size_t count)
{
    std::vector<std::size_t> order(steal.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&steal](std::size_t a, std::size_t b) {
                         return steal[a] < steal[b];
                     });
    order.resize(std::min(count, order.size()));
    std::sort(order.begin(), order.end());
    return order;
}

int
ProcessThreads()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "Threads:") {
            int threads = 0;
            status >> threads;
            return threads;
        }
        status.ignore(1 << 12, '\n');
    }
    return 0;
}

double
Median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
Percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
InterpolatedPercentile(const sol::telemetry::LatencyHistogram& hist,
                       double p)
{
    const std::uint64_t n = hist.count();
    if (n == 0) {
        return 0.0;
    }
    // Rank k's value: the percentile (k - 0.5)/n maps back to rank k
    // under ValueAtPercentile's ceil(p/100 * n) rule.
    const auto value_at_rank = [&hist, n](std::uint64_t k) {
        return hist.ValueAtPercentile(
            (static_cast<double>(k) - 0.5) * 100.0 /
            static_cast<double>(n));
    };
    auto rank = static_cast<std::uint64_t>(
        std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 *
                  static_cast<double>(n)));
    rank = std::clamp<std::uint64_t>(rank, 1, n);
    const std::uint64_t v = value_at_rank(rank);

    // First and last rank inside v's bucket.
    std::uint64_t lo = 1;
    std::uint64_t hi = rank;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (value_at_rank(mid) >= v) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    const std::uint64_t first = lo;
    lo = rank;
    hi = n;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo + 1) / 2;
        if (value_at_rank(mid) <= v) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    const std::uint64_t last = lo;

    // The bucket's bounds, from the histogram's documented layout:
    // exact below 2^kSubBits, then 2^kSubBits linear sub-buckets per
    // power of two.
    constexpr int kSubBits = sol::telemetry::LatencyHistogram::kSubBits;
    double lower = static_cast<double>(v);
    double width = 1.0;
    if (v >= (std::uint64_t{1} << kSubBits)) {
        const int shift = (63 - std::countl_zero(v)) - kSubBits;
        lower = static_cast<double>((v >> shift) << shift);
        width = static_cast<double>(std::uint64_t{1} << shift);
    }
    const double low_edge =
        std::max(lower, static_cast<double>(hist.min_ns()));
    const double high_edge =
        std::min(lower + width, static_cast<double>(hist.max_ns()) + 1.0);
    const double fraction =
        (static_cast<double>(rank - first) + 0.5) /
        static_cast<double>(last - first + 1);
    return low_edge + fraction * std::max(0.0, high_edge - low_edge);
}

std::string
JsonQuote(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out + "\"";
}

void
Checks::Expect(bool ok, const std::string& what)
{
    ++made_;
    if (!ok) {
        ++failed_;
        std::cerr << "CHECK FAILED: " << what << "\n";
    }
}

}  // namespace perfbench
