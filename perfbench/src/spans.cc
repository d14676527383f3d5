#include "spans.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "util.h"

namespace perfbench {

int
SpanLog::BeginRun(const std::string& label)
{
    runs_.push_back(label);
    current_run_ = static_cast<int>(runs_.size()) - 1;
    return current_run_;
}

int
SpanLog::Open(const std::string& name, const std::string& layer, int parent)
{
    spans_.push_back({name, layer, NowNs(), 0, parent, current_run_});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::Close(int index)
{
    spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
}

std::vector<std::int64_t>
SpanLog::SelfTimes() const
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans_.size());
    for (const Span& span : spans_) {
        if (span.parent >= 0) {
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.start_ns, span.end_ns);
        }
    }
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent.
        std::int64_t covered = 0;
        std::int64_t cursor = spans_[i].start_ns;
        for (const auto& [begin, end] : kids) {
            const std::int64_t from = std::max(begin, cursor);
            const std::int64_t to = std::min(end, spans_[i].end_ns);
            if (to > from) {
                covered += to - from;
                cursor = to;
            }
        }
        self[i] = (spans_[i].end_ns - spans_[i].start_ns) - covered;
    }
    return self;
}

std::map<std::string, double>
SpanLog::LayerSelfMs(int run) const
{
    const std::vector<std::int64_t> self = SelfTimes();
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (run < 0 || spans_[i].run == run) {
            by_layer[spans_[i].layer] += static_cast<double>(self[i]) * 1e-6;
        }
    }
    return by_layer;
}

bool
SpanLog::WriteJson(const std::string& path,
                   const std::map<std::string, std::string>& header) const
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << "{\n";
    for (const auto& [key, value] : header) {
        out << "  " << JsonQuote(key) << ": " << JsonQuote(value) << ",\n";
    }
    out << "  \"runs\": [";
    for (std::size_t r = 0; r < runs_.size(); ++r) {
        out << (r == 0 ? "" : ", ") << JsonQuote(runs_[r]);
    }
    out << "],\n  \"self_ms_by_run_and_layer\": {";
    for (std::size_t r = 0; r < runs_.size(); ++r) {
        out << (r == 0 ? "" : ",") << "\n    " << JsonQuote(runs_[r]) << ": {";
        bool first = true;
        for (const auto& [layer, ms] : LayerSelfMs(static_cast<int>(r))) {
            out << (first ? "" : ", ") << JsonQuote(layer) << ": " << ms;
            first = false;
        }
        out << "}";
    }
    out << "\n  },\n  \"spans\": [";
    const std::vector<std::int64_t> self = SelfTimes();
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i == 0 ? "" : ",") << "\n    {\"id\": " << i
            << ", \"name\": " << JsonQuote(s.name)
            << ", \"layer\": " << JsonQuote(s.layer)
            << ", \"run\": " << s.run << ", \"parent\": " << s.parent
            << ", \"start_ns\": " << s.start_ns - origin
            << ", \"end_ns\": " << s.end_ns - origin
            << ", \"self_ns\": " << self[i] << "}";
    }
    out << "\n  ]\n}\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
