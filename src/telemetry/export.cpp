#include "telemetry/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "core/json.hpp"

namespace xct::telemetry {

namespace {

/// The metrics CSV's fixed six-decimal number format (JSON output goes
/// through core/json's shortest round-trip printer instead).
std::string fmt_double(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return buf;
}

std::ofstream open_out(const std::filesystem::path& path)
{
    std::ofstream os(path);
    require(os.good(), "telemetry: cannot open " + path.string() + " for writing");
    return os;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events)
{
    core::json::Writer w(os);
    w.begin_object().member("displayTimeUnit", "ms").key("traceEvents").begin_array();

    // Name each pid lane so Perfetto shows "rank N" process headers.
    std::set<RankId> ranks;
    for (const auto& e : events) ranks.insert(e.rank);
    for (const RankId r : ranks) {
        w.begin_object().member("name", "process_name").member("ph", "M");
        w.member("pid", r.value()).member("tid", 0).key("args").begin_object();
        w.member("name", "rank " + std::to_string(r.value())).end_object().end_object();
    }

    for (const auto& e : events) {
        // Clamp to the epoch: spans that began before enable() would get
        // negative timestamps, which the viewers mishandle.
        const double begin = std::max(0.0, e.begin);
        const double dur = std::max(0.0, e.end - begin);
        w.begin_object().member("name", e.name).member("cat", e.cat).member("ph", "X");
        w.member("ts", begin * 1e6).member("dur", dur * 1e6);
        w.member("pid", e.rank.value()).member("tid", e.lane);
        if (e.item >= 0 || e.bytes > 0) {
            w.key("args").begin_object();
            if (e.item >= 0) w.member("item", e.item);
            if (e.bytes > 0) w.member("bytes", e.bytes);
            w.end_object();
        }
        w.end_object();
    }
    w.end_array().end_object();
    os << "\n";
}

void write_chrome_trace(const std::filesystem::path& path, const std::vector<TraceEvent>& events)
{
    auto os = open_out(path);
    write_chrome_trace(os, events);
}

void write_metrics_csv(std::ostream& os, const MetricsSnapshot& s)
{
    os << "name,kind,value\n";
    for (const auto& c : s.counters) os << c.name << ",counter," << c.value << "\n";
    for (const auto& g : s.gauges) os << g.name << ",gauge," << fmt_double(g.value) << "\n";
    for (const auto& h : s.histograms) {
        for (std::size_t i = 0; i < h.bounds.size(); ++i)
            os << h.name << ".le_" << fmt_double(h.bounds[i]) << ",histogram," << h.counts[i]
               << "\n";
        os << h.name << ".le_inf,histogram," << h.counts.back() << "\n";
        os << h.name << ".count,histogram," << h.count << "\n";
        os << h.name << ".sum,histogram," << fmt_double(h.sum) << "\n";
    }
}

void write_metrics_csv(const std::filesystem::path& path, const MetricsSnapshot& s)
{
    auto os = open_out(path);
    write_metrics_csv(os, s);
}

void write_metrics_json(std::ostream& os, const MetricsSnapshot& s)
{
    core::json::Writer w(os, core::json::Style::Spaced);
    w.begin_object().key("counters").begin_object();
    for (const auto& c : s.counters) w.member(c.name, c.value);
    w.end_object().key("gauges").begin_object();
    for (const auto& g : s.gauges) w.member(g.name, g.value);
    w.end_object().key("histograms").begin_object();
    for (const auto& h : s.histograms) {
        w.key(h.name).begin_object().key("bounds").begin_array();
        for (const double b : h.bounds) w.value(b);
        w.end_array().key("counts").begin_array();
        for (const std::uint64_t c : h.counts) w.value(c);
        w.end_array().member("count", h.count).member("sum", h.sum).end_object();
    }
    w.end_object().end_object();
    os << "\n";
}

void write_metrics_json(const std::filesystem::path& path, const MetricsSnapshot& s)
{
    auto os = open_out(path);
    write_metrics_json(os, s);
}

std::string render_timeline(const std::vector<TraceEvent>& spans, index_t width)
{
    if (spans.empty()) return "(empty timeline)\n";
    double span_end = 0.0;
    for (const auto& s : spans) span_end = std::max(span_end, s.end);
    if (span_end <= 0.0) span_end = 1e-9;

    std::vector<std::string> order;
    for (const auto& s : spans)
        if (std::find(order.begin(), order.end(), s.name) == order.end()) order.push_back(s.name);

    std::size_t label_w = 0;
    for (const auto& n : order) label_w = std::max(label_w, n.size());

    const double cols = static_cast<double>(width);
    auto clamp_col = [&](double c) {
        return std::clamp<index_t>(static_cast<index_t>(c), 0, width - 1);
    };
    std::ostringstream out;
    for (const auto& name : order) {
        std::string row(static_cast<std::size_t>(width), '.');
        for (const auto& s : spans) {
            if (s.name != name) continue;
            // Half-open pixel mapping: a span covers the columns its
            // interval intersects, never bleeding into the column that
            // starts exactly at its end; a degenerate/sub-column span
            // still marks the column it falls in (Fig. 10 regression:
            // very short spans must not vanish from the chart).
            const index_t c0 = clamp_col(std::floor(s.begin / span_end * cols));
            index_t c1 = clamp_col(std::ceil(s.end / span_end * cols) - 1.0);
            if (c1 < c0) c1 = c0;
            for (index_t c = c0; c <= c1; ++c) row[static_cast<std::size_t>(c)] = '#';
        }
        out << name << std::string(label_w - name.size(), ' ') << " |" << row << "|\n";
    }
    out << std::string(label_w, ' ') << " 0" << std::string(static_cast<std::size_t>(width) - 1, ' ')
        << span_end << "s\n";
    return out.str();
}

}  // namespace xct::telemetry
