#include "pipeline/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "core/names.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace xct::pipeline {

double now_seconds()
{
    return telemetry::flight::wall_now();
}

Timeline::Timeline() : epoch_(now_seconds()) {}

double Timeline::elapsed() const
{
    return now_seconds() - epoch_;
}

void Timeline::record(std::string stage, index_t item, double begin, double end)
{
    // Always feed the flight recorder: epoch_ is absolute on the same
    // clock, and the stage names are in the intern fast path, so this is
    // one lock-free ring store per span.
    telemetry::flight::record(names::kCatPipeline, telemetry::flight::intern(stage),
                              epoch_ + begin, epoch_ + end, item);
    // Feed the process-wide telemetry when enabled: the span lands on the
    // tracer's single timebase (epoch_ is absolute, same clock), and the
    // per-stage busy time accumulates in the metrics registry.  Disabled
    // path: one relaxed atomic load.
    auto& tr = telemetry::tracer();
    if (tr.enabled()) {
        tr.record_interval_abs(stage, names::kCatPipeline, epoch_ + begin, epoch_ + end, item);
        telemetry::registry()
            .gauge(names::kMetricPipelineStagePrefix + stage + ".seconds")
            .add(end - begin);
        telemetry::registry().counter(names::kMetricPipelineStagePrefix + stage + ".spans").add(1);
    }
    MutexLock lk(m_);
    spans_.push_back(StageSpan{std::move(stage), item, begin, end});
}

std::vector<StageSpan> Timeline::spans() const
{
    MutexLock lk(m_);
    return spans_;
}

double Timeline::stage_busy(const std::string& stage) const
{
    MutexLock lk(m_);
    double total = 0.0;
    for (const auto& s : spans_)
        if (s.stage == stage) total += s.end - s.begin;
    return total;
}

double Timeline::makespan() const
{
    MutexLock lk(m_);
    double m = 0.0;
    for (const auto& s : spans_) m = std::max(m, s.end);
    return m;
}

std::string Timeline::render(index_t width) const
{
    const auto all = spans();
    if (all.empty()) return "(empty timeline)\n";
    double span_end = 0.0;
    for (const auto& s : all) span_end = std::max(span_end, s.end);
    if (span_end <= 0.0) span_end = 1e-9;

    // Stable stage order: first appearance.
    std::vector<std::string> order;
    for (const auto& s : all)
        if (std::find(order.begin(), order.end(), s.stage) == order.end()) order.push_back(s.stage);

    std::size_t label_w = 0;
    for (const auto& n : order) label_w = std::max(label_w, n.size());

    std::ostringstream out;
    for (const auto& name : order) {
        std::string row(static_cast<std::size_t>(width), '.');
        for (const auto& s : all) {
            if (s.stage != name) continue;
            // Half-open pixel mapping: a span covers the columns its
            // interval intersects, never bleeding into the column that
            // starts exactly at its end; a degenerate/sub-column span
            // still marks the column it falls in (Fig. 10 regression:
            // very short spans must not vanish from the chart).
            auto clamp_col = [&](double c) {
                return std::clamp<index_t>(static_cast<index_t>(c), 0, width - 1);
            };
            const index_t c0 = clamp_col(std::floor(s.begin / span_end * static_cast<double>(width)));
            index_t c1 = clamp_col(std::ceil(s.end / span_end * static_cast<double>(width)) - 1.0);
            if (c1 < c0) c1 = c0;
            for (index_t c = c0; c <= c1; ++c) row[static_cast<std::size_t>(c)] = '#';
        }
        out << name << std::string(label_w - name.size(), ' ') << " |" << row << "|\n";
    }
    out << std::string(label_w, ' ') << " 0" << std::string(static_cast<std::size_t>(width) - 1, ' ')
        << span_end << "s\n";
    return out.str();
}

double Timeline::overlap_factor() const
{
    const double mk = makespan();
    if (mk <= 0.0) return 0.0;
    MutexLock lk(m_);
    double busy = 0.0;
    for (const auto& s : spans_) busy += s.end - s.begin;
    return busy / mk;
}

}  // namespace xct::pipeline
