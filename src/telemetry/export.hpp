#pragma once
// Exporters for the telemetry layer:
//
//   * write_chrome_trace — Chrome trace-event JSON (the "JSON Array
//     Format" with a traceEvents wrapper): one complete event (ph "X",
//     microsecond ts/dur) per recorded span, pid = rank, tid = lane,
//     plus process_name metadata per rank.  Loadable in Perfetto
//     (ui.perfetto.dev) and chrome://tracing.
//   * write_metrics_csv / write_metrics_json — flat dumps of a
//     MetricsSnapshot (histograms expanded into .le_<bound> rows);
//   * render_timeline — the Fig. 10 overlap chart of a run's stage
//     spans as ASCII.

#include <filesystem>
#include <ostream>
#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace xct::telemetry {

void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events);
void write_chrome_trace(const std::filesystem::path& path, const std::vector<TraceEvent>& events);

/// CSV with header `name,kind,value`; counters and gauges one row each,
/// histograms as `<name>.le_<bound>`, `<name>.le_inf`, `<name>.count`
/// and `<name>.sum` rows.
void write_metrics_csv(std::ostream& os, const MetricsSnapshot& s);
void write_metrics_csv(const std::filesystem::path& path, const MetricsSnapshot& s);

void write_metrics_json(std::ostream& os, const MetricsSnapshot& s);
void write_metrics_json(const std::filesystem::path& path, const MetricsSnapshot& s);

/// One row per span name (in order of first appearance), '#' where that
/// name is busy; `width` columns cover [0, last span end].  A span
/// narrower than a column still marks the column it falls in.
std::string render_timeline(const std::vector<TraceEvent>& spans, index_t width = 72);

}  // namespace xct::telemetry
