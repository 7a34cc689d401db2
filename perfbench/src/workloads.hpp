#pragma once
// The benchmark's workloads.  Each fills `r` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run, whose spans are
// appended to `events`).

#include <vector>

#include "common.hpp"
#include "replay.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 3;

/// recon-256-2x2 and preview-wide-q8.
void run_recon(const Options& o, Result& r, std::vector<xct::telemetry::TraceEvent>& events);
/// serve-mixed.
void run_serve(const Options& o, Result& r, std::vector<xct::telemetry::TraceEvent>& events);

}  // namespace perfbench
