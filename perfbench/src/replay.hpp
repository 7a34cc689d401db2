#pragma once
// The traced replay: one reconstruction re-driven call by call through the
// library's public layer entry points, inside a minimpi world with the
// workload's layout, with a span around every call.
//
// Each rank runs, per slab and in pipeline order:
//   ProjectionSource::load -> FilterEngine::apply -> io::encode_band and
//   io::decode_band (q8 only) -> SlabBackprojector::stage_band ->
//   commit_band -> backproject -> Communicator::reduce_sum (groups of more
//   than one rank) -> io::write_volume (group roots).
// The stages run back to back on the rank's thread, so the replay's wall
// over the pipelined reconstruction's wall measures the pipeline overlap.

#include <filesystem>
#include <vector>

#include "common.hpp"
#include "core/volume.hpp"
#include "io/band_codec.hpp"
#include "recon/source.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

struct ReplayInput {
    xct::CbctGeometry geometry;
    xct::GroupLayout layout{1, 1};
    index_t batches = 8;
    xct::io::BandCodec codec = xct::io::BandCodec::Raw;
    xct::recon::SourceFactory make_source;
    std::filesystem::path store_dir;  ///< group roots write their slabs here
};

/// Per-layer totals, summed over ranks (seconds are rank-seconds).
struct LayerTotals {
    double load_s = 0, filter_s = 0, encode_s = 0, decode_s = 0, stage_s = 0, commit_s = 0,
           bp_s = 0, reduce_s = 0, reduce_wait_s = 0, store_s = 0;
    double covered_s = 0;  ///< every layer span, rank set-up included
    double rank_s = 0;     ///< the ranks' root spans
    std::uint64_t load_bytes = 0, filter_rows = 0, filter_elems = 0, wire_bytes = 0,
                  raw_bytes = 0, h2d_bytes = 0, d2h_bytes = 0, bp_updates = 0,
                  reduce_bytes = 0, store_bytes = 0;

    LayerTotals& operator+=(const LayerTotals& o);
};

struct ReplayResult {
    xct::Volume volume;  ///< assembled from the group roots
    double wall_s = 0.0;
    LayerTotals layers;  ///< from the spans (traced replays only) and counters
    std::vector<xct::telemetry::TraceEvent> events;  ///< traced replays only
};

/// Run one replay.  Count cross-checks against their closed forms are
/// reported into `checks`.
ReplayResult replay(const ReplayInput& in, bool traced, Result& checks);

/// Everything a traced run reports, per layer.
struct LayerReport {
    LayerTotals layers;          ///< from the traced replay(s)
    double traced_wall_s = 0.0;  ///< traced replay wall
    double untraced_wall_s = 0.0;  ///< the same replay with the tracer off
    double pipelined_s = 0.0;    ///< untraced pipelined wall of the same work
    double model_predicted_s = 0.0;  ///< the admission / planner pricing
    double model_measured_s = 0.0;   ///< what that prediction is compared with
    // serve layer (zero on the recon workloads, which bypass it)
    double submit_s = 0.0;
    double queue_wait_p50_s = 0.0;
    double queue_wait_p90_s = 0.0;
    double run_p50_s = 0.0;
    double predicted_over_measured = 0.0;
    double lag_p90_s = 0.0;  ///< how late the load generator ran
};

/// Every per-layer metric of BENCHMARK.json, with its unit.
void add_layer_metrics(Result& r, const LayerReport& lr);

}  // namespace perfbench
