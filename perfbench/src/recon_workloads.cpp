// recon-256-2x2 and preview-wide-q8: a closed loop with one client running
// back-to-back reconstructions of a stack file, through the same entry
// points xct_recon uses (reconstruct_distributed / reconstruct_fdk) with a
// PfsSource reading the file and the volume stored through the Pfs.

#include <optional>

#include "autotune/planner.hpp"
#include "io/pfs.hpp"
#include "io/raw_io.hpp"
#include "recon/distributed.hpp"
#include "recon/fdk.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace xct;

struct ReconSpec {
    double scale;
    index_t volume;
    GroupLayout layout;
    io::BandCodec codec;
    /// rmse_flat bound against the voxelised phantom; q8 carries its
    /// quantisation error on top of the raw FDK error.
    double rmse_bound;
};

constexpr index_t kBatches = 8;
constexpr std::size_t kMinRecons = 2;
const char* const kStack = "stack.xstk";

ReconSpec spec_of(const Options& o)
{
    if (o.workload == "recon-256-2x2")
        return o.tiny ? ReconSpec{12.0, 32, {2, 2}, io::BandCodec::Raw, 0.03}
                      : ReconSpec{4.0, 256, {2, 2}, io::BandCodec::Raw, 0.03};
    return o.tiny ? ReconSpec{8.0, 16, {1, 1}, io::BandCodec::Q8, 0.03}
                  : ReconSpec{2.0, 32, {1, 1}, io::BandCodec::Q8, 0.03};
}

/// One reconstruction, load through store; returns the assembled volume.
Volume reconstruct(const ReconSpec& s, const CbctGeometry& g, io::Pfs& pfs)
{
    if (s.layout.nranks() == 1) {
        recon::PfsSource src(pfs, kStack);
        recon::RankConfig rc;
        rc.geometry = g;
        rc.batches = kBatches;
        rc.band_codec = s.codec;
        recon::FdkResult r = recon::reconstruct_fdk(rc, src);
        pfs.store_volume("volume.xvol", r.volume);
        return std::move(r.volume);
    }
    recon::DistributedConfig dc;
    dc.geometry = g;
    dc.layout = s.layout;
    dc.batches = kBatches;
    dc.band_codec = s.codec;
    return recon::reconstruct_distributed(dc, recon::make_shared_pfs_factory(pfs, kStack), &pfs)
        .volume;
}

}  // namespace

void run_recon(const Options& o, Result& r, std::vector<telemetry::TraceEvent>& events)
{
    const ReconSpec s = spec_of(o);
    const CbctGeometry g = workload_geometry(s.scale, s.volume);
    const std::filesystem::path pfs_root = o.work / "pfs";
    const auto phantom = workload_phantom(g, o.seed);

    // Set-up: generate the stack from the seed, write it, open the Pfs.
    std::optional<io::Pfs> pfs;
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double t0 = now_s();
        pfs.reset();
        io::write_stack(pfs_root / kStack, phantom::forward_project(phantom, g));
        pfs.emplace(pfs_root, 2.0, 28.5);
        setups.push_back(now_s() - t0);
    }
    const Volume reference = phantom::voxelize(phantom, g);

    // One checked operation: counts as attempted, and as failed when its
    // output misses the rmse_flat bound.
    auto check = [&](const Volume& v, const std::string& what) {
        ++r.attempted;
        const double e = recon::rmse_flat(v, reference);
        if (!(e <= s.rmse_bound)) {
            ++r.failed;
            r.fail(what + ": rmse_flat " + std::to_string(e) + " > bound " +
                   std::to_string(s.rmse_bound));
        }
        return e;
    };
    std::vector<double> walls, errors;
    auto timed = [&] {
        const double t0 = now_s();
        const Volume v = reconstruct(s, g, *pfs);
        walls.push_back(now_s() - t0);
        errors.push_back(check(v, "reconstruction " + std::to_string(walls.size())));
    };

    if (!o.trace) {
        // Closed loop: the next reconstruction is due when the previous
        // one is checked.  At least kMinRecons run (the median of one 256^3
        // reconstruction would carry all of the host's noise); past that,
        // none is started that would end after --seconds.
        const double t_loop = now_s();
        while (walls.size() < kMinRecons || now_s() - t_loop + walls.back() <= o.seconds)
            timed();

        double busy = 0.0;
        for (double w : walls) busy += w;
        const double recon_s = median(walls);
        r.add("setup_s", median(setups), "s");
        r.add("recon_s", recon_s, "s");
        r.add("gups", gups(g, recon_s), "GUPS");
        r.add("rmse_flat", median(errors), "1/mm");
        r.add("peak_rss_mib", peak_rss_mib(), "MiB");
        r.add("job_p50_s", recon_s, "s");
        r.add("job_p90_s", quantile(walls, 0.9), "s");
        r.add("jobs_per_s", static_cast<double>(walls.size()) / busy, "1/s");
        return;
    }

    // Traced run: one untraced reconstruction, then the replay with the
    // tracer off, on, and off again (so drift between consecutive replays
    // does not read as tracing overhead); every replay must pass the same
    // check.  A closed loop has no generator to run late, so
    // loadgen.lag_p90_s stays 0.
    timed();
    ReplayInput in;
    in.geometry = g;
    in.layout = s.layout;
    in.batches = kBatches;
    in.codec = s.codec;
    in.make_source = recon::make_shared_pfs_factory(*pfs, kStack);
    in.store_dir = o.work / "replay";
    const auto checked = [&](bool traced) {
        ReplayResult rr = replay(in, traced, r);
        check(rr.volume, traced ? "traced replay" : "untraced replay");
        return rr;
    };
    const double before = checked(false).wall_s;
    ReplayResult traced = checked(true);
    const double after = checked(false).wall_s;
    events.insert(events.end(), traced.events.begin(), traced.events.end());

    LayerReport lr;
    lr.layers = traced.layers;
    lr.traced_wall_s = traced.wall_s;
    lr.untraced_wall_s = 0.5 * (before + after);
    lr.pipelined_s = walls.front();
    autotune::JobShape shape;
    shape.geometry = g;
    shape.rank_budget = s.layout.nranks();
    shape.codec = s.codec;
    lr.model_predicted_s = autotune::predict_runtime(
        shape, autotune::Candidate{s.layout, kBatches, 2}, perfmodel::MachineParams{});
    lr.model_measured_s = walls.front();
    add_layer_metrics(r, lr);
}

}  // namespace perfbench
