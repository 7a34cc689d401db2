#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>

#include "filter/ramp.hpp"
#include "io/raw_io.hpp"
#include "minimpi/comm.hpp"
#include "recon/slab_backprojector.hpp"

namespace perfbench {
namespace {

using namespace xct;

constexpr const char* kCat = "perfbench";

/// Counters one rank records at its call boundaries.
struct RankCounts {
    LayerTotals t;
    std::vector<double> reduce_entry;  ///< per slab: when this rank entered reduce_sum
    std::uint64_t expect_h2d = 0;      ///< bytes the uploaded bands carried
    std::uint64_t expect_d2h = 0;      ///< bytes of the slabs back-projected
    std::uint64_t expect_reduce = 0;   ///< root link bytes of this group's reduces
    std::uint64_t delta_rows = 0;      ///< detector rows uploaded
    std::uint64_t needed_rows = 0;     ///< distinct detector rows the slabs need
};

index_t ceil_log2(index_t n)
{
    index_t k = 0;
    while ((index_t{1} << k) < n) ++k;
    return k;
}

/// Length of the union of the slabs' detector-row windows.
std::uint64_t union_rows(std::vector<SlabPlan> plans)
{
    std::sort(plans.begin(), plans.end(),
              [](const SlabPlan& a, const SlabPlan& b) { return a.rows.lo < b.rows.lo; });
    std::uint64_t total = 0;
    index_t lo = 0, hi = 0;
    bool open = false;
    for (const SlabPlan& p : plans) {
        if (p.rows.empty()) continue;
        if (open && p.rows.lo <= hi) {
            hi = std::max(hi, p.rows.hi);
            continue;
        }
        if (open) total += static_cast<std::uint64_t>(hi - lo);
        lo = p.rows.lo;
        hi = p.rows.hi;
        open = true;
    }
    if (open) total += static_cast<std::uint64_t>(hi - lo);
    return total;
}

void run_rank(const ReplayInput& in, minimpi::Communicator& world, Volume& out,
              RankCounts& c)
{
    const CbctGeometry& g = in.geometry;
    const RankId rank{world.rank()};
    const GroupId group = in.layout.group_of(rank);
    minimpi::Communicator gcomm = world.split(group.value(), in.layout.rank_in_group(rank));
    const bool is_root = gcomm.rank() == 0;
    const index_t nr = in.layout.ranks_per_group;
    const bool q8 = in.codec == io::BandCodec::Q8;

    telemetry::ScopedTrace root_span(kCat, "replay", rank.value());
    const Range views = in.layout.views_of_rank(rank, g.num_proj);
    const Range slices = in.layout.slices_of_group(group, g.vol.z);
    const index_t nb = (slices.length() + in.batches - 1) / in.batches;
    const std::vector<SlabPlan> plans = plan_slabs(g, slices, nb);

    std::unique_ptr<recon::ProjectionSource> source;
    std::optional<recon::SlabBackprojector> bp;
    std::optional<filter::FilterEngine> engine;
    {
        telemetry::ScopedTrace span(kCat, "setup");
        source = in.make_source(rank);
        recon::SlabBackprojector::Config bpc;
        bpc.geometry = g;
        bpc.views = views;
        bp.emplace(bpc, plans);
        engine.emplace(g, filter::Window::RamLak);
    }
    c.needed_rows = union_rows(plans);
    c.reduce_entry.assign(plans.size(), 0.0);
    std::vector<float> recv;

    for (std::size_t i = 0; i < plans.size(); ++i) {
        const SlabPlan& plan = plans[i];
        const index_t item = static_cast<index_t>(i);
        if (!plan.delta.empty()) {
            std::optional<ProjectionStack> delta;
            {
                telemetry::ScopedTrace span(kCat, "load", item);
                delta.emplace(source->load(views, plan.delta));
            }
            const auto band_bytes = static_cast<std::uint64_t>(delta->count()) * sizeof(float);
            c.t.load_bytes += band_bytes;
            {
                telemetry::ScopedTrace span(kCat, "filter", item);
                engine->apply(*delta);
            }
            c.t.filter_rows += static_cast<std::uint64_t>(delta->views() * delta->rows());
            c.t.filter_elems += static_cast<std::uint64_t>(delta->count());
            c.t.raw_bytes += band_bytes;
            c.delta_rows += static_cast<std::uint64_t>(plan.delta.length());

            recon::SlabBackprojector::StagedBand staged;
            if (q8) {
                std::optional<io::EncodedBand> enc;
                {
                    telemetry::ScopedTrace span(kCat, "encode", item);
                    enc.emplace(io::encode_band(*delta));
                }
                std::optional<ProjectionStack> decoded;
                {
                    telemetry::ScopedTrace span(kCat, "decode", item);
                    decoded.emplace(io::decode_band(*enc));
                }
                {
                    telemetry::ScopedTrace span(kCat, "stage", item);
                    staged = bp->stage_band(*decoded);
                }
                // What stage_band(EncodedBand) does after its decode: bill
                // the compressed transport, not fp32 texels.
                staged.wire_bytes = enc->wire_bytes();
                c.t.wire_bytes += enc->wire_bytes();
                c.expect_h2d += enc->wire_bytes();
            } else {
                {
                    telemetry::ScopedTrace span(kCat, "stage", item);
                    staged = bp->stage_band(*delta);
                }
                c.t.wire_bytes += band_bytes;
                c.expect_h2d += band_bytes;
            }
            {
                telemetry::ScopedTrace span(kCat, "commit", item);
                bp->commit_band(staged);
            }
        }

        std::optional<Volume> slab;
        {
            telemetry::ScopedTrace span(kCat, "bp", item);
            slab.emplace(bp->backproject(plan));
        }
        const auto slab_bytes = static_cast<std::uint64_t>(slab->count()) * sizeof(float);
        c.t.bp_updates += static_cast<std::uint64_t>(slab->count() * views.length());
        c.expect_d2h += slab_bytes;

        if (nr > 1) {
            if (is_root) recv.resize(static_cast<std::size_t>(slab->count()));
            c.reduce_entry[i] = now_s();
            {
                telemetry::ScopedTrace span(kCat, "reduce", item, slab_bytes);
                gcomm.reduce_sum(slab->span(), recv, 0);
            }
            if (is_root) {
                std::copy(recv.begin(), recv.end(), slab->span().begin());
                c.expect_reduce += slab_bytes * static_cast<std::uint64_t>(ceil_log2(nr));
            }
        }
        if (is_root) {
            telemetry::ScopedTrace span(kCat, "store", item, slab_bytes);
            for (index_t k = 0; k < plan.slab.length(); ++k) {
                const auto src = slab->slice(k);
                std::copy(src.begin(), src.end(), out.slice(plan.slab.lo + k).begin());
            }
            io::write_volume(in.store_dir / ("slab_" + std::to_string(plan.slab.lo) + "_" +
                                             std::to_string(plan.slab.hi) + ".xvol"),
                             *slab);
            c.t.store_bytes += slab_bytes;
        }
    }
    c.t.h2d_bytes = bp->device().h2d_stats().bytes;
    c.t.d2h_bytes = bp->device().d2h_stats().bytes;
    if (is_root && nr > 1) c.t.reduce_bytes = gcomm.collective_stats().reduce_root_bytes;
}

}  // namespace

LayerTotals& LayerTotals::operator+=(const LayerTotals& o)
{
    load_s += o.load_s;
    filter_s += o.filter_s;
    encode_s += o.encode_s;
    decode_s += o.decode_s;
    stage_s += o.stage_s;
    commit_s += o.commit_s;
    bp_s += o.bp_s;
    reduce_s += o.reduce_s;
    reduce_wait_s += o.reduce_wait_s;
    store_s += o.store_s;
    covered_s += o.covered_s;
    rank_s += o.rank_s;
    load_bytes += o.load_bytes;
    filter_rows += o.filter_rows;
    filter_elems += o.filter_elems;
    wire_bytes += o.wire_bytes;
    raw_bytes += o.raw_bytes;
    h2d_bytes += o.h2d_bytes;
    d2h_bytes += o.d2h_bytes;
    bp_updates += o.bp_updates;
    reduce_bytes += o.reduce_bytes;
    store_bytes += o.store_bytes;
    return *this;
}

ReplayResult replay(const ReplayInput& in, bool traced, Result& checks)
{
    const CbctGeometry& g = in.geometry;
    require(!g.short_scan(), "perfbench: the replay has no Parker weighting");
    const index_t nranks = in.layout.nranks();
    ReplayResult res;
    res.volume = Volume(g.vol);
    std::vector<RankCounts> counts(static_cast<std::size_t>(nranks));
    std::filesystem::create_directories(in.store_dir);

    if (traced) telemetry::tracer().enable();
    const double t0 = now_s();
    minimpi::run(nranks, [&](minimpi::Communicator& world) {
        run_rank(in, world, res.volume, counts[static_cast<std::size_t>(world.rank())]);
    });
    res.wall_s = now_s() - t0;
    if (traced) {
        telemetry::tracer().disable();
        res.events = telemetry::tracer().events();
    }

    // Layer self times from the spans: the layer spans are siblings under
    // each rank's root span, so each one's duration is its self time.
    LayerTotals& t = res.layers;
    const std::map<std::string, double LayerTotals::*> layer = {
        {"load", &LayerTotals::load_s},     {"filter", &LayerTotals::filter_s},
        {"encode", &LayerTotals::encode_s}, {"decode", &LayerTotals::decode_s},
        {"stage", &LayerTotals::stage_s},   {"commit", &LayerTotals::commit_s},
        {"bp", &LayerTotals::bp_s},         {"reduce", &LayerTotals::reduce_s},
        {"store", &LayerTotals::store_s}};
    for (const telemetry::TraceEvent& e : res.events) {
        if (e.cat != kCat) continue;
        const double d = e.end - e.begin;
        if (e.name == "replay") {
            t.rank_s += d;
            continue;
        }
        t.covered_s += d;
        const auto it = layer.find(e.name);
        if (it != layer.end()) t.*(it->second) += d;
    }

    // reduce.wait_s: from a rank's own entry to its group's last entry.
    const index_t nr = in.layout.ranks_per_group;
    for (index_t grp = 0; grp < in.layout.num_groups && nr > 1; ++grp) {
        const auto& first = counts[static_cast<std::size_t>(grp * nr)].reduce_entry;
        for (std::size_t i = 0; i < first.size(); ++i) {
            double last = 0.0;
            for (index_t r = grp * nr; r < (grp + 1) * nr; ++r)
                last = std::max(last, counts[static_cast<std::size_t>(r)].reduce_entry[i]);
            for (index_t r = grp * nr; r < (grp + 1) * nr; ++r)
                t.reduce_wait_s += last - counts[static_cast<std::size_t>(r)].reduce_entry[i];
        }
    }

    std::uint64_t expect_reduce = 0;
    for (std::size_t r = 0; r < counts.size(); ++r) {
        const RankCounts& c = counts[r];
        const std::string who = "rank " + std::to_string(r);
        t += c.t;
        expect_reduce += c.expect_reduce;
        // Eq. 6: every detector row a rank's slabs need is uploaded once.
        checks.expect_eq(who + " uploaded rows", c.delta_rows, c.needed_rows);
        checks.expect_eq(who + " sim.h2d_bytes", c.t.h2d_bytes, c.expect_h2d);
        checks.expect_eq(who + " sim.d2h_bytes", c.t.d2h_bytes, c.expect_d2h);
        if (in.codec == io::BandCodec::Raw) {
            const Range views = in.layout.views_of_rank(RankId{static_cast<index_t>(r)},
                                                        g.num_proj);
            checks.expect_eq(who + " sim.h2d_bytes vs needed rows", c.t.h2d_bytes,
                             c.needed_rows * static_cast<std::uint64_t>(views.length() * g.nu) *
                                 sizeof(float));
        }
    }
    checks.expect_eq("bp.updates", t.bp_updates,
                     static_cast<std::uint64_t>(g.vol.count() * g.num_proj));
    checks.expect_eq("reduce.bytes", t.reduce_bytes, expect_reduce);
    if (in.codec == io::BandCodec::Q8 && 3 * t.wire_bytes > t.raw_bytes)
        checks.fail("codec.wire_over_raw " +
                    std::to_string(static_cast<double>(t.wire_bytes) /
                                   static_cast<double>(t.raw_bytes)) +
                    " > 1/3");
    return res;
}

}  // namespace perfbench

namespace perfbench {

void add_layer_metrics(Result& r, const LayerReport& lr)
{
    const LayerTotals& t = lr.layers;
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    r.add("load.s", t.load_s, "s");
    r.add("load.bytes", d(t.load_bytes), "B");
    r.add("load.gib_per_s", ratio(d(t.load_bytes) / 1073741824.0, t.load_s), "GiB/s");
    r.add("filter.s", t.filter_s, "s");
    r.add("filter.rows", d(t.filter_rows), "count");
    r.add("filter.elems_per_s", ratio(d(t.filter_elems), t.filter_s), "1/s");
    r.add("codec.encode_s", t.encode_s, "s");
    r.add("codec.decode_s", t.decode_s, "s");
    r.add("codec.wire_bytes", d(t.wire_bytes), "B");
    r.add("codec.wire_over_raw", ratio(d(t.wire_bytes), d(t.raw_bytes)), "ratio");
    r.add("sim.stage_s", t.stage_s, "s");
    r.add("sim.commit_s", t.commit_s, "s");
    r.add("sim.h2d_bytes", d(t.h2d_bytes), "B");
    r.add("sim.d2h_bytes", d(t.d2h_bytes), "B");
    r.add("bp.s", t.bp_s, "s");
    r.add("bp.updates", d(t.bp_updates), "count");
    r.add("bp.gups", ratio(d(t.bp_updates) / 1e9, t.bp_s), "GUPS");
    r.add("reduce.s", t.reduce_s, "s");
    r.add("reduce.wait_s", t.reduce_wait_s, "s");
    r.add("reduce.bytes", d(t.reduce_bytes), "B");
    r.add("store.s", t.store_s, "s");
    r.add("store.bytes", d(t.store_bytes), "B");
    r.add("pipeline.overlap", ratio(lr.traced_wall_s, lr.pipelined_s), "ratio");
    r.add("model.predicted_s", lr.model_predicted_s, "s");
    r.add("model.abs_log_error",
          lr.model_predicted_s > 0.0 && lr.model_measured_s > 0.0
              ? std::abs(std::log(lr.model_predicted_s / lr.model_measured_s))
              : 0.0,
          "ratio");
    r.add("serve.submit_s", lr.submit_s, "s");
    r.add("serve.queue_wait_p50_s", lr.queue_wait_p50_s, "s");
    r.add("serve.queue_wait_p90_s", lr.queue_wait_p90_s, "s");
    r.add("serve.run_p50_s", lr.run_p50_s, "s");
    r.add("serve.predicted_over_measured", lr.predicted_over_measured, "ratio");
    r.add("loadgen.lag_p90_s", lr.lag_p90_s, "s");
    r.add("trace.coverage", ratio(t.covered_s, t.rank_s), "ratio");
    r.add("trace.overhead_pct",
          100.0 * ratio(lr.traced_wall_s - lr.untraced_wall_s, lr.untraced_wall_s), "%");
}

}  // namespace perfbench
