#include "telemetry/report.hpp"

#include <algorithm>
#include <fstream>
#include <map>

#include "core/json.hpp"
#include "core/names.hpp"
#include "core/simd.hpp"

namespace xct::telemetry::report {

namespace {

// The pipeline stages in report order, with the per-rank measured
// accessor, the matching Eqs. 13-16 aggregate of a Projection and the
// per-batch field of BatchTimes.
struct StageMap {
    const char* stage;
    double RankTimings::* measured;
    double perfmodel::Projection::* predicted;
    double perfmodel::BatchTimes::* batch;
};

constexpr StageMap kStageMap[] = {
    {names::kStageLoad, &RankTimings::load, &perfmodel::Projection::t_load,
     &perfmodel::BatchTimes::load},
    {names::kStageFilter, &RankTimings::filter, &perfmodel::Projection::t_filter,
     &perfmodel::BatchTimes::filter},
    {names::kStageH2d, &RankTimings::h2d, &perfmodel::Projection::t_h2d,
     &perfmodel::BatchTimes::h2d},
    {names::kStageBp, &RankTimings::bp, &perfmodel::Projection::t_bp, &perfmodel::BatchTimes::bp},
    {names::kStageReduce, &RankTimings::reduce, &perfmodel::Projection::t_reduce,
     &perfmodel::BatchTimes::reduce},
    {names::kStageStore, &RankTimings::store, &perfmodel::Projection::t_store,
     &perfmodel::BatchTimes::store},
};

/// Ignore stage times below this when flagging stragglers: at micro
/// scales the fleet median is timer noise, not a baseline.
constexpr double kStragglerFloorSeconds = 1e-3;

double median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
    return v[mid];
}

double ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/// Map a recorded span's stage name onto a BatchTimes field ("restore"
/// replays are not a model stage and return nullptr).
double perfmodel::BatchTimes::* batch_field(const std::string& stage)
{
    for (const StageMap& s : kStageMap)
        if (stage == s.stage) return s.batch;
    return nullptr;
}

void write_batch_times(core::json::Writer& w, const perfmodel::BatchTimes& t)
{
    w.begin_object().member("load", t.load).member("filter", t.filter).member("h2d", t.h2d);
    w.member("bp", t.bp).member("d2h", t.d2h).member("reduce", t.reduce);
    w.member("store", t.store).end_object();
}

}  // namespace

void observe_fleet(const RankTimings& t)
{
    for (const StageMap& s : kStageMap) fleet_observe(s.stage, t.*(s.measured));
    fleet_observe(names::kStageWall, t.wall);
    registry().counter(names::kMetricFleetRanks).add(1);
}

std::vector<FleetStage> fleet_percentiles(const MetricsSnapshot& snap)
{
    const std::string prefix = names::kMetricFleetStagePrefix;
    const std::string suffix = ".seconds";
    std::vector<FleetStage> out;
    for (const HistogramSample& h : snap.histograms) {
        if (h.name.size() <= prefix.size() + suffix.size()) continue;
        if (h.name.compare(0, prefix.size(), prefix) != 0) continue;
        if (h.name.compare(h.name.size() - suffix.size(), suffix.size(), suffix) != 0) continue;
        FleetStage f;
        f.stage = h.name.substr(prefix.size(), h.name.size() - prefix.size() - suffix.size());
        f.ranks = h.count;
        f.p50_s = histogram_quantile(h, 0.50);
        f.p95_s = histogram_quantile(h, 0.95);
        f.p99_s = histogram_quantile(h, 0.99);
        out.push_back(std::move(f));
    }
    return out;
}

RunReport build(const perfmodel::RunConfig& cfg, const perfmodel::MachineParams& m,
                const std::vector<RankTimings>& ranks, double straggler_k)
{
    require(straggler_k > 1.0, "report::build: straggler_k must exceed 1");
    const perfmodel::Projection proj = perfmodel::project(cfg, m);

    RunReport r;
    r.config = cfg;
    r.predicted_runtime_s = proj.runtime;
    r.predicted_gups = proj.gups;
    r.straggler_k = straggler_k;

    // Roofline attribution: the Eq. 17 aggregate that binds the
    // steady-state (perfect-overlap) runtime.
    const double agg_cpu = proj.t_load + proj.t_filter;
    const double agg_gpu = proj.t_h2d + proj.t_bp + proj.t_d2h;
    r.binding_stage = "cpu";
    double binding = agg_cpu;
    for (const auto& [name, value] :
         {std::pair<const char*, double>{"gpu", agg_gpu}, {"reduce", proj.t_reduce},
          {"store", proj.t_store}}) {
        if (value > binding) {
            binding = value;
            r.binding_stage = name;
        }
    }

    // Per-stage join: fleet median of the per-rank busy seconds against
    // the model's one-rank aggregate.
    std::map<std::string, double> stage_median;
    for (const StageMap& s : kStageMap) {
        std::vector<double> values;
        values.reserve(ranks.size());
        for (const RankTimings& t : ranks) values.push_back(t.*(s.measured));
        StageReport sr;
        sr.stage = s.stage;
        sr.measured_s = median(std::move(values));
        sr.predicted_s = proj.*(s.predicted);
        sr.efficiency = ratio(sr.predicted_s, sr.measured_s);
        stage_median[sr.stage] = sr.measured_s;
        r.stages.push_back(std::move(sr));
    }

    // Per-batch join: mean over ranks of the summed span seconds of each
    // batch, against Eqs. 13-16's per-batch prediction.
    std::map<index_t, perfmodel::BatchTimes> batch_measured;
    std::size_t ranks_with_spans = 0;
    for (const RankTimings& t : ranks) {
        if (t.spans.empty()) continue;
        ++ranks_with_spans;
        for (const TraceEvent& sp : t.spans) {
            if (sp.item < 0) continue;
            double perfmodel::BatchTimes::* field = batch_field(sp.name);
            if (field == nullptr) continue;
            batch_measured[sp.item].*field += sp.end - sp.begin;
        }
    }
    for (auto& [batch, measured] : batch_measured) {
        const double inv = 1.0 / static_cast<double>(ranks_with_spans);
        for (const StageMap& s : kStageMap) measured.*(s.batch) *= inv;
        BatchReport br;
        br.batch = batch;
        br.measured = measured;
        if (batch >= 0 && static_cast<std::size_t>(batch) < proj.batches.size())
            br.predicted = proj.batches[static_cast<std::size_t>(batch)];
        r.batches.push_back(std::move(br));
    }

    // Per-rank summaries with straggler flags.
    for (const RankTimings& t : ranks) {
        RankReport rr;
        rr.rank = t.rank;
        rr.group = t.group;
        rr.wall_s = t.wall;
        rr.busy_s = t.busy();
        rr.overlap = t.overlap();
        rr.efficiency = ratio(proj.runtime, t.wall);
        for (const StageMap& s : kStageMap) {
            const double mine = t.*(s.measured);
            const double med = stage_median[s.stage];
            if (mine > kStragglerFloorSeconds && med > 0.0 && mine > straggler_k * med)
                rr.flags.push_back(std::string("straggler:") + s.stage);
        }
        r.ranks.push_back(std::move(rr));
        r.measured_wall_s = std::max(r.measured_wall_s, t.wall);
    }
    r.efficiency = ratio(proj.runtime, r.measured_wall_s);

    r.fleet = fleet_percentiles(registry().snapshot());
    return r;
}

void write_json(std::ostream& os, const RunReport& r)
{
    const CbctGeometry& g = r.config.geometry;
    core::json::Writer w(os, core::json::Style::Spaced);
    w.begin_object().member("schema", "xct.report.v1");
    w.key("config").begin_object();
    w.key("volume").begin_array().value(g.vol.x).value(g.vol.y).value(g.vol.z).end_array();
    w.key("detector").begin_array().value(g.nu).value(g.nv).end_array();
    w.member("views", g.num_proj).member("groups", r.config.layout.num_groups);
    w.member("ranks_per_group", r.config.layout.ranks_per_group);
    w.member("batches", r.config.batches).member("simd_backend", simd::backend_name());
    w.end_object();
    w.key("model").begin_object().member("runtime_s", r.predicted_runtime_s);
    w.member("gups", r.predicted_gups).member("binding_stage", r.binding_stage).end_object();
    w.key("measured").begin_object().member("wall_s", r.measured_wall_s);
    w.member("efficiency", r.efficiency).member("straggler_k", r.straggler_k).end_object();

    w.key("stages").begin_array();
    for (const StageReport& s : r.stages) {
        w.begin_object().member("stage", s.stage).member("measured_s", s.measured_s);
        w.member("predicted_s", s.predicted_s).member("efficiency", s.efficiency).end_object();
    }
    w.end_array().key("batches").begin_array();
    for (const BatchReport& b : r.batches) {
        w.begin_object().member("batch", b.batch);
        write_batch_times(w.key("measured"), b.measured);
        write_batch_times(w.key("predicted"), b.predicted);
        w.end_object();
    }
    w.end_array().key("ranks").begin_array();
    for (const RankReport& k : r.ranks) {
        w.begin_object().member("rank", k.rank.value()).member("group", k.group.value());
        w.member("wall_s", k.wall_s).member("busy_s", k.busy_s).member("overlap", k.overlap);
        w.member("efficiency", k.efficiency).key("flags").begin_array();
        for (const std::string& f : k.flags) w.value(f);
        w.end_array().end_object();
    }
    w.end_array().key("fleet").begin_array();
    for (const FleetStage& f : r.fleet) {
        w.begin_object().member("stage", f.stage).member("ranks", f.ranks);
        w.member("p50_s", f.p50_s).member("p95_s", f.p95_s).member("p99_s", f.p99_s);
        w.end_object();
    }
    w.end_array().end_object();
    os << "\n";
}

void write_json(const std::filesystem::path& path, const RunReport& r)
{
    std::ofstream os(path, std::ios::binary);
    require(os.is_open(), "report: cannot open " + path.string());
    write_json(os, r);
}

}  // namespace xct::telemetry::report
