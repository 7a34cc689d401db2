#include "autotune/calibrate.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/decompose.hpp"
#include "core/json.hpp"

namespace xct::autotune {

namespace {

std::size_t idx(Param p)
{
    return static_cast<std::size_t>(p);
}

std::string read_text(const std::string& path)
{
    std::ifstream in(path);
    if (!in) throw std::runtime_error("autotune: cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

}  // namespace

void Calibrator::observe(Param p, double work, double seconds)
{
    if (work <= 0.0 || seconds <= 0.0) return;
    Acc& a = acc_[idx(p)];
    a.work += work;
    a.seconds += seconds;
    ++a.n;
}

void Calibrator::observe_bench_file(const std::string& path)
{
    const core::Json doc = core::Json::parse(read_text(path));
    const auto take = [&](const char* section, const char* key, Param p) {
        const core::Json* s = doc.find(section);
        const core::Json* v = s != nullptr ? s->find(key) : nullptr;
        if (v == nullptr || v->type != core::Json::Type::Number) return false;
        observe(p, v->number, 1.0);  // the bench reports a rate: work per 1 s
        return true;
    };
    if (!take("backproj", "updates_per_s_simd", Param::ThBp))
        take("backproj", "updates_per_s_scalar", Param::ThBp);
    take("filter", "elems_per_s_fp32", Param::ThFlt);
}

void Calibrator::observe_run(const perfmodel::RunConfig& cfg,
                             const std::vector<MeasuredRank>& ranks)
{
    cfg.geometry.validate();
    const CbctGeometry& g = cfg.geometry;
    for (const MeasuredRank& r : ranks) {
        const RankId rank{r.rank_index};
        const index_t views = cfg.layout.views_of_rank(rank, g.num_proj).length();
        const Range slices = cfg.layout.slices_of_group(cfg.layout.group_of(rank), g.vol.z);
        if (views <= 0 || slices.empty()) continue;
        const index_t nb = (slices.length() + cfg.batches - 1) / cfg.batches;
        const auto plans = plan_slabs(g, slices, nb);
        // Work terms exactly as batch_times derives them: the first slab
        // stages its full row window, later slabs only their deltas.
        double staged_rows = 0.0;
        for (std::size_t i = 0; i < plans.size(); ++i)
            staged_rows += static_cast<double>(i == 0 ? plans[i].rows.length()
                                                      : plans[i].delta.length());
        const double in_elems = static_cast<double>(g.nu) * static_cast<double>(views) *
                                staged_rows;
        const double updates = static_cast<double>(g.vol.x) * static_cast<double>(g.vol.y) *
                               static_cast<double>(slices.length()) *
                               static_cast<double>(views);
        observe(Param::BwLoad, sizeof(float) * in_elems, r.load_s);
        observe(Param::ThFlt, in_elems, r.filter_s);
        observe(Param::ThBp, updates, r.bp_s);
        observe(Param::BwH2d, static_cast<double>(r.h2d_bytes), r.h2d_s);
        observe(Param::BwD2h, static_cast<double>(r.d2h_bytes), r.d2h_s);
    }
}

std::size_t Calibrator::samples() const
{
    std::size_t n = 0;
    for (const Acc& a : acc_) n += a.n;
    return n;
}

perfmodel::MachineParams Calibrator::fit(const perfmodel::MachineParams& base) const
{
    perfmodel::MachineParams m = base;
    const auto rate = [&](Param p, double& field) {
        const Acc& a = acc_[idx(p)];
        if (a.n == 0 || a.seconds <= 0.0) return;
        field = a.work / a.seconds / 1e9;  // all model rates are giga-units
    };
    rate(Param::BwLoad, m.bw_load_gbps);
    rate(Param::BwStore, m.bw_store_gbps);
    rate(Param::ThFlt, m.th_flt_geps);
    rate(Param::ThBp, m.th_bp_gups);
    rate(Param::ThReduce, m.th_reduce_gbps);
    rate(Param::BwH2d, m.bw_h2d_gbps);
    rate(Param::BwD2h, m.bw_d2h_gbps);
    return m;
}

std::string machine_json(const perfmodel::MachineParams& m)
{
    std::ostringstream ss;
    core::json::Writer w(ss, core::json::Style::Spaced);
    w.begin_object().member("schema", "xct.machine.v1");
    w.member("bw_load_gbps", m.bw_load_gbps).member("bw_store_gbps", m.bw_store_gbps);
    w.member("th_flt_geps", m.th_flt_geps).member("th_bp_gups", m.th_bp_gups);
    w.member("th_reduce_gbps", m.th_reduce_gbps).member("bw_h2d_gbps", m.bw_h2d_gbps);
    w.member("bw_d2h_gbps", m.bw_d2h_gbps).end_object();
    ss << "\n";
    return ss.str();
}

void write_machine_json(const std::string& path, const perfmodel::MachineParams& m)
{
    std::ofstream out(path);
    if (!out) throw std::runtime_error("autotune: cannot write " + path);
    out << machine_json(m);
}

perfmodel::MachineParams read_machine_json(const std::string& path)
{
    const core::Json doc = core::Json::parse(read_text(path));
    perfmodel::MachineParams m;
    const auto need = [&](const char* key, double& field) {
        const core::Json* v = doc.find(key);
        if (v == nullptr || v->type != core::Json::Type::Number)
            throw std::runtime_error("autotune: " + path + " is missing key '" + key + "'");
        if (v->number <= 0.0)
            throw std::runtime_error("autotune: " + path + " key '" + key +
                                     "' must be positive");
        field = v->number;
    };
    need("bw_load_gbps", m.bw_load_gbps);
    need("bw_store_gbps", m.bw_store_gbps);
    need("th_flt_geps", m.th_flt_geps);
    need("th_bp_gups", m.th_bp_gups);
    need("th_reduce_gbps", m.th_reduce_gbps);
    need("bw_h2d_gbps", m.bw_h2d_gbps);
    need("bw_d2h_gbps", m.bw_d2h_gbps);
    return m;
}

}  // namespace xct::autotune
