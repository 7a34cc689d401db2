#include "soak/soak.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>

#include "autotune/calibrate.hpp"
#include "autotune/planner.hpp"
#include "core/json.hpp"
#include "core/names.hpp"
#include "integrity/integrity.hpp"
#include "io/datasets.hpp"
#include "phantom/shepp_logan.hpp"
#include "recon/distributed.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace xct::soak {
namespace {

using clock_t_ = std::chrono::steady_clock;

/// Pipeline stage (perfmodel::SimFault numbering) a fault site's recovery
/// delay lands on.
index_t stage_of(const std::string& site)
{
    if (site == names::kSiteSourceLoad || site == names::kSitePfsLoad ||
        site == names::kSiteRankStall)
        return 0;  // load
    if (site == names::kSiteSimH2d || site == names::kSiteSimD2h ||
        site == names::kSiteBandDecode)
        return 2;  // bp owns transfers and band decode
    if (site == names::kSiteMinimpiReduceSum) return 3;                      // reduce
    if (site == names::kSitePfsStore) return 4;                              // store
    return 0;
}

/// Service time of `stage` at batch `b` — the cost of re-executing it
/// once after a detected corruption.
double stage_service(const std::vector<perfmodel::BatchTimes>& bt, index_t stage, index_t batch)
{
    const auto& t = bt[static_cast<std::size_t>(
        std::clamp<index_t>(batch, 0, static_cast<index_t>(bt.size()) - 1))];
    switch (stage) {
        case 0: return t.load;
        case 1: return t.filter;
        case 2: return t.h2d + t.bp + t.d2h;
        case 3: return t.reduce;
        default: return t.store;
    }
}

/// Deterministic sentinel payload for the event-tier corruption replay.
void fill_sentinel(std::vector<float>& buf, JobId job_id, std::size_t salt)
{
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<float>(
                     (static_cast<std::size_t>(job_id.value()) * 131u + salt * 17u + i) % 1021u) *
                 0.5f;
}

std::uint64_t counter_value(const std::string& name)
{
    return telemetry::registry().counter(name).value();
}

/// Replay one job's planned corruptions through the real fault engine and
/// digest verification: install the plan under the job's scope, fire each
/// spec on a sentinel buffer, catch the IntegrityError, re-fetch, verify
/// clean.  Returns false when any step deviates (the job is then wedged).
bool replay_corruptions(const JobSpec& job, index_t* injected, index_t* detected)
{
    faults::ScopedJob scope(job.seed);
    faults::ScopedPlan install(job.plan());
    integrity::ScopedEnable verify_on(true);
    bool ok = true;
    std::vector<float> buf(256);
    for (std::size_t fi = 0; fi < job.faults.size(); ++fi) {
        const PlannedFault& f = job.faults[fi];
        if (f.kind != faults::FaultKind::Corrupt) continue;
        telemetry::set_current_rank(f.rank);
        fill_sentinel(buf, job.id, fi);
        const auto bytes = std::as_writable_bytes(std::span<float>(buf));
        const integrity::digest_t digest =
            integrity::checksum(std::span<const std::byte>(bytes.data(), bytes.size()));
        const index_t flips = faults::corrupt(f.site.c_str(), bytes);
        if (flips <= 0) {
            ok = false;  // the plan did not fire where the schedule said
            continue;
        }
        ++*injected;
        bool caught = false;
        try {
            integrity::verify(f.site.c_str(), std::span<const std::byte>(bytes.data(),
                                                                         bytes.size()),
                              digest);
        } catch (const integrity::IntegrityError&) {
            caught = true;
        }
        if (!caught) {
            ok = false;  // silent corruption escaped the digest check
            continue;
        }
        ++*detected;
        // Recovery: re-fetch the clean payload and verify it passes.
        fill_sentinel(buf, job.id, fi);
        try {
            integrity::verify(f.site.c_str(), std::span<const std::byte>(bytes.data(),
                                                                         bytes.size()),
                              digest);
        } catch (const integrity::IntegrityError&) {
            ok = false;  // retry did not converge: the job is wedged
        }
    }
    telemetry::set_current_rank(RankId{0});
    return ok;
}

bool bitwise_equal(const Volume& a, const Volume& b)
{
    const auto sa = a.span();
    const auto sb = b.span();
    return sa.size() == sb.size() &&
           std::memcmp(sa.data(), sb.data(), sa.size() * sizeof(float)) == 0;
}

/// The live tier: one clean and one chaos-faulted reconstruct_distributed
/// run of a small evaluation-dataset job on real minimpi pipelines;
/// returns bitwise equality of the recovered volume.  When `cal` is
/// non-null, the clean run's measured per-rank stage times are fed back
/// into the calibrator — the substrate-drift loop of DESIGN.md §3j.
bool run_live_job(const SoakConfig& cfg, std::uint64_t seed, double* wall_s,
                  autotune::Calibrator* cal)
{
    const io::Dataset ds =
        io::dataset_by_name(
              evaluation_datasets()[static_cast<std::size_t>(seed % evaluation_datasets().size())])
            .scaled(64.0)
            .with_volume(28);
    const CbctGeometry& g = ds.geometry;
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    recon::DistributedConfig dcfg;
    dcfg.geometry = g;
    dcfg.layout = GroupLayout{2, 2};
    dcfg.batches = 4;
    dcfg.device_capacity = 256u << 20;
    const auto factory = [&](RankId) { return std::make_unique<recon::PhantomSource>(ph, g); };

    const auto t0 = clock_t_::now();
    const recon::DistributedResult clean = recon::reconstruct_distributed(dcfg, factory);

    if (cal) {
        perfmodel::RunConfig rc;
        rc.geometry = g;
        rc.layout = dcfg.layout;
        rc.batches = dcfg.batches;
        std::vector<autotune::MeasuredRank> measured;
        measured.reserve(clean.ranks.size());
        for (std::size_t i = 0; i < clean.ranks.size(); ++i) {
            const recon::RankStats& rs = clean.ranks[i];
            autotune::MeasuredRank mr;
            mr.rank_index = static_cast<index_t>(i);
            mr.load_s = rs.t_load;
            mr.filter_s = rs.t_filter;
            mr.bp_s = rs.t_bp;
            mr.h2d_bytes = rs.h2d.bytes;
            mr.h2d_s = rs.h2d.seconds;
            mr.d2h_bytes = rs.d2h.bytes;
            mr.d2h_s = rs.d2h.seconds;
            measured.push_back(mr);
        }
        cal->observe_run(rc, measured);
    }

    // The chaos twin: one corruption on each of the three bulk-movement
    // classes (pinned to live ranks 0..2 so the stalled rank 3, declared
    // dead by the health probe, cannot swallow a planned injection), plus
    // a stall past the watchdog deadline that the degraded reduce absorbs.
    faults::ScopedJob scope(seed | 1ull);
    faults::FaultPlan plan(seed | 1ull);
    faults::FaultSpec corrupt0;
    corrupt0.after = 2;
    corrupt0.count = 1;
    corrupt0.rank = RankId{0};
    corrupt0.kind = faults::FaultKind::Corrupt;
    plan.add(names::kSiteSourceLoad, corrupt0);
    faults::FaultSpec corrupt1 = corrupt0;
    corrupt1.after = 3;
    corrupt1.rank = RankId{1};
    plan.add(names::kSiteSimH2d, corrupt1);
    faults::FaultSpec corrupt2 = corrupt0;
    corrupt2.after = 0;
    corrupt2.rank = RankId{2};
    plan.add(names::kSiteMinimpiReduceSum, corrupt2);
    faults::FaultSpec stall;
    stall.after = 0;
    stall.count = 1;
    stall.rank = RankId{3};
    stall.kind = faults::FaultKind::Stall;
    stall.stall_s = cfg.live_stall_delay_s;
    plan.add(names::kSiteRankStall, stall);

    faults::ScopedPlan install(std::move(plan));
    integrity::ScopedEnable verify_on(true);
    recon::DistributedConfig chaos = dcfg;
    chaos.retry.emplace();
    chaos.retry->max_attempts = 6;
    chaos.degraded_reduce = true;
    chaos.watchdog_timeout_s = cfg.live_watchdog_timeout_s;
    const recon::DistributedResult faulted = recon::reconstruct_distributed(chaos, factory);
    *wall_s += std::chrono::duration<double>(clock_t_::now() - t0).count();
    return bitwise_equal(clean.volume, faulted.volume);
}

/// Nearest-rank-with-interpolation quantile of a sorted vector.
double sorted_quantile(const std::vector<double>& sorted, double q)
{
    if (sorted.empty()) return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

core::Json::Members deterministic_section(const SoakSummary& s)
{
    const double detection_ratio =
        s.injected > 0 ? static_cast<double>(s.detected) / static_cast<double>(s.injected) : 0.0;
    return {{"fleet_ranks", s.fleet_ranks},
            {"epochs", s.epochs},
            {"jobs", s.jobs},
            {"degraded_jobs", s.degraded},
            {"wedged_jobs", s.wedged},
            {"injected", s.injected},
            {"detected", s.detected},
            {"detection_ratio", detection_ratio},
            {"sites_match", s.sites_match ? 1 : 0},
            {"stall_injected", s.stall_injected},
            {"stall_detected", s.stall_detected},
            {"makespan_hours", s.makespan_s / 3600.0},
            {"jobs_per_hour", s.jobs_per_hour},
            {"latency_p50_s", s.latency_p50_s},
            {"latency_p95_s", s.latency_p95_s},
            {"latency_p99_s", s.latency_p99_s},
            {"p99_vs_predicted", s.p99_vs_predicted},
            {"live_jobs", s.live_jobs},
            {"live_bitwise_identical", s.live_bitwise_identical ? 1 : 0},
            {"autotuned", s.autotuned ? 1 : 0}};
}

}  // namespace

SoakSummary run(const SoakConfig& cfg)
{
    const auto harness_t0 = clock_t_::now();
    SoakSummary s;
    s.fleet_ranks = cfg.schedule.fleet_ranks;
    s.epochs = cfg.schedule.epochs;

    // Per-site twin counters are measured as registry deltas so both the
    // event replay and the live tier land in the same books.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> before;
    for (const char* site : corrupt_sites())
        before.emplace_back(
            counter_value(std::string(names::kMetricFaultsInjectedPrefix) + site),
            counter_value(std::string(names::kMetricIntegrityDetectedPrefix) + site));

    const std::vector<JobSpec> schedule = make_schedule(cfg.schedule);
    auto& reg = telemetry::registry();
    auto& latency_hist = reg.histogram(names::kMetricSoakLatencySeconds,
                                       telemetry::exp_bounds(1e-6, 2.0, 48));

    // Greedy fleet placement: each FIFO job takes the nranks
    // earliest-free ranks; virtual time, fully deterministic.
    std::vector<double> free_at(static_cast<std::size_t>(cfg.schedule.fleet_ranks), 0.0);
    std::vector<std::size_t> order(free_at.size());
    std::vector<double> latencies, ratios;
    latencies.reserve(schedule.size());
    ratios.reserve(schedule.size());

    for (const JobSpec& job : schedule) {
        JobResult jr;
        jr.id = job.id;

        const io::Dataset ds = io::dataset_by_name(job.dataset).scaled(job.scale);
        perfmodel::RunConfig rc;
        rc.geometry = ds.geometry;
        rc.layout = job.layout;
        rc.batches = job.batches;
        index_t ranks_used = job.nranks();
        index_t queue_depth = cfg.queue_capacity;
        if (cfg.autotune) {
            // Plan on the *fixed* event-tier machine so the schedule stays
            // seed-deterministic; the job's own shape rides along as
            // must_score, so the pick is never slower than it.
            autotune::JobShape shape;
            shape.geometry = ds.geometry;
            shape.rank_budget = job.nranks();
            shape.device_capacity = cfg.device_capacity;
            const autotune::Candidate fixed{job.layout, job.batches, cfg.queue_capacity};
            try {
                const autotune::Plan plan = autotune::plan_job(shape, cfg.machine, {fixed});
                rc.layout = plan.layout;
                rc.batches = plan.batches;
                ranks_used = plan.layout.nranks();
                queue_depth = plan.queue_depth;
            } catch (const std::invalid_argument&) {
                // Nothing fits the device budget — keep the fixed shape,
                // exactly as a non-autotuned fleet would.
            }
        }
        const auto bt = perfmodel::batch_times(rc, cfg.machine);

        // Fold every planned fault into event-sim perturbations.
        std::vector<perfmodel::SimFault> events;
        double fault_delay = 0.0;
        for (const PlannedFault& f : job.faults) {
            const index_t stage = stage_of(f.site);
            double delay = 0.0;
            if (f.kind == faults::FaultKind::Corrupt) {
                delay = stage_service(bt, stage, f.batch);  // one re-execution
            } else if (f.kind == faults::FaultKind::Stall) {
                delay = f.delay_s;
                ++s.stall_injected;
                reg.counter(names::kMetricSoakStallInjected).add(1);
                if (f.delay_s > cfg.watchdog_timeout_s) {
                    ++s.stall_detected;
                    reg.counter(names::kMetricSoakStallDetected).add(1);
                }
            }
            if (delay > 0.0) {
                events.push_back(perfmodel::SimFault{stage, f.batch, delay});
                fault_delay += delay;
            }
        }
        if (job.dropout) {
            // Takeover: one survivor replays the dead rank's whole GPU
            // share on top of its own (the PR 2 degraded reduce).
            for (std::size_t b = 0; b < bt.size(); ++b) {
                const double delay = stage_service(bt, 2, static_cast<index_t>(b));
                events.push_back(perfmodel::SimFault{2, static_cast<index_t>(b), delay});
                fault_delay += delay;
            }
            jr.state = JobState::DegradedDone;
        }

        // The injection / detection / recovery machinery runs for real.
        if (!replay_corruptions(job, &jr.injected, &jr.detected)) jr.state = JobState::Wedged;

        jr.latency_s = perfmodel::simulate_faulted(rc, cfg.machine, events, queue_depth)
                           .runtime;
        jr.bound_s = perfmodel::tail_latency_bound(rc, cfg.machine, fault_delay, cfg.p99_slack,
                                                   queue_depth);

        // Place the job on the earliest-free ranks of the fleet (the
        // planner may have shrunk the job below its scheduled rank ask).
        const std::size_t k = static_cast<std::size_t>(ranks_used);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                         [&](std::size_t a, std::size_t b) { return free_at[a] < free_at[b]; });
        jr.start_s = free_at[order[k - 1]];
        jr.finish_s = jr.start_s + jr.latency_s;
        for (std::size_t i = 0; i < k; ++i) free_at[order[i]] = jr.finish_s;
        s.makespan_s = std::max(s.makespan_s, jr.finish_s);

        latency_hist.observe(jr.latency_s);
        latencies.push_back(jr.latency_s);
        ratios.push_back(jr.bound_s > 0.0 ? jr.latency_s / jr.bound_s : 0.0);
        reg.counter(names::kMetricSoakJobs).add(1);
        if (jr.state == JobState::DegradedDone)
            reg.counter(names::kMetricSoakJobsDegraded).add(1);
        if (jr.state == JobState::Wedged) reg.counter(names::kMetricSoakJobsWedged).add(1);
        s.degraded += jr.state == JobState::DegradedDone ? 1 : 0;
        s.wedged += jr.state == JobState::Wedged ? 1 : 0;
        s.job_results.push_back(std::move(jr));
    }
    s.jobs = static_cast<index_t>(schedule.size());
    s.jobs_per_hour =
        s.makespan_s > 0.0 ? static_cast<double>(s.jobs) / (s.makespan_s / 3600.0) : 0.0;

    std::sort(latencies.begin(), latencies.end());
    std::sort(ratios.begin(), ratios.end());
    s.latency_p50_s = sorted_quantile(latencies, 0.50);
    s.latency_p95_s = sorted_quantile(latencies, 0.95);
    s.latency_p99_s = sorted_quantile(latencies, 0.99);
    s.p99_vs_predicted = sorted_quantile(ratios, 0.99);

    s.autotuned = cfg.autotune;

    // Live tier: the anchor that the modelled recovery above corresponds
    // to real pipelines surviving the same fault classes.
    autotune::Calibrator cal;
    if (cfg.live) {
        s.live_jobs = 1;
        s.live_bitwise_identical = run_live_job(cfg, cfg.schedule.seed, &s.live_wall_s,
                                                cfg.calibrate ? &cal : nullptr);
    } else {
        s.live_bitwise_identical = true;  // vacuous: nothing to compare
    }
    if (cfg.calibrate && cal.samples() > 0) {
        s.calibrated = true;
        s.calibrated_machine = cal.fit(cfg.machine);
    }

    // Settle the per-site twin counters.
    s.sites.reserve(corrupt_sites().size());
    s.sites_match = true;
    for (std::size_t i = 0; i < corrupt_sites().size(); ++i) {
        SiteCounts sc;
        sc.site = corrupt_sites()[i];
        sc.injected =
            counter_value(std::string(names::kMetricFaultsInjectedPrefix) + sc.site) -
            before[i].first;
        sc.detected =
            counter_value(std::string(names::kMetricIntegrityDetectedPrefix) + sc.site) -
            before[i].second;
        s.injected += sc.injected;
        s.detected += sc.detected;
        if (sc.injected != sc.detected) s.sites_match = false;
        s.sites.push_back(std::move(sc));
    }

    s.harness_wall_s = std::chrono::duration<double>(clock_t_::now() - harness_t0).count();
    return s;
}

std::vector<std::string> check_invariants(const SoakSummary& s)
{
    std::vector<std::string> violations;
    if (!s.sites_match) {
        for (const SiteCounts& sc : s.sites)
            if (sc.injected != sc.detected)
                violations.push_back("detection: site " + sc.site + " injected " +
                                     std::to_string(sc.injected) + " != detected " +
                                     std::to_string(sc.detected));
    }
    if (s.injected == 0)
        violations.push_back("detection: schedule injected no corruptions (vacuous soak)");
    if (s.wedged != 0)
        violations.push_back("liveness: " + std::to_string(s.wedged) +
                             " job(s) wedged (did not reach done/degraded-done)");
    if (s.live_jobs > 0 && !s.live_bitwise_identical)
        violations.push_back("fidelity: live-tier recovered volume differs from the clean run");
    if (s.p99_vs_predicted > 1.0)
        violations.push_back("tail: p99 latency-vs-bound ratio " +
                             std::to_string(s.p99_vs_predicted) + " exceeds 1.0 (perfmodel bound)");
    return violations;
}

std::string deterministic_json(const SoakSummary& s)
{
    // Spaced style puts each root member on its own line: cut that line.
    const std::string doc = core::json::print(
        core::Json::make_object({{"soak", core::Json::make_object(deterministic_section(s))}}),
        core::json::Style::Spaced);
    return doc.substr(4, doc.size() - 6);  // without "{\n  " and "\n}"
}

void write_bench_json(const std::string& path, const SoakSummary& s, bool fresh)
{
    core::json::merge_section(path, "soak", deterministic_section(s), fresh);
    core::json::merge_section(path, "soak_wall",
                              {{"harness_seconds", s.harness_wall_s},
                               {"live_seconds", s.live_wall_s}},
                              false);
    if (s.calibrated) {
        // Live-tier-fitted machine params are host readings, so they sit
        // with the wall-clock books, outside the replay compare.
        const perfmodel::MachineParams& m = s.calibrated_machine;
        core::json::merge_section(path, "soak_machine",
                                  {{"bw_load_gbps", m.bw_load_gbps},
                                   {"bw_store_gbps", m.bw_store_gbps},
                                   {"th_flt_geps", m.th_flt_geps},
                                   {"th_bp_gups", m.th_bp_gups},
                                   {"th_reduce_gbps", m.th_reduce_gbps},
                                   {"bw_h2d_gbps", m.bw_h2d_gbps},
                                   {"bw_d2h_gbps", m.bw_d2h_gbps}},
                                  false);
    }
}

}  // namespace xct::soak
