// serve-mixed: an open loop against the real xct_serve daemon.  One
// generator thread submits seeded jobs at their due times (a fixed rate,
// one arrival at a seeded time per slot); the main thread polls `list` at a fixed cadence to see
// each job reach Running and Done.  A job's latency runs from its due time
// to the poll that first sees it Done.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "io/raw_io.hpp"
#include "recon/fdk.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace xct;

/// Offered load: about half the daemon's measured capacity for this mix
/// (3.3 jobs/s with 2 workers of 2 OpenMP threads each on a 4-core x86
/// host, Tier-1 build).  One
/// arrival falls at a seeded time in each 1/kRate slot: the offered rate
/// is exact in every run and bursts are bounded, which keeps the latency
/// percentiles of one 100-job run steady from seed to seed.
constexpr double kRate = 1.75;
constexpr unsigned kWorkers = 2;
constexpr double kJitter = 0.5;  ///< arrival spread, as a share of the 1/kRate slot
constexpr int kJobs = 100;         ///< >= 100 so >= 10 samples lie beyond p90
constexpr double kLargeShare = 0.2;  ///< one 96^3 job in every 5
constexpr double kDeadline = 60.0;  ///< generous: no job should miss it
constexpr double kPollS = 0.01;     ///< `list` polling cadence
constexpr double kDrainS = 60.0;    ///< give up on jobs not done this long after the last due
/// rmse_flat bound of a job's output against its own voxelised phantom.
constexpr double kRmseBound = 0.03;
/// Daemon start-up takes milliseconds, so it is repeated more often than
/// the recon workloads' set-up to steady its median.
constexpr int kServeSetupReps = 9;

struct Mix {
    double scale;
    index_t small, large;
    int jobs;
    double rate;
};

Mix mix_of(const Options& o)
{
    return o.tiny ? Mix{12.0, 32, 48, 12, 8.0} : Mix{8.0, 64, 96, kJobs, kRate};
}

/// What the generator submits, and what the poller observes.
struct Job {
    double due = 0.0;  ///< seconds after the loop start
    index_t volume = 0;
    serve::JobSpec spec;
    // generator
    double sent = 0.0, submit_rt = 0.0;
    bool submitted = false, accepted = false;
    serve::JobId id = 0;
    double predicted_s = 0.0;
    std::string reason;
    // poller
    double running = -1.0, done = -1.0;
    serve::JobState state = serve::JobState::Queued;
    std::string output;
};

/// The phantom the daemon reconstructs for a spec (serve::Engine's source).
std::vector<phantom::Ellipsoid> job_phantom(const CbctGeometry& g, std::uint64_t seed)
{
    return phantom::porous_bean(0.45 * static_cast<double>(g.vol.x) * g.dx, 8, seed);
}

std::vector<Job> schedule(const Options& o, const Mix& m)
{
    Rng rng{o.seed};
    std::vector<Job> jobs(static_cast<std::size_t>(m.jobs));
    // Stratified, so every run offers the same work spread evenly: one
    // large job at a seeded position in each block of 1/kLargeShare jobs,
    // and one arrival at a seeded time in the middle kJitter of each
    // 1/rate slot (the first job opens the window).
    const auto block = static_cast<std::size_t>(std::lround(1.0 / kLargeShare));
    for (std::size_t b = 0; b < jobs.size(); b += block) {
        const std::size_t n = std::min(block, jobs.size() - b);
        for (std::size_t i = 0; i < n; ++i) jobs[b + i].volume = m.small;
        jobs[b + rng.next() % n].volume = m.large;
    }
    std::vector<double> dues(jobs.size(), 0.0);
    for (std::size_t i = 1; i < dues.size(); ++i)
        dues[i] = (static_cast<double>(i) - 0.5 + kJitter * (rng.uniform() - 0.5)) / m.rate;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        Job& j = jobs[i];
        j.due = dues[i];
        j.spec.geometry = workload_geometry(m.scale, j.volume);
        j.spec.phantom_seed = 1 + rng.next() % 1000000007ull;
        const double p = rng.uniform();
        j.spec.priority = p < 0.25   ? serve::Priority::Low
                          : p < 0.75 ? serve::Priority::Normal
                                     : serve::Priority::High;
        j.spec.tenant = rng.next() % 2 == 0 ? "tenant-a" : "tenant-b";
        j.spec.deadline_s = kDeadline;
    }
    return jobs;
}

/// One xct_serve daemon process, stopped and reaped on destruction.
class Daemon {
public:
    Daemon(const Options& o, const std::filesystem::path& spool)
        : socket_(spool / "s.sock")
    {
        std::filesystem::create_directories(spool);
        const std::string bin = o.daemon.string(), sp = spool.string(), so = socket_.string(),
                          log = (spool / "daemon.log").string();
        std::vector<std::string> args = {bin,  "--spool",   sp,
                                         "--socket", so, "--workers", std::to_string(kWorkers)};
        std::vector<char*> argv;
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        // The two workers split the cores: a session then runs about as
        // fast alone as next to another, so latency does not hinge on
        // whether arrivals happened to overlap.
        const unsigned cores = std::max(2u, std::thread::hardware_concurrency());
        std::string omp = "OMP_NUM_THREADS=" + std::to_string(cores / kWorkers);
        std::vector<char*> envp;
        for (char** e = environ; *e != nullptr; ++e)
            if (std::strncmp(*e, "OMP_NUM_THREADS=", 16) != 0) envp.push_back(*e);
        envp.push_back(omp.data());
        envp.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), envp.data());
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) throw std::runtime_error("perfbench: cannot start " + bin);
        const double give_up = now_s() + 30.0;
        while (true) {
            try {
                request("{\"op\":\"ping\"}");
                return;
            } catch (const std::exception&) {
                int status = 0;
                if (waitpid(pid_, &status, WNOHANG) == pid_) {
                    pid_ = -1;
                    throw std::runtime_error("perfbench: daemon exited at start-up, see " + log);
                }
                if (now_s() > give_up) {
                    kill(pid_, SIGKILL);
                    waitpid(pid_, nullptr, 0);
                    throw std::runtime_error("perfbench: daemon never answered, see " + log);
                }
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        }
    }
    ~Daemon()
    {
        if (pid_ <= 0) return;
        try {
            stop();
        } catch (const std::exception&) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    std::string request(const std::string& line) const
    {
        return serve::unix_request(socket_, line, 30.0);
    }
    /// Graceful shutdown; returns once the process has exited.
    void stop()
    {
        request("{\"op\":\"shutdown\"}");
        waitpid(pid_, nullptr, 0);
        pid_ = -1;
    }
    int pid() const { return pid_; }

private:
    std::filesystem::path socket_;
    pid_t pid_ = -1;
};

serve::Json ok_reply(const std::string& line)
{
    serve::Json j = serve::Json::parse(line);
    const serve::Json* ok = j.find("ok");
    if (ok == nullptr || !ok->as_bool("ok"))
        throw std::runtime_error("perfbench: daemon error: " + line);
    return j;
}

}  // namespace

void run_serve(const Options& o, Result& r, std::vector<telemetry::TraceEvent>& events)
{
    const Mix m = mix_of(o);

    // Set-up: the seeded schedule plus daemon start-up to its first ping.
    std::vector<Job> jobs;
    std::optional<Daemon> daemon;
    std::vector<double> setups;
    for (int rep = 0; rep < kServeSetupReps; ++rep) {
        if (daemon) daemon->stop();
        daemon.reset();
        const double t0 = now_s();
        jobs = schedule(o, m);
        daemon.emplace(o, o.work / ("spool" + std::to_string(rep)));
        setups.push_back(now_s() - t0);
    }

    // Open loop.
    std::mutex mu;
    const double t0 = now_s();
    // jthread: joined (after a stop request) on every exit path, before the
    // daemon it talks to is stopped.
    std::jthread generator([&](std::stop_token stop) {
        for (Job& j : jobs) {
            const double due = t0 + j.due;
            for (double now = now_s(); now < due && !stop.stop_requested(); now = now_s())
                std::this_thread::sleep_for(std::chrono::duration<double>(std::min(due - now, 0.05)));
            if (stop.stop_requested()) return;
            serve::Request req;
            req.op = "submit";
            req.spec = j.spec;
            const double sent = now_s();
            std::string reason;
            bool accepted = false;
            serve::JobId id = 0;
            double predicted = 0.0;
            try {
                const serve::Json rep = ok_reply(daemon->request(serve::encode_request(req)));
                accepted = rep.find("accepted")->as_bool("accepted");
                id = static_cast<serve::JobId>(rep.find("id")->as_number("id"));
                predicted = rep.find("predicted_s")->as_number("predicted_s");
                reason = rep.find("reason")->as_string("reason");
            } catch (const std::exception& e) {
                reason = e.what();
            }
            const double back = now_s();
            std::lock_guard<std::mutex> lk(mu);
            j.sent = sent;
            j.submit_rt = back - sent;
            j.submitted = true;
            j.accepted = accepted;
            j.id = id;
            j.predicted_s = predicted;
            j.reason = reason;
        }
    });

    const double give_up = t0 + jobs.back().due + kDrainS;
    while (true) {
        std::this_thread::sleep_for(std::chrono::duration<double>(kPollS));
        std::string reply;
        try {
            reply = daemon->request("{\"op\":\"list\"}");
        } catch (const std::exception& e) {
            r.fail(std::string("list: ") + e.what());
            break;
        }
        const double seen = now_s();
        const serve::Json list = ok_reply(reply);
        std::lock_guard<std::mutex> lk(mu);
        std::map<serve::JobId, Job*> by_id;
        bool settled = true;
        for (Job& j : jobs) {
            if (j.submitted && j.accepted) by_id[j.id] = &j;
            if (!j.submitted || (j.accepted && !serve::is_terminal(j.state))) settled = false;
        }
        for (const serve::Json& js : list.find("jobs")->array) {
            const serve::JobStatus st = serve::decode_status(js);
            const auto it = by_id.find(st.id);
            if (it == by_id.end()) continue;
            Job& j = *it->second;
            if (st.state != serve::JobState::Queued && j.running < 0.0) j.running = seen;
            if (serve::is_terminal(st.state) && j.done < 0.0) {
                j.done = seen;
                j.output = st.output;
            }
            j.state = st.state;
        }
        if (settled || seen > give_up) break;
    }
    generator.request_stop();
    generator.join();
    const double daemon_rss = peak_rss_mib(daemon->pid());
    daemon->stop();

    // Verify every job: Done, and its volume within the bound of its own
    // voxelised phantom.
    std::vector<double> latency, run_s, queue_wait, submit, lag, errors, predicted, pred_over;
    std::map<index_t, std::vector<double>> run_by_volume;
    std::map<index_t, std::uint64_t> seed_of_volume;
    double first_due = jobs.front().due, last_done = 0.0, updates = 0.0;
    for (Job& j : jobs) {
        ++r.attempted;
        lag.push_back(j.sent - (t0 + j.due));
        submit.push_back(j.submit_rt);
        if (j.state != serve::JobState::Done) {
            ++r.failed;
            r.fail("job due at " + std::to_string(j.due) + " s ended " +
                   serve::to_string(j.state) + (j.reason.empty() ? "" : ": " + j.reason));
            continue;
        }
        const CbctGeometry& g = j.spec.geometry;
        const Volume v = io::read_volume(j.output);
        const double e = v.size().x == g.vol.x && v.size().z == g.vol.z
                             ? recon::rmse_flat(v, phantom::voxelize(
                                                       job_phantom(g, j.spec.phantom_seed), g))
                             : INFINITY;
        if (!(e <= kRmseBound)) {
            ++r.failed;
            r.fail("job " + std::to_string(j.id) + ": rmse_flat " + std::to_string(e) +
                   " > bound " + std::to_string(kRmseBound));
            continue;
        }
        errors.push_back(e);
        latency.push_back(j.done - (t0 + j.due));
        queue_wait.push_back(j.running - j.sent);
        run_s.push_back(j.done - j.running);
        run_by_volume[j.volume].push_back(j.done - j.running);
        seed_of_volume.emplace(j.volume, j.spec.phantom_seed);
        predicted.push_back(j.predicted_s);
        // A job seen Queued, then Done, ran within one poll interval.
        if (j.done > j.running) pred_over.push_back(j.predicted_s / (j.done - j.running));
        last_done = std::max(last_done, j.done - t0);
        updates += static_cast<double>(g.vol.count()) * static_cast<double>(g.num_proj);
    }
    if (latency.empty()) {
        r.fail("no job completed");
        return;
    }
    const double window = last_done - first_due;

    if (!o.trace) {
        r.add("setup_s", median(setups), "s");
        r.add("recon_s", median(run_s), "s");
        r.add("gups", updates / window / 1e9, "GUPS");
        r.add("rmse_flat", median(errors), "1/mm");
        r.add("peak_rss_mib", daemon_rss, "MiB");
        r.add("job_p50_s", median(latency), "s");
        r.add("job_p90_s", quantile(latency, 0.9), "s");
        r.add("jobs_per_s", static_cast<double>(latency.size()) / window, "1/s");
        std::printf("serve: %zu jobs offered at %.3f/s, %zu done, %.3f/s completed\n",
                    jobs.size(), m.rate, latency.size(),
                    static_cast<double>(latency.size()) / window);
        return;
    }

    // Traced: replay each job shape once, with its analytic PhantomSource.
    LayerReport lr;
    for (const auto& [volume, runs] : run_by_volume) {
        ReplayInput in;
        in.geometry = workload_geometry(m.scale, volume);
        const auto ph = job_phantom(in.geometry, seed_of_volume[volume]);
        const CbctGeometry g = in.geometry;
        in.make_source = [ph, g](RankId) {
            return std::make_unique<recon::PhantomSource>(ph, g);
        };
        in.store_dir = o.work / ("replay" + std::to_string(volume));
        const Volume reference = phantom::voxelize(ph, g);
        const auto checked = [&](bool traced) {
            ReplayResult rr = replay(in, traced, r);
            ++r.attempted;
            const double e = recon::rmse_flat(rr.volume, reference);
            if (!(e <= kRmseBound)) {
                ++r.failed;
                r.fail("replay " + std::to_string(volume) + "^3: rmse_flat " + std::to_string(e));
            }
            return rr;
        };
        // The traced replay is bracketed by two untraced ones, so drift
        // between consecutive replays does not read as tracing overhead.
        const double before = checked(false).wall_s;
        ReplayResult traced = checked(true);
        const double after = checked(false).wall_s;
        events.insert(events.end(), traced.events.begin(), traced.events.end());
        lr.layers += traced.layers;
        lr.traced_wall_s += traced.wall_s;
        lr.untraced_wall_s += 0.5 * (before + after);
        lr.pipelined_s += median(runs);
    }
    lr.model_predicted_s = median(predicted);
    lr.model_measured_s = median(run_s);
    lr.submit_s = median(submit);
    lr.queue_wait_p50_s = median(queue_wait);
    lr.queue_wait_p90_s = quantile(queue_wait, 0.9);
    lr.run_p50_s = median(run_s);
    lr.predicted_over_measured = median(pred_over);
    lr.lag_p90_s = quantile(lag, 0.9);
    add_layer_metrics(r, lr);
}

}  // namespace perfbench
