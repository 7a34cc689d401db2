#pragma once
// The serving engine (DESIGN.md §3k): a long-lived multi-tenant scheduler
// over recon::ReconSession.
//
// Life of a job: submit() journals the spec, prices it through admission
// (reject-with-reason — the caller never wedges), journals the verdict
// and queues it.  Worker threads pick runnable work by (priority desc,
// tenant least-service, FIFO), charge the priced device bytes against the
// daemon-wide budget, propagate the job's remaining deadline into the
// pipeline watchdog, and run the session with a per-job checkpoint
// directory.  cancel() pokes the session's CancelToken — the pipeline
// polls it at every stage boundary, so budget and the worker slot come
// back within one stage.  Overload policy: the queue is bounded
// (admission reason "queue_full"), and queued jobs whose deadline expires
// are shed lowest-priority-first (serve.shed) before anything else runs.
//
// Crash durability: every transition is journaled (fsync) before it takes
// effect, Done strictly after the output volume's atomic rename.  After
// kill -9, the constructor replays the journal: terminal jobs keep their
// status, accepted-but-unfinished jobs are requeued (serve.recovered) and
// resume from their checkpoint directory's last completed slab — the
// rerun is bitwise-identical to an uninterrupted run, so recovered
// volumes equal uncrashed ones byte for byte.
//
// Lock order (lockorder witness): serve.engine -> serve.journal ->
// telemetry.metrics.  Sessions run strictly outside the engine mutex.

#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/mutex.hpp"
#include "perfmodel/model.hpp"
#include "recon/session.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"

namespace xct::serve {

struct EngineConfig {
    std::filesystem::path spool;           ///< journal, checkpoints, outputs
    std::size_t device_budget = 256u << 20;  ///< sum of running jobs' priced bytes
    index_t workers = 2;                   ///< concurrent sessions
    index_t max_queued = 16;               ///< bounded admission queue depth
    perfmodel::MachineParams machine{};    ///< admission's runtime pricing model
    double tail_slack = 1.25;              ///< perfmodel tail-bound slack factor
    bool fsync_journal = true;             ///< tests may trade durability for speed
};

struct SubmitResult {
    JobId id = 0;
    bool accepted = false;
    std::string reason;       ///< stable reject key ("" when accepted)
    std::string detail;
    double predicted_s = 0.0;
};

class Engine {
public:
    /// Opens (or recovers) the spool: replays the journal, restores
    /// terminal job statuses, requeues unfinished accepted jobs.  Call
    /// start() to launch the workers.
    explicit Engine(EngineConfig cfg);
    ~Engine();
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    void start();
    /// Stop accepting and picking work and join the workers.  Running
    /// sessions are cancelled cooperatively but deliberately NOT journaled
    /// as cancelled: an interrupted job stays non-terminal in the journal,
    /// so the next Engine over this spool requeues it — graceful shutdown
    /// and kill -9 converge on the same recovery path.
    void stop();

    SubmitResult submit(const JobSpec& spec);
    /// Throws std::out_of_range for an unknown id.
    JobStatus status(JobId id) const;
    std::vector<JobStatus> list() const;
    /// Request cancellation; true when the job was live (queued jobs
    /// terminalise immediately, running ones within one stage boundary).
    bool cancel(JobId id);
    /// Block until `id` is terminal or `timeout_s` elapses; returns the
    /// final (or current, on timeout) status.
    JobStatus wait(JobId id, double timeout_s);
    /// Block until no job is queued or running (tests, drain-then-stop).
    void drain();

    /// Jobs requeued from the journal by this engine's recovery.
    index_t recovered_jobs() const { return recovered_; }
    /// Journaled jobs whose spec no longer decodes, so recovery lost them.
    index_t dropped_jobs() const { return dropped_; }
    /// Perfmodel tail bound for one accepted job's latency (the overload
    /// proof's p99 ceiling): slack * predicted runtime.
    double tail_bound_s(double predicted_s) const { return cfg_.tail_slack * predicted_s; }

    const EngineConfig& config() const { return cfg_; }

private:
    struct Job {
        JobSpec spec;
        JobState state = JobState::Queued;
        std::string reason;
        std::uint64_t device_bytes = 0;
        double predicted_s = 0.0;
        /// Absolute unix-epoch deadline (0: none).  Survives restarts so
        /// elapsed downtime counts against the budget.
        double deadline_unix = 0.0;
        double submitted_unix = 0.0;
        bool user_cancel = false;  ///< distinguishes client cancel from stop()
        std::shared_ptr<recon::ReconSession> session;  ///< only while Running
        index_t total_slabs = 0, completed_slabs = 0;  ///< last observed
        std::string output;
    };

    // --- all guarded by m_ ---
    mutable Mutex m_{"serve.engine"};
    CondVar work_cv_;   ///< workers wait for runnable jobs
    CondVar state_cv_;  ///< wait()/drain() wait for transitions
    std::map<JobId, Job> jobs_ XCT_GUARDED_BY(m_);
    std::deque<JobId> queue_ XCT_GUARDED_BY(m_);
    std::size_t device_used_ XCT_GUARDED_BY(m_) = 0;
    std::map<std::string, double> tenant_service_ XCT_GUARDED_BY(m_);
    JobId next_id_ XCT_GUARDED_BY(m_) = 1;
    bool stopping_ XCT_GUARDED_BY(m_) = false;
    index_t running_ XCT_GUARDED_BY(m_) = 0;

    EngineConfig cfg_;
    std::unique_ptr<Journal> journal_;
    std::vector<std::thread> workers_;
    index_t recovered_ = 0;
    index_t dropped_ = 0;

    void recover();
    void worker_loop();
    /// Drop queued jobs whose deadline has passed, lowest priority first.
    void shed_expired_locked() XCT_REQUIRES(m_);
    /// Pick the next runnable queued job (priority desc, tenant
    /// least-service, FIFO) that fits the device budget; -1 if none.
    JobId pick_locked() const XCT_REQUIRES(m_);
    void run_job(JobId id);
    void finish(JobId id, JobState state, const std::string& reason);
    JobStatus status_locked(const Job& j, JobId id) const XCT_REQUIRES(m_);
    std::filesystem::path out_path(JobId id, const JobSpec& spec) const;
    std::filesystem::path ckpt_dir(JobId id) const;
};

}  // namespace xct::serve
