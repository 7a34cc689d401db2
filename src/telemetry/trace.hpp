#pragma once
// Span capture across every subsystem of one process: one span type, one
// writer.
//
// A span is a TraceEvent: a named interval with a *category* (the
// subsystem: "pipeline", "minimpi", "sim", "io", "filter"), a *rank* (the
// minimpi world rank, see set_current_rank) and a *lane* (a small
// per-thread id).  record_span() is the only function that writes one,
// and it writes it to up to three stores, all on the flight::wall_now()
// clock:
//
//   * the calling thread's flight ring (telemetry/flight.hpp), always;
//   * the process-wide tracer(), while tracing is enabled — exported as
//     Chrome trace-event JSON (telemetry/export.hpp) that opens in
//     Perfetto / chrome://tracing with pid = rank and tid = lane;
//   * the thread's run log, when a RunLogScope installed one —
//     recon::run_rank keeps one per run and builds its RankStats from it.
//
// The tracer and a run log are the same store class (Tracer); a run log
// is just a second, run-scoped instance, so two concurrent runs in one
// process never see each other's spans.
//
// Cost model: with tracing disabled and no run log, a span costs two
// clock reads and one lock-free ring-slot store (< 2% on the pipeline
// clean path, asserted by the bench flight section); the disabled checks
// are one relaxed atomic load and one thread-local load.  The tracer and
// a run log take a mutex per span — acceptable at span granularity
// (batches, collectives, transfers), which is why the instrumentation sits
// at those boundaries and not inside per-voxel loops.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/ids.hpp"
#include "core/mutex.hpp"
#include "core/types.hpp"
#include "telemetry/flight.hpp"

namespace xct::telemetry {

/// One recorded span.  Times are seconds since the epoch of the store it
/// was read from (absolute wall_now() seconds for flight::snapshot()).
struct TraceEvent {
    std::string name;          ///< e.g. "bp", "reduce_sum", "h2d"
    std::string cat;           ///< subsystem: "pipeline", "minimpi", ...
    RankId rank{};             ///< minimpi world rank (Chrome trace pid)
    index_t lane = 0;          ///< per-thread id (Chrome trace tid)
    index_t item = -1;         ///< batch index, -1 = not applicable
    std::uint64_t bytes = 0;   ///< payload size, 0 = not applicable
    double begin = 0.0;
    double end = 0.0;
};

/// The per-thread rank attribution: minimpi::run() tags each rank thread
/// with its world rank, and recon::run_rank() propagates the tag to its
/// stage threads, so low-level modules (sim::Device, io::Pfs, fft) can
/// attribute work without threading a rank id through every call.
RankId current_rank();
void set_current_rank(RankId rank);

/// Write one completed span, given absolute flight::wall_now() times, to
/// the calling thread's flight ring, to tracer() when it is enabled, and
/// to the thread's run log when one is installed.  `cat` and `name` must
/// be process-lifetime strings (literals / names:: constants): the ring
/// stores the pointers.
void record_span(const char* cat, const char* name, double abs_begin, double abs_end,
                 index_t item = -1, std::uint64_t bytes = 0);

/// A span store: the process-wide tracer, or one run's log.  enable()
/// (re)sets the epoch and clears prior events; only record_span() appends.
class Tracer {
public:
    void enable();
    void disable() { enabled_.store(false, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    std::vector<TraceEvent> events() const;
    std::size_t event_count() const;

private:
    friend void record_span(const char*, const char*, double, double, index_t, std::uint64_t);
    void append(const char* cat, const char* name, double abs_begin, double abs_end,
                index_t item, std::uint64_t bytes);

    std::atomic<bool> enabled_{false};
    mutable Mutex m_{"telemetry.trace"};
    double epoch_ XCT_GUARDED_BY(m_) = 0.0;  ///< absolute wall_now() seconds
    std::vector<TraceEvent> events_ XCT_GUARDED_BY(m_);
    std::unordered_map<std::thread::id, index_t> lanes_ XCT_GUARDED_BY(m_);

    index_t lane_locked() XCT_REQUIRES(m_);
};

/// The process-wide tracer every subsystem feeds.
Tracer& tracer();

/// Installs `log` as the calling thread's run log for the scope's
/// lifetime, restoring the previous one (usually none) on exit.
class RunLogScope {
public:
    explicit RunLogScope(Tracer& log);
    ~RunLogScope();
    RunLogScope(const RunLogScope&) = delete;
    RunLogScope& operator=(const RunLogScope&) = delete;

private:
    Tracer* prev_;
};

/// RAII span: record_span() over [construction, destruction).
class ScopedTrace {
public:
    ScopedTrace(const char* cat, const char* name, index_t item = -1, std::uint64_t bytes = 0)
        : cat_(cat), name_(name), item_(item), bytes_(bytes), begin_(flight::wall_now())
    {
        flight::warm();  // first span on a thread acquires its ring HERE
    }
    ~ScopedTrace() { record_span(cat_, name_, begin_, flight::wall_now(), item_, bytes_); }
    ScopedTrace(const ScopedTrace&) = delete;
    ScopedTrace& operator=(const ScopedTrace&) = delete;

private:
    const char* cat_;
    const char* name_;
    index_t item_;
    std::uint64_t bytes_;
    double begin_;
};

}  // namespace xct::telemetry
