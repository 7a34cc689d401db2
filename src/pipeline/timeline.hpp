#pragma once
// Stage-span capture for the end-to-end pipeline: records when each
// pipeline stage worked on which batch, and renders the Fig. 10-style
// overlap timeline as ASCII.

#include <string>
#include <vector>

#include "core/mutex.hpp"
#include "core/types.hpp"

namespace xct::pipeline {

/// Monotonic wall-clock seconds: telemetry::flight::wall_now(), the one
/// span timebase shared by Timeline, Tracer and the flight rings.
double now_seconds();

/// One unit of recorded stage work.
struct StageSpan {
    std::string stage;   ///< e.g. "load", "filter", "bp", "mpi", "store"
    index_t item = 0;    ///< batch index the stage worked on
    double begin = 0.0;  ///< seconds, same epoch as Timeline::epoch()
    double end = 0.0;
};

/// Thread-safe recorder shared by all stage threads of one rank.  When
/// the process-wide telemetry tracer is enabled (telemetry/trace.hpp),
/// every record() is additionally forwarded there as a "pipeline" span on
/// the tracer's timebase, and per-stage busy seconds accumulate in the
/// metrics registry under `pipeline.stage.<stage>.seconds`.
class Timeline {
public:
    Timeline();

    /// Seconds since construction — use as the time base for record().
    double elapsed() const;

    void record(std::string stage, index_t item, double begin, double end);

    std::vector<StageSpan> spans() const;

    /// Total busy time of one stage (sum of its span lengths).
    double stage_busy(const std::string& stage) const;

    /// End of the last span (the pipeline makespan).
    double makespan() const;

    /// Render an ASCII chart: one row per stage, '#' where the stage is
    /// busy — the visual of Fig. 10.  `width` columns cover the makespan.
    std::string render(index_t width = 72) const;

    /// Overlap efficiency: sum of stage busy times / makespan.  > 1 means
    /// stages genuinely overlapped; the upper bound is the stage count.
    double overlap_factor() const;

private:
    double epoch_;  ///< set once in the constructor, read-only afterwards
    mutable Mutex m_{"pipeline.timeline"};
    std::vector<StageSpan> spans_ XCT_GUARDED_BY(m_);
};

/// RAII span recorder: records [construction, destruction) of a scope.
class ScopedSpan {
public:
    ScopedSpan(Timeline& t, std::string stage, index_t item)
        : t_(&t), stage_(std::move(stage)), item_(item), begin_(t.elapsed())
    {
    }
    ~ScopedSpan() { t_->record(stage_, item_, begin_, t_->elapsed()); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Timeline* t_;
    std::string stage_;
    index_t item_;
    double begin_;
};

}  // namespace xct::pipeline
