#include "telemetry/trace.hpp"

namespace xct::telemetry {

namespace {

thread_local RankId t_current_rank{};

}  // namespace

RankId current_rank()
{
    return t_current_rank;
}

void set_current_rank(RankId rank)
{
    t_current_rank = rank;
}

void Tracer::enable()
{
    MutexLock lk(m_);
    events_.clear();
    lanes_.clear();
    epoch_ = flight::wall_now();
    enabled_.store(true, std::memory_order_relaxed);
}

index_t Tracer::lane_locked()
{
    const auto id = std::this_thread::get_id();
    const auto it = lanes_.find(id);
    if (it != lanes_.end()) return it->second;
    const index_t lane = static_cast<index_t>(lanes_.size());
    lanes_.emplace(id, lane);
    return lane;
}

void Tracer::append(const char* cat, const char* name, double abs_begin, double abs_end,
                    index_t item, std::uint64_t bytes)
{
    MutexLock lk(m_);
    events_.push_back(TraceEvent{name, cat, current_rank(), lane_locked(), item, bytes,
                                 abs_begin - epoch_, abs_end - epoch_});
}

std::vector<TraceEvent> Tracer::events() const
{
    MutexLock lk(m_);
    return events_;
}

std::size_t Tracer::event_count() const
{
    MutexLock lk(m_);
    return events_.size();
}

Tracer& tracer()
{
    static Tracer t;
    return t;
}

}  // namespace xct::telemetry
