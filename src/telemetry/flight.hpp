#pragma once
// Always-on flight recorder: the last N spans of every thread, for free.
//
// The tracer (telemetry/trace.hpp) records everything but only when
// enabled — a run that crashes without --trace leaves no evidence.  The
// flight recorder is the complement (DESIGN.md §3g "Performance
// observatory"): every span that telemetry::record_span() writes — the
// pipeline stages, sim::Device and io::Pfs transfers, collectives, filter
// calls — also lands in the calling thread's private fixed-size ring,
// overwriting the oldest, so the *recent past* of all threads is always
// available.  When the integrity Watchdog trips, a fault is detected, or a
// fatal signal fires, the rings are dumped as a Chrome/Perfetto trace — a
// post-mortem of what every stage was doing in the seconds before the
// failure.
//
// Cost model (the bench flight section asserts < 2%):
//   * the ring store is lock-free and allocation-free when warm — one
//     ring slot store (relaxed atomics, single writer) per span; the only
//     cold path is first-record-on-a-thread (ring acquisition);
//   * rings are recycled through a free list when threads exit, so a
//     pipeline that spawns stage threads per run reuses the same ~5
//     rings instead of growing without bound, and a dead thread's last
//     spans survive until a new thread claims its ring;
//   * readers (snapshot/dump) never block writers: slot fields are
//     individually atomic, and a slot overwritten mid-read is detected
//     via its sequence stamp and dropped.
//
// The rings are a bounded window, not a complete record: a run-scoped
// query belongs to the run log (trace.hpp), which never drops a span.
// Rings store the `const char*` cat and name that record_span() was given,
// so both must be process-lifetime strings.

#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/types.hpp"

namespace xct::telemetry {

struct TraceEvent;

}  // namespace xct::telemetry

namespace xct::telemetry::flight {

/// Spans retained per thread.  Power of two; at pipeline-span rates
/// (batches x stages) this holds minutes of recent history per thread.
inline constexpr std::size_t kRingCapacity = 4096;

/// Maximum post-mortem dumps per process: a crash loop or a watchdog
/// firing on every batch must not flood the filesystem.
inline constexpr std::uint64_t kMaxPostmortems = 16;

/// Absolute steady-clock seconds — the flight timebase.
double wall_now();

/// Ensure the calling thread's ring exists (the one cold path of
/// record_span()).  ScopedTrace calls this at span *begin* so that a
/// thread's first-ever acquisition is ordered before any rendezvous the
/// span body performs — heap-event deltas read after a collective then
/// cannot observe a peer's late first acquisition.
void warm();

/// Decode every ring (live and retired), oldest-first within a ring, with
/// absolute wall_now() times and lane = ring id.  Slots overwritten while
/// being read are dropped, not torn.
std::vector<TraceEvent> snapshot();

/// Number of rings ever created (live + retired).  Test hook: a warm
/// thread pool must not grow this.
std::size_t ring_count();

/// Total spans ever recorded across all rings (monotonic, unlike
/// snapshot() which is bounded by ring capacity).  Bench hook: the delta
/// across a run times the per-span cost bounds the flight overhead.
std::uint64_t total_records();

/// Arm automatic post-mortem dumps: watchdog expiry, integrity
/// detection and fatal signals will write `flight_<reason>_<n>.json`
/// into `dir` (created if missing).  Armed state is process-wide.
void arm_postmortem(const std::filesystem::path& dir);
void disarm_postmortem();
bool postmortem_armed();

/// If armed, dump all rings as a Perfetto trace named after `reason`
/// (e.g. "watchdog", "integrity", "signal") and bump `flight.dumps` /
/// `flight.dumps.<reason>`.  Returns the path written, or an empty path
/// when disarmed or the kMaxPostmortems budget is spent.  Safe to call
/// from any thread; concurrent recording continues.
std::filesystem::path dump_postmortem(const char* reason);

/// Unconditionally write the current rings to `path` as Chrome
/// trace-event JSON (timebase rebased so the earliest span is t=0).
void dump(const std::filesystem::path& path);

/// Install handlers for fatal signals (SIGSEGV, SIGABRT, SIGBUS, SIGFPE,
/// SIGILL) that attempt a post-mortem dump before re-raising with the
/// default disposition.  Best-effort: the dump path is not strictly
/// async-signal-safe, which is acceptable for a crashing process.
void install_signal_handlers();

}  // namespace xct::telemetry::flight
