#pragma once
// Machine-parameter calibration: the measurement half of the autotuner
// (DESIGN.md §3j).
//
// The perfmodel's Eq. 13-17 predictions are only as good as the
// MachineParams behind them, and the seed constants are hand-entered
// ABCI numbers.  The Calibrator replaces them with measured rooflines:
// each observation is (work, seconds) at one of the seven machine rates,
// and fit() returns the aggregate-ratio estimate sum(work)/sum(seconds)
// per rate — the time-weighted throughput, which is exactly what the
// model multiplies by.  Sources of observations:
//
//   * observe_bench_file() — the micro_kernels BENCH_*.json document
//     (backproj updates/s, filter elements/s);
//   * observe_run() — a real run's per-rank RankStats-style timings, with
//     work terms derived from the run's geometry exactly as batch_times
//     derives them (this is how xct_soak's live tier feeds measured
//     latencies back into the tail bound);
//   * observe() — anything else (tests, future probes).
//
// Rates nobody measured keep the base MachineParams value, so a partial
// calibration is always safe.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "perfmodel/model.hpp"

namespace xct::autotune {

/// The seven machine rates of perfmodel::MachineParams.
enum class Param {
    BwLoad,    ///< storage read bandwidth [bytes/s]
    BwStore,   ///< aggregate PFS write bandwidth [bytes/s]
    ThFlt,     ///< filtering throughput [elements/s]
    ThBp,      ///< back-projection throughput [updates/s]
    ThReduce,  ///< reduce payload throughput [bytes/s]
    BwH2d,     ///< host->device bandwidth [bytes/s]
    BwD2h,     ///< device->host bandwidth [bytes/s]
};

/// Measured pipeline outcome of one rank of a real run, in the units
/// recon::RankStats reports (stage busy seconds, link byte/second
/// totals).  rank_index is the world rank within the run's layout.
struct MeasuredRank {
    index_t rank_index = 0;
    double load_s = 0.0;
    double filter_s = 0.0;
    double bp_s = 0.0;
    std::uint64_t h2d_bytes = 0;
    double h2d_s = 0.0;
    std::uint64_t d2h_bytes = 0;
    double d2h_s = 0.0;
};

class Calibrator {
public:
    /// One roofline observation: `work` units processed in `seconds`.
    /// Non-positive work or seconds is ignored (an idle stage says
    /// nothing about its rate).
    void observe(Param p, double work, double seconds);

    /// Seed kernel rates from a BENCH_*.json document: reads
    /// backproj.updates_per_s_{simd,scalar} and filter.elems_per_s_fp32
    /// when present.  Throws std::runtime_error when the file is
    /// unreadable and std::invalid_argument when it is not valid JSON;
    /// unknown keys are ignored.
    void observe_bench_file(const std::string& path);

    /// Fold one run's measured per-rank stats in.  Work terms (elements
    /// filtered, updates back-projected, bytes loaded) are derived from
    /// `cfg`'s geometry/layout exactly as perfmodel::batch_times derives
    /// them; link rates use the measured byte/second totals directly.
    void observe_run(const perfmodel::RunConfig& cfg, const std::vector<MeasuredRank>& ranks);

    /// Total observations folded in so far.
    std::size_t samples() const;

    /// Aggregate-ratio fit: rate = sum(work) / sum(seconds) per param,
    /// converted to the model's GB-scale units.  Params with no samples
    /// keep `base`'s value.
    perfmodel::MachineParams fit(const perfmodel::MachineParams& base) const;

private:
    struct Acc {
        double work = 0.0;
        double seconds = 0.0;
        std::size_t n = 0;
    };
    std::array<Acc, 7> acc_{};
};

/// JSON serialisation of machine params ("xct.machine.v1") — the shape
/// the CI bench-trend job uploads as its calibrated-machine artifact.
std::string machine_json(const perfmodel::MachineParams& m);
void write_machine_json(const std::string& path, const perfmodel::MachineParams& m);
/// Parse a machine_json document.  Throws std::runtime_error on missing
/// file or missing keys, std::invalid_argument on malformed JSON.
perfmodel::MachineParams read_machine_json(const std::string& path);

}  // namespace xct::autotune
