#pragma once
// Shared pieces of the benchmark: command-line options, the result record
// every workload fills, and small statistics helpers.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/decompose.hpp"
#include "core/geometry.hpp"
#include "phantom/shepp_logan.hpp"

namespace perfbench {

using xct::index_t;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;               ///< self-check size: every workload in seconds
    std::filesystem::path work;      ///< scratch directory of this run (removed at exit)
    std::filesystem::path trace_out; ///< Chrome trace-event JSON of the traced replay
    std::filesystem::path daemon;    ///< xct_serve binary (serve workload)
};

/// One metric as printed in the final JSON line.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one run reports: its metrics, how many operations it attempted,
/// how many failed (not done, or done but wrong), and the reason for each
/// failed correctness or cross-check.
struct Result {
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void add(const std::string& name, double value, const std::string& unit);
    /// Record a failed check (does not count an operation as failed).
    void fail(const std::string& why) { errors.push_back(why); }
    /// Exact equality cross-check of two counts.
    void expect_eq(const std::string& what, std::uint64_t measured, std::uint64_t closed_form);
};

double now_s();
double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// Peak resident set (VmHWM) of process `pid` (0: this process) in MiB.
double peak_rss_mib(int pid = 0);

/// The paper dataset every workload derives its geometry from, at 1/scale
/// resolution reconstructed into a volume^3 grid.
xct::CbctGeometry workload_geometry(double scale, index_t volume);
/// porous_bean(seed) inscribed in the field of view of `g`.
std::vector<xct::phantom::Ellipsoid> workload_phantom(const xct::CbctGeometry& g,
                                                      std::uint64_t seed);
/// Seconds -> GUPS for one whole reconstruction of `g`.
double gups(const xct::CbctGeometry& g, double seconds);

/// splitmix64: the benchmark's seeded stream of input decisions.
struct Rng {
    std::uint64_t state;
    std::uint64_t next();
    double uniform();  ///< [0, 1)
};

}  // namespace perfbench
