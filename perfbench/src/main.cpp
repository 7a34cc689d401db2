// perfbench — the repository benchmark (see ../README.md).
//
//   perfbench --workload recon-256-2x2|preview-wide-q8|serve-mixed --seed N
//             --seconds S --trace 0|1 --work DIR [--trace-out FILE]
//             [--daemon PATH/xct_serve] [--tiny]
//
// Prints an environment stamp, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, which also writes the replay's spans as Chrome trace-event
// JSON to --trace-out).  Exits non-zero when any output or count check
// fails.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/simd.hpp"
#include "telemetry/export.hpp"
#include "workloads.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using perfbench::Options;

Options parse(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") o.workload = value();
        else if (a == "--seed") o.seed = std::stoull(value());
        else if (a == "--seconds") o.seconds = std::stod(value());
        else if (a == "--trace") o.trace = value() != "0";
        else if (a == "--work") o.work = value();
        else if (a == "--trace-out") o.trace_out = value();
        else if (a == "--daemon") o.daemon = value();
        else if (a == "--tiny") o.tiny = true;
        else throw std::invalid_argument("unknown argument " + a);
    }
    if (o.workload != "recon-256-2x2" && o.workload != "preview-wide-q8" &&
        o.workload != "serve-mixed")
        throw std::invalid_argument("unknown workload '" + o.workload + "'");
    if (o.work.empty()) throw std::invalid_argument("--work is required");
    if (o.workload == "serve-mixed" && o.daemon.empty())
        throw std::invalid_argument("serve-mixed needs --daemon");
    return o;
}

int omp_threads()
{
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}

}  // namespace

int main(int argc, char** argv)
{
    std::signal(SIGPIPE, SIG_IGN);  // a dead daemon must not kill the client
    Options o;
    try {
        o = parse(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    std::printf("{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
                "\"tiny\": %d, \"nproc\": %u, \"omp_threads\": %d, \"simd_backend\": \"%s\", "
                "\"build_type\": \"%s\", \"compiler\": \"%s\"}}\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, o.tiny ? 1 : 0, std::thread::hardware_concurrency(),
                omp_threads(), xct::simd::backend_name(), PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER);
    std::fflush(stdout);

    perfbench::Result r;
    std::vector<xct::telemetry::TraceEvent> events;
    try {
        std::filesystem::remove_all(o.work);
        std::filesystem::create_directories(o.work);
        if (o.workload == "serve-mixed")
            perfbench::run_serve(o, r, events);
        else
            perfbench::run_recon(o, r, events);
        if (o.trace && !o.trace_out.empty()) {
            if (o.trace_out.has_parent_path())
                std::filesystem::create_directories(o.trace_out.parent_path());
            xct::telemetry::write_chrome_trace(o.trace_out, events);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        std::filesystem::remove_all(o.work);
        return 1;
    }
    std::filesystem::remove_all(o.work);

    for (const std::string& e : r.errors) std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    const bool correct = r.errors.empty() && r.failed == 0;
    std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(r.attempted) +
                      ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", r.metrics[i].name.c_str(), r.metrics[i].value,
                      r.metrics[i].unit.c_str());
        out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return correct ? 0 : 1;
}
