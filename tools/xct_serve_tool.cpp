// xct_serve — the crash-durable multi-tenant reconstruction daemon
// (DESIGN.md §3k) and its command-line client.
//
// Daemon: owns a spool directory (journal, per-job checkpoints, output
// volumes) and a local AF_UNIX socket carrying the typed JSON job API.
// Every submitted job is priced through the perfmodel-driven admission
// layer against the daemon-wide device budget and either queued or
// rejected with a stable reason; workers schedule by priority, tenant
// fair share and FIFO, propagate deadlines into the pipeline watchdog,
// and every state transition is journaled (fsync) before it takes
// effect.  kill -9 the daemon and restart it over the same spool: the
// journal replays, unfinished jobs resume from their last checkpoint
// slab, and the recovered volumes are bitwise-identical to an
// uninterrupted run.
//
//   xct_serve --spool /tmp/spool --workers 2 --device-budget-mib 256
//
// Client: one-shot requests against a running daemon's socket.
//
//   xct_serve --client --socket /tmp/spool/xct-serve.sock --op submit
//             --volume 32 --scale 12 --priority high --deadline 30
//   xct_serve --client --socket ... --op status --id 3
//   xct_serve --client --socket ... --op wait --id 3 --timeout 60
//   xct_serve --client --socket ... --op cancel --id 3
//   xct_serve --client --socket ... --op fetch-slice --id 3 --slice 16
//   xct_serve --client --socket ... --op list|metrics|ping|shutdown
//
// The client prints the daemon's JSON response on stdout and exits 0
// iff the response carries "ok": true — shell-scriptable (the CI
// serve-smoke job drives exactly this surface).
//
// Resilience knobs mirror xct_recon: `--faults` installs a deterministic
// fault plan (new sites: serve.accept, serve.journal.append) and
// `--integrity` arms digest verification on every bulk data movement.

#include <csignal>
#include <cstdio>
#include <sstream>

#include "cli.hpp"
#include "faults/fault.hpp"
#include "integrity/integrity.hpp"
#include "io/datasets.hpp"
#include "io/raw_io.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "telemetry/metrics.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

/// Lower-case hex of a byte span (the fetch_slice payload encoding:
/// bitwise-exact, newline-free, shell-friendly).
std::string hex_encode(std::span<const std::byte> bytes)
{
    static const char* digits = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const std::byte b : bytes) {
        out.push_back(digits[std::to_integer<unsigned>(b) >> 4]);
        out.push_back(digits[std::to_integer<unsigned>(b) & 0xF]);
    }
    return out;
}

std::string handle(xct::serve::Engine& engine, const std::string& line)
{
    using namespace xct;
    const serve::Request req = serve::decode_request(line);
    std::ostringstream ss;
    core::json::Writer w(ss);
    w.begin_object().member("ok", true);
    if (req.op == "ping") {
        w.member("pong", true);
    } else if (req.op == "submit") {
        const serve::SubmitResult r = engine.submit(req.spec);
        w.member("id", r.id).member("accepted", r.accepted).member("reason", r.reason);
        w.member("detail", r.detail).member("predicted_s", r.predicted_s);
        w.member("tail_bound_s", engine.tail_bound_s(r.predicted_s));
    } else if (req.op == "status") {
        serve::write_status(w.key("job"), engine.status(req.id));
    } else if (req.op == "wait") {
        serve::write_status(w.key("job"), engine.wait(req.id, req.timeout_s));
    } else if (req.op == "cancel") {
        w.member("cancelled", engine.cancel(req.id));
    } else if (req.op == "list") {
        w.key("jobs").begin_array();
        for (const serve::JobStatus& st : engine.list()) serve::write_status(w, st);
        w.end_array();
    } else if (req.op == "fetch_slice") {
        const serve::JobStatus st = engine.status(req.id);
        if (st.state != serve::JobState::Done)
            throw std::runtime_error("fetch_slice: job " + std::to_string(req.id) + " is " +
                                     serve::to_string(st.state) + ", not done");
        const Volume v = io::read_volume(st.output);
        if (req.slice < 0 || req.slice >= v.size().z)
            throw std::out_of_range("fetch_slice: slice " + std::to_string(req.slice) +
                                    " outside [0, " + std::to_string(v.size().z) + ")");
        const std::span<const float> s = v.slice(req.slice);
        w.member("id", req.id).member("slice", req.slice).member("nx", v.size().x);
        w.member("ny", v.size().y).member("data", hex_encode(std::as_bytes(s)));
    } else if (req.op == "metrics") {
        const telemetry::MetricsSnapshot snap = telemetry::registry().snapshot();
        w.key("counters").begin_object();
        for (const auto& c : snap.counters) w.member(c.name, c.value);
        w.end_object().key("gauges").begin_object();
        for (const auto& g : snap.gauges) w.member(g.name, g.value);
        w.end_object();
    } else if (req.op == "shutdown") {
        g_stop.store(true, std::memory_order_release);
        w.member("stopping", true);
    } else {
        throw std::invalid_argument("unknown op \"" + req.op + "\"");
    }
    w.end_object();
    return ss.str();
}

int run_daemon(const xct::cli::Args& args)
{
    using namespace xct;
    serve::EngineConfig cfg;
    cfg.spool = args.get("spool");
    cfg.device_budget = static_cast<std::size_t>(args.get_int("device-budget-mib")) << 20;
    cfg.workers = args.get_int("workers");
    cfg.max_queued = args.get_int("max-queued");
    cfg.tail_slack = args.get_double("tail-slack");
    cfg.fsync_journal = !args.get_flag("no-fsync");

    serve::Engine engine(cfg);
    const std::filesystem::path socket_path =
        args.is_set("socket") ? std::filesystem::path(args.get("socket"))
                              : cfg.spool / "xct-serve.sock";
    serve::UnixServer server(socket_path);
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    engine.start();
    std::printf("xct_serve: spool %s, socket %s, %lld workers, budget %lld MiB, "
                "queue %lld (%lld jobs recovered)\n",
                cfg.spool.string().c_str(), socket_path.string().c_str(),
                static_cast<long long>(cfg.workers),
                static_cast<long long>(cfg.device_budget >> 20),
                static_cast<long long>(cfg.max_queued),
                static_cast<long long>(engine.recovered_jobs()));
    if (engine.dropped_jobs() > 0)
        std::printf("xct_serve: %lld journaled jobs dropped: spec no longer decodes\n",
                    static_cast<long long>(engine.dropped_jobs()));
    std::fflush(stdout);

    server.run([&engine](const std::string& line) { return handle(engine, line); }, g_stop);

    // Graceful stop deliberately mirrors a crash: running jobs are
    // cancelled but stay non-terminal in the journal, so the next daemon
    // over this spool requeues them from their checkpoints.
    engine.stop();
    std::printf("xct_serve: stopped\n");
    return 0;
}

int run_client(const xct::cli::Args& args)
{
    using namespace xct;
    serve::Request req;
    std::string op = args.get("op");
    if (op == "fetch-slice") op = "fetch_slice";
    req.op = op;
    req.id = static_cast<serve::JobId>(args.get_int("id"));
    req.slice = args.get_int("slice");
    req.timeout_s = args.get_double("timeout");
    if (op == "submit") {
        if (args.is_set("spec-json")) {
            req.spec = serve::decode_spec(serve::Json::parse(args.get("spec-json")));
        } else {
            io::Dataset ds = io::dataset_by_name(args.get("dataset"));
            if (args.get_double("scale") > 1.0) ds = ds.scaled(args.get_double("scale"));
            ds = ds.with_volume(args.get_int("volume"));
            req.spec.geometry = ds.geometry;
            req.spec.phantom_seed = static_cast<std::uint64_t>(args.get_int("phantom-seed"));
            req.spec.batches = args.get_int("batches");
            req.spec.device_capacity = static_cast<std::size_t>(args.get_int("job-device-mib"))
                                       << 20;
            req.spec.priority = serve::priority_from(args.get("priority"));
            req.spec.tenant = args.get("tenant");
            req.spec.deadline_s = args.get_double("deadline");
            req.spec.output = args.get("output");
        }
    }
    const std::filesystem::path socket_path = args.get("socket");
    const std::string response =
        serve::unix_request(socket_path, serve::encode_request(req), args.get_double("timeout"));
    std::printf("%s\n", response.c_str());
    const serve::Json j = serve::Json::parse(response);
    const serve::Json* ok = j.find("ok");
    return (ok != nullptr && ok->type == serve::Json::Type::Bool && ok->boolean) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv)
{
    using namespace xct;
    cli::Args args;
    args.option("spool", "serve_spool", "spool directory: journal, checkpoints, outputs")
        .option("socket", "", "AF_UNIX socket path (default: <spool>/xct-serve.sock)")
        .option("workers", "2", "concurrent reconstruction sessions")
        .option("device-budget-mib", "256", "daemon-wide device memory budget [MiB]")
        .option("max-queued", "16", "bounded admission queue depth")
        .option("tail-slack", "1.25", "perfmodel tail-bound slack factor")
        .option("faults", "", "fault plan: <site>[:k=v,...][;<site>...] (keys p,after,count)")
        .option("fault-seed", "1", "seed for probabilistic fault triggers")
        .option("op", "ping",
                "client op: ping|submit|status|list|cancel|wait|fetch-slice|metrics|shutdown")
        .option("id", "0", "job id (status/cancel/wait/fetch-slice)")
        .option("slice", "0", "z-slice index (fetch-slice)")
        .option("timeout", "60", "client request / wait timeout [s]")
        .option("spec-json", "", "submit: raw JobSpec JSON (overrides the options below)")
        .option("dataset", "tomo_00030", "submit: paper dataset the geometry derives from")
        .option("scale", "12", "submit: resolution divisor applied to the dataset")
        .option("volume", "32", "submit: cubic output volume size")
        .option("phantom-seed", "0", "submit: 0 = Shepp-Logan, else porous-bean seed")
        .option("batches", "8", "submit: batch count Nc of the rank pipeline")
        .option("job-device-mib", "64", "submit: this job's device ask [MiB]")
        .option("priority", "normal", "submit: low|normal|high")
        .option("tenant", "default", "submit: fair-share accounting key")
        .option("deadline", "0", "submit: seconds until the job must finish (0 = none)")
        .option("output", "", "submit: volume path (default: <spool>/out/job-<id>.vol)")
        .flag("client", "talk to a running daemon instead of being one")
        .flag("integrity", "verify xxh64 digests on every bulk data movement")
        .flag("no-fsync", "skip the per-record journal fsync (tests only)");
    args.parse(argc, argv, "crash-durable multi-tenant reconstruction daemon");

    if (args.is_set("faults"))
        faults::set_plan(faults::FaultPlan::parse(
            args.get("faults"), static_cast<std::uint64_t>(args.get_int("fault-seed"))));
    integrity::set_enabled(args.get_flag("integrity"));

    try {
        return args.get_flag("client") ? run_client(args) : run_daemon(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "xct_serve: error: %s\n", e.what());
        return 1;
    }
}
