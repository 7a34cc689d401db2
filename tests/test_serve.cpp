// Serving-layer tests (DESIGN.md §3k): the crash-durable journal, the
// perfmodel-priced admission control, and the multi-tenant engine's
// scheduling, cancellation, deadline and overload behaviour — including
// the tentpole guarantee that a killed-and-restarted daemon reconstructs
// volumes bitwise identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "core/cancel.hpp"
#include "faults/fault.hpp"
#include "recon/session.hpp"
#include "serve/admission.hpp"
#include "serve/engine.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "telemetry/metrics.hpp"

namespace xct::serve {
namespace {

std::filesystem::path fresh_dir(const std::string& name)
{
    const auto dir = std::filesystem::temp_directory_path() / ("xct_serve_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

CbctGeometry geo(index_t n = 16, index_t np = 16)
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = np;
    g.nu = 2 * n;
    g.nv = 2 * n;
    g.du = 0.5;
    g.dv = 0.5;
    g.vol = {n, n, n};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x) * 0.7;
    return g;
}

JobSpec small_spec()
{
    JobSpec s;
    s.geometry = geo();
    s.batches = 4;
    return s;
}

EngineConfig engine_config(const std::filesystem::path& spool)
{
    EngineConfig cfg;
    cfg.spool = spool;
    cfg.workers = 1;
    cfg.fsync_journal = false;  // durability is the journal's own test
    return cfg;
}

std::uint64_t counter_value(const char* name)
{
    return telemetry::registry().counter(name).value();
}

/// Poll until `pred` holds or `timeout_s` elapses; true when it held.
bool eventually(double timeout_s, const std::function<bool()>& pred)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
}

// ---- journal ------------------------------------------------------------

TEST(ServeJournal, RoundTripSurvivesReopen)
{
    const auto dir = fresh_dir("journal_roundtrip");
    const auto path = dir / "journal.xjl";
    {
        Journal j(path);
        EXPECT_TRUE(j.recovered().empty());
        j.append(RecordType::Submit, 1, "{\"spec\":true}");
        j.append(RecordType::Accept, 1, "priced");
        j.append(RecordType::Done, 1, "/out/vol");
    }
    Journal j2(path);
    ASSERT_EQ(j2.recovered().size(), 3u);
    EXPECT_EQ(j2.truncated_frames(), 0u);
    EXPECT_EQ(j2.recovered()[0].type, RecordType::Submit);
    EXPECT_EQ(j2.recovered()[0].job, 1u);
    EXPECT_EQ(j2.recovered()[0].payload, "{\"spec\":true}");
    EXPECT_EQ(j2.recovered()[2].type, RecordType::Done);
    EXPECT_EQ(j2.recovered()[2].payload, "/out/vol");
}

TEST(ServeJournal, TornTailIsTruncatedAndAppendableAgain)
{
    const auto dir = fresh_dir("journal_torn");
    const auto path = dir / "journal.xjl";
    {
        Journal j(path);
        j.append(RecordType::Submit, 1, "alpha");
        j.append(RecordType::Start, 1, "");
    }
    const auto intact = std::filesystem::file_size(path);
    {
        // A crash mid-write leaves a partial frame at the tail.
        std::ofstream f(path, std::ios::binary | std::ios::app);
        f.write("XJL1torn-half-frame", 19);
    }
    {
        Journal j(path);
        ASSERT_EQ(j.recovered().size(), 2u);
        EXPECT_EQ(j.truncated_frames(), 1u);
        EXPECT_EQ(std::filesystem::file_size(path), intact);  // tail gone
        j.append(RecordType::Done, 1, "recovered");
    }
    Journal j2(path);
    ASSERT_EQ(j2.recovered().size(), 3u);
    EXPECT_EQ(j2.recovered()[2].payload, "recovered");
}

TEST(ServeJournal, CorruptedFrameIsRejectedOnReplay)
{
    const auto dir = fresh_dir("journal_corrupt");
    const auto path = dir / "journal.xjl";
    {
        // Flip bits in the second append's frame on its way to disk.
        faults::ScopedPlan plan(faults::FaultPlan::parse(
            "serve.journal.append:kind=corrupt,after=1,count=1", 7));
        Journal j(path);
        j.append(RecordType::Submit, 1, "good");
        j.append(RecordType::Accept, 1, "mangled in transit");
        j.append(RecordType::Start, 1, "");
    }
    Journal j2(path);
    // The digest rejects the corrupt frame; everything after it is
    // unreachable, so recovery keeps exactly the intact prefix.
    ASSERT_EQ(j2.recovered().size(), 1u);
    EXPECT_EQ(j2.recovered()[0].payload, "good");
    EXPECT_EQ(j2.truncated_frames(), 1u);
}

// ---- protocol -----------------------------------------------------------

/// A spec line exactly as the protocol encoded it before core/json
/// (17-digit doubles); journals written then must still replay.
constexpr const char* kParentSpecLine =
    R"({"geometry":{"dso":100,"dsd":250,"num_proj":16,"nu":32,"nv":32,"du":0.5,"dv":0.5,)"
    R"("vol":[16,16,16],"dx":0.27999999999999997,"dy":0.27999999999999997,)"
    R"("dz":0.27999999999999997,"scan_range":6.2831853071795862},"phantom_seed":5,)"
    R"("batches":4,"device_capacity":50331648,"priority":"high","tenant":"alice",)"
    R"("deadline_s":2.5,"output":"/spool/out/job-3.vol"})";

/// The escaper before core/json wrote control bytes other than \n, \t, \r raw,
/// which is not JSON: such a line no longer decodes (the engine counts
/// the lost job as serve.dropped at recovery).
std::string parent_spec_with_raw_control_byte()
{
    std::string line = kParentSpecLine;
    line.replace(line.find("alice"), 5, "al\x01ice");
    return line;
}

TEST(ServeProtocol, ParentEncodedSpecDecodesToTheSameJobSpec)
{
    JobSpec expected = small_spec();
    expected.phantom_seed = 5;
    expected.device_capacity = std::size_t{48} << 20;
    expected.priority = Priority::High;
    expected.tenant = "alice";
    expected.deadline_s = 2.5;
    expected.output = "/spool/out/job-3.vol";
    const JobSpec got = decode_spec(Json::parse(kParentSpecLine));
    EXPECT_EQ(got.geometry.dx, expected.geometry.dx);
    EXPECT_EQ(got.geometry.scan_range, expected.geometry.scan_range);
    EXPECT_EQ(got.phantom_seed, 5u);
    EXPECT_EQ(got.device_capacity, expected.device_capacity);
    // Shortest round-trip printing is bit-exact, so equal encodings mean
    // every field — doubles included — is identical.
    EXPECT_EQ(encode_spec(got), encode_spec(expected));
    EXPECT_THROW(decode_spec(Json::parse(parent_spec_with_raw_control_byte())),
                 std::invalid_argument);
}

TEST(ServeProtocol, SpecRoundTripKeeps64BitIntegersAndControlBytes)
{
    JobSpec spec = small_spec();
    spec.phantom_seed = (std::uint64_t{1} << 60) + 1;
    spec.device_capacity = (std::size_t{1} << 60) + 1;
    spec.tenant = "\x01\b\"\\";
    spec.output = "out\nvol";
    const std::string line = encode_spec(spec);
    EXPECT_EQ(line.find('\n'), std::string::npos) << "the wire is line-delimited";
    const JobSpec back = decode_spec(Json::parse(line));
    EXPECT_EQ(back.phantom_seed, spec.phantom_seed);
    EXPECT_EQ(back.device_capacity, spec.device_capacity);
    EXPECT_EQ(back.tenant, spec.tenant);
    EXPECT_EQ(back.output, spec.output);
    EXPECT_EQ(encode_spec(back), line);
}

TEST(ServeProtocol, OutOfRangeNumbersAreTypedErrors)
{
    std::string spec = kParentSpecLine;
    spec.replace(spec.find("50331648"), 8, "-1");
    for (const std::string& line :
         {std::string(R"({"op":"status","id":1e300})"), std::string(R"({"op":"status","id":-5})"),
          std::string(R"({"op":"fetch_slice","id":1,"slice":1e30})"),
          std::string(R"({"op":"submit","spec":)") + spec + "}"})
        EXPECT_THROW(decode_request(line), std::invalid_argument) << line;
    EXPECT_EQ(decode_request(R"({"op":"status","id":18446744073709551615})").id,
              std::numeric_limits<JobId>::max());
}

TEST(ServeSocket, DeeplyNestedLineGetsAnErrorAndTheServerKeepsServing)
{
    const auto dir = fresh_dir("socket_nesting");
    UnixServer server(dir / "s.sock");
    std::atomic<bool> stop{false};
    std::thread loop([&] {
        server.run(
            [](const std::string& line) {
                const Request r = decode_request(line);
                if (r.op != "ping") throw std::invalid_argument("unexpected op " + r.op);
                return std::string(R"({"ok":true,"pong":true})");
            },
            stop);
    });
    const Json deep = Json::parse(unix_request(server.path(), std::string(100001, '[')));
    EXPECT_FALSE(deep.find("ok")->as_bool("ok"));
    EXPECT_NE(deep.find("error")->as_string("error").find("nesting"), std::string::npos);
    const Json pong = Json::parse(unix_request(server.path(), R"({"op":"ping"})"));
    EXPECT_TRUE(pong.find("ok")->as_bool("ok"));
    stop = true;
    loop.join();
}

// ---- admission ----------------------------------------------------------

TEST(ServeAdmission, AcceptsAFeasibleSpec)
{
    const Decision d = price(small_spec(), perfmodel::MachineParams{});
    EXPECT_TRUE(d.admitted);
    EXPECT_GT(d.device_bytes, 0u);
    EXPECT_GT(d.predicted_s, 0.0);
}

TEST(ServeAdmission, RejectsAlreadyExpiredDeadline)
{
    JobSpec s = small_spec();
    s.deadline_s = -1.0;
    const Decision d = price(s, perfmodel::MachineParams{});
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, "deadline");
}

TEST(ServeAdmission, RejectsDeadlineTighterThanPrediction)
{
    JobSpec s = small_spec();
    s.deadline_s = 1e-9;
    const Decision d = price(s, perfmodel::MachineParams{});
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, "deadline");
}

TEST(ServeAdmission, RejectsInfeasibleDeviceAsk)
{
    JobSpec s = small_spec();
    s.device_capacity = 1u << 10;  // 1 KiB holds no texture
    const Decision d = price(s, perfmodel::MachineParams{});
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, "infeasible");
}

TEST(ServeAdmission, RejectsInvalidSpec)
{
    JobSpec s = small_spec();
    s.batches = 0;
    const Decision d = price(s, perfmodel::MachineParams{});
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, "invalid");
}

// ---- session ------------------------------------------------------------

TEST(ReconSessionTest, ReportsProgressAndIsSingleUse)
{
    recon::RankConfig rc;
    rc.geometry = geo();
    rc.batches = 4;
    auto src = std::make_unique<recon::PhantomSource>(
        phantom::shepp_logan_3d(0.45 * rc.geometry.dx * static_cast<double>(rc.geometry.vol.x)),
        rc.geometry);
    recon::ReconSession session(rc, std::move(src));
    EXPECT_EQ(session.state(), recon::SessionState::Ready);
    EXPECT_GT(session.total_slabs(), 0);
    EXPECT_DOUBLE_EQ(session.progress(), 0.0);
    const recon::FdkResult r = session.run();
    EXPECT_EQ(r.volume.size().x, rc.geometry.vol.x);
    EXPECT_EQ(session.state(), recon::SessionState::Done);
    EXPECT_EQ(session.completed_slabs(), session.total_slabs());
    EXPECT_DOUBLE_EQ(session.progress(), 1.0);
    EXPECT_THROW((void)session.run(), std::logic_error);  // single-use
}

TEST(ReconSessionTest, CancelUnwindsWithinOneStageBoundary)
{
    // Every batch load sleeps 0.3 s; cancelling mid-run must unwind at
    // the next stage boundary — not run the remaining slabs to the end.
    faults::ScopedPlan plan(faults::FaultPlan::parse(
        "source.load:kind=stall,delay=0.3,after=0,count=-1", 1));
    recon::RankConfig rc;
    rc.geometry = geo();
    rc.batches = 4;
    auto src = std::make_unique<recon::PhantomSource>(
        phantom::shepp_logan_3d(0.45 * rc.geometry.dx * static_cast<double>(rc.geometry.vol.x)),
        rc.geometry);
    recon::ReconSession session(rc, std::move(src));
    std::thread runner([&] { EXPECT_THROW((void)session.run(), core::Cancelled); });
    ASSERT_TRUE(eventually(10.0, [&] { return session.completed_slabs() >= 1; }));
    const auto t0 = std::chrono::steady_clock::now();
    session.cancel_token().request_cancel();
    runner.join();
    const double unwind_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    EXPECT_EQ(session.state(), recon::SessionState::Cancelled);
    EXPECT_LT(session.completed_slabs(), session.total_slabs());
    // One stage boundary: at most one in-flight 0.3 s load plus slack,
    // never the ~1.2 s the remaining batches would cost.
    EXPECT_LT(unwind_s, 1.0);
}

// ---- engine -------------------------------------------------------------

TEST(ServeEngine, RunsASubmittedJobToDone)
{
    const auto spool = fresh_dir("engine_done");
    Engine engine(engine_config(spool));
    engine.start();
    const SubmitResult r = engine.submit(small_spec());
    ASSERT_TRUE(r.accepted) << r.reason << ": " << r.detail;
    EXPECT_GT(engine.tail_bound_s(r.predicted_s), r.predicted_s);
    const JobStatus st = engine.wait(r.id, 60.0);
    EXPECT_EQ(st.state, JobState::Done);
    EXPECT_DOUBLE_EQ(st.progress, 1.0);
    EXPECT_TRUE(std::filesystem::exists(st.output));
    EXPECT_THROW((void)engine.status(999), std::out_of_range);
}

TEST(ServeEngine, CancelMidRunReleasesBudgetWithinOneStage)
{
    const auto spool = fresh_dir("engine_cancel");
    EngineConfig cfg = engine_config(spool);
    Engine engine(cfg);
    engine.start();
    JobId victim = 0;
    {
        faults::ScopedPlan plan(faults::FaultPlan::parse(
            "source.load:kind=stall,delay=0.4,after=0,count=-1", 1));
        const SubmitResult r = engine.submit(small_spec());
        ASSERT_TRUE(r.accepted);
        victim = r.id;
        ASSERT_TRUE(eventually(10.0, [&] {
            return engine.status(victim).state == JobState::Running;
        }));
        const auto t0 = std::chrono::steady_clock::now();
        EXPECT_TRUE(engine.cancel(victim));
        const JobStatus st = engine.wait(victim, 10.0);
        const double unwind_s = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count();
        EXPECT_EQ(st.state, JobState::Cancelled);
        EXPECT_LT(unwind_s, 2.0);  // one 0.4 s stage plus slack, not 4x
    }
    // The cancelled job's device bytes are back: a follow-up job is
    // schedulable and completes (with the stall plan gone, quickly).
    const SubmitResult r2 = engine.submit(small_spec());
    ASSERT_TRUE(r2.accepted);
    EXPECT_EQ(engine.wait(r2.id, 60.0).state, JobState::Done);
    EXPECT_FALSE(engine.cancel(r2.id));  // already terminal
}

TEST(ServeEngine, QueueFullRejectsWithStableReason)
{
    const auto spool = fresh_dir("engine_queue_full");
    EngineConfig cfg = engine_config(spool);
    cfg.max_queued = 1;
    Engine engine(cfg);
    engine.start();
    faults::ScopedPlan plan(faults::FaultPlan::parse(
        "source.load:kind=stall,delay=0.4,after=0,count=-1", 1));
    const SubmitResult blocker = engine.submit(small_spec());
    ASSERT_TRUE(blocker.accepted);
    ASSERT_TRUE(eventually(10.0, [&] {
        return engine.status(blocker.id).state == JobState::Running;
    }));
    const SubmitResult queued = engine.submit(small_spec());
    ASSERT_TRUE(queued.accepted);
    const std::uint64_t rejects = counter_value("serve.reject");
    const SubmitResult overflow = engine.submit(small_spec());
    EXPECT_FALSE(overflow.accepted);
    EXPECT_EQ(overflow.reason, "queue_full");
    EXPECT_EQ(counter_value("serve.reject"), rejects + 1);
    EXPECT_TRUE(engine.cancel(queued.id));
    EXPECT_TRUE(engine.cancel(blocker.id));
    engine.drain();
}

TEST(ServeEngine, ExpiredQueuedJobIsShedNotRun)
{
    const auto spool = fresh_dir("engine_shed");
    Engine engine(engine_config(spool));
    engine.start();
    const std::uint64_t shed_before = counter_value("serve.shed");
    JobId victim = 0;
    {
        faults::ScopedPlan plan(faults::FaultPlan::parse(
            "source.load:kind=stall,delay=0.4,after=0,count=-1", 1));
        const SubmitResult blocker = engine.submit(small_spec());
        ASSERT_TRUE(blocker.accepted);
        ASSERT_TRUE(eventually(10.0, [&] {
            return engine.status(blocker.id).state == JobState::Running;
        }));
        JobSpec doomed = small_spec();
        doomed.deadline_s = 0.2;  // expires long before the blocker ends
        const SubmitResult r = engine.submit(doomed);
        ASSERT_TRUE(r.accepted);
        victim = r.id;
        EXPECT_EQ(engine.wait(blocker.id, 60.0).state, JobState::Done);
    }
    const JobStatus st = engine.wait(victim, 10.0);
    EXPECT_EQ(st.state, JobState::Shed);
    EXPECT_GE(counter_value("serve.shed"), shed_before + 1);
}

TEST(ServeEngine, MidRunDeadlineTripsTheWatchdog)
{
    // Admission accepts (predicted runtime is milliseconds), but a 1.5 s
    // injected stall blows the 1 s deadline mid-run: the remaining budget
    // was propagated into the pipeline watchdog, which converts the stall
    // into DeadlineExceeded and fails the job — the degraded path, seeded
    // and bitwise-reproducible like every fault-plan scenario.
    const auto spool = fresh_dir("engine_deadline");
    Engine engine(engine_config(spool));
    engine.start();
    faults::ScopedPlan plan(faults::FaultPlan::parse(
        "source.load:kind=stall,delay=1.5,after=0,count=-1", 21));
    JobSpec s = small_spec();
    s.deadline_s = 1.0;
    const SubmitResult r = engine.submit(s);
    ASSERT_TRUE(r.accepted) << r.reason;
    const JobStatus st = engine.wait(r.id, 60.0);
    EXPECT_EQ(st.state, JobState::Failed);
    EXPECT_NE(st.reason.find("watchdog deadline exceeded"), std::string::npos) << st.reason;
}

TEST(ServeEngine, PriorityBeatsSubmissionOrder)
{
    const auto spool = fresh_dir("engine_priority");
    Engine engine(engine_config(spool));
    engine.start();
    faults::ScopedPlan plan(faults::FaultPlan::parse(
        "source.load:kind=stall,delay=0.4,after=0,count=-1", 1));
    const SubmitResult blocker = engine.submit(small_spec());
    ASSERT_TRUE(blocker.accepted);
    ASSERT_TRUE(eventually(10.0, [&] {
        return engine.status(blocker.id).state == JobState::Running;
    }));
    JobSpec low = small_spec();
    low.priority = Priority::Low;
    JobSpec high = small_spec();
    high.priority = Priority::High;
    const SubmitResult rl = engine.submit(low);   // submitted first...
    const SubmitResult rh = engine.submit(high);  // ...but outranked
    ASSERT_TRUE(rl.accepted);
    ASSERT_TRUE(rh.accepted);
    ASSERT_TRUE(eventually(30.0, [&] {
        return engine.status(rh.id).state != JobState::Queued;
    }));
    EXPECT_EQ(engine.status(rl.id).state, JobState::Queued);
    EXPECT_TRUE(engine.cancel(rl.id));
    EXPECT_TRUE(engine.cancel(rh.id));
    engine.drain();
}

TEST(ServeEngine, FairShareFavorsTheLeastServedTenant)
{
    const auto spool = fresh_dir("engine_fairshare");
    Engine engine(engine_config(spool));
    engine.start();
    faults::ScopedPlan plan(faults::FaultPlan::parse(
        "source.load:kind=stall,delay=0.4,after=0,count=-1", 1));
    JobSpec a = small_spec();
    a.tenant = "alice";
    const SubmitResult blocker = engine.submit(a);  // alice accrues service
    ASSERT_TRUE(blocker.accepted);
    ASSERT_TRUE(eventually(10.0, [&] {
        return engine.status(blocker.id).state == JobState::Running;
    }));
    const SubmitResult a2 = engine.submit(a);  // alice again, FIFO-first
    JobSpec b = small_spec();
    b.tenant = "bob";
    const SubmitResult b1 = engine.submit(b);  // bob, same priority, later
    ASSERT_TRUE(a2.accepted);
    ASSERT_TRUE(b1.accepted);
    ASSERT_TRUE(eventually(30.0, [&] {
        return engine.status(b1.id).state != JobState::Queued;
    }));
    EXPECT_EQ(engine.status(a2.id).state, JobState::Queued);
    EXPECT_TRUE(engine.cancel(a2.id));
    EXPECT_TRUE(engine.cancel(b1.id));
    engine.drain();
}

TEST(ServeEngine, CrashRecoveryResumesToABitwiseIdenticalVolume)
{
    // The second seed sits above 2^53: replay must decode it exactly, not
    // through a double, or the recovered job rebuilds another phantom.
    for (const std::uint64_t seed : {std::uint64_t{5}, (std::uint64_t{1} << 60) + 1}) {
        SCOPED_TRACE("phantom_seed " + std::to_string(seed));
        JobSpec spec = small_spec();
        spec.phantom_seed = seed;

        // Reference: an uninterrupted run of the spec.
        const auto ref_spool = fresh_dir("engine_ref");
        Volume reference;
        {
            Engine engine(engine_config(ref_spool));
            engine.start();
            const SubmitResult r = engine.submit(spec);
            ASSERT_TRUE(r.accepted);
            const JobStatus st = engine.wait(r.id, 60.0);
            ASSERT_EQ(st.state, JobState::Done);
            reference = io::read_volume(st.output);
        }

        // Crash: stop the engine mid-job (stop() deliberately shares the
        // kill -9 recovery path — the job stays non-terminal in the journal).
        const auto spool = fresh_dir("engine_crash");
        JobId id = 0;
        {
            faults::ScopedPlan plan(faults::FaultPlan::parse(
                "source.load:kind=stall,delay=0.4,after=0,count=-1", 1));
            Engine engine(engine_config(spool));
            engine.start();
            const SubmitResult r = engine.submit(spec);
            ASSERT_TRUE(r.accepted);
            id = r.id;
            ASSERT_TRUE(eventually(20.0, [&] {
                return engine.status(id).completed_slabs >= 1;
            }));
            engine.stop();
            EXPECT_EQ(engine.status(id).state, JobState::Queued);  // requeued form
        }

        // Restart over the same spool: the journal replays, the job resumes
        // from its checkpointed slabs and the volume is bitwise identical.
        Engine engine(engine_config(spool));
        EXPECT_EQ(engine.recovered_jobs(), 1);
        engine.start();
        const JobStatus st = engine.wait(id, 60.0);
        ASSERT_EQ(st.state, JobState::Done);
        const Volume recovered = io::read_volume(st.output);
        ASSERT_EQ(recovered.count(), reference.count());
        const auto a = recovered.span();
        const auto b = reference.span();
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i], b[i]) << "voxel " << i << " differs after crash recovery";
        }
    }
}

TEST(ServeEngine, RecoveryRepricesASubmitOnlyJournal)
{
    // A daemon that died between Submit and Accept left a spec with no
    // verdict: recovery re-prices it through the same admission arithmetic
    // and runs it to completion.
    const auto spool = fresh_dir("engine_reprice");
    std::filesystem::create_directories(spool);
    {
        Journal j(spool / "journal.xjl");
        j.append(RecordType::Submit, 7, encode_spec(small_spec()));
    }
    Engine engine(engine_config(spool));
    EXPECT_EQ(engine.recovered_jobs(), 1);
    engine.start();
    const JobStatus st = engine.wait(7, 60.0);
    EXPECT_EQ(st.state, JobState::Done);
    // The restored id keeps later submissions collision-free.
    EXPECT_GT(engine.submit(small_spec()).id, 7u);
}

TEST(ServeEngine, RecoveryCountsJobsWhoseSpecNoLongerDecodes)
{
    const auto spool = fresh_dir("engine_dropped");
    std::filesystem::create_directories(spool);
    {
        Journal j(spool / "journal.xjl");
        j.append(RecordType::Submit, 4, parent_spec_with_raw_control_byte());
        j.append(RecordType::Submit, 5, kParentSpecLine);
    }
    const std::uint64_t dropped = counter_value("serve.dropped");
    Engine engine(engine_config(spool));  // never started: recovery only
    EXPECT_EQ(engine.dropped_jobs(), 1);
    EXPECT_EQ(engine.recovered_jobs(), 1);
    EXPECT_EQ(counter_value("serve.dropped"), dropped + 1);
    EXPECT_THROW(engine.status(4), std::out_of_range);
    EXPECT_GT(engine.submit(small_spec()).id, 5u);  // the lost id is not reused
}

TEST(ServeEngine, JournalFaultRejectionsAreSeedDeterministic)
{
    // A probabilistic throw plan on serve.journal.append makes some
    // submissions fail durably ("fault"); the same seed must produce the
    // same accept/reject pattern — chaos runs are replayable.
    const auto run = [](const std::filesystem::path& spool) {
        faults::ScopedPlan plan(faults::FaultPlan::parse(
            "serve.journal.append:kind=throw,p=0.4", 42));
        Engine engine(engine_config(spool));  // never started: admission only
        std::vector<std::string> verdicts;
        for (int i = 0; i < 8; ++i) {
            const SubmitResult r = engine.submit(small_spec());
            verdicts.push_back(r.accepted ? "ok" : r.reason);
        }
        return verdicts;
    };
    const auto first = run(fresh_dir("engine_seed_a"));
    const auto second = run(fresh_dir("engine_seed_b"));
    EXPECT_EQ(first, second);
    EXPECT_NE(std::count(first.begin(), first.end(), "fault"), 0)
        << "plan never fired; the test would be vacuous";
    EXPECT_NE(std::count(first.begin(), first.end(), "ok"), 0);
}

TEST(ServeEngine, SubmitAfterStopIsRejected)
{
    const auto spool = fresh_dir("engine_stopped");
    Engine engine(engine_config(spool));
    engine.start();
    engine.stop();
    const SubmitResult r = engine.submit(small_spec());
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.reason, "stopping");
}

}  // namespace
}  // namespace xct::serve
