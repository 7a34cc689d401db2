// Distributed-framework tests: any Ng x Nr layout must reproduce the
// single-rank reconstruction through the segmented reduction (the paper's
// correctness bar: <= 1e-5 against the reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>

#include "recon/distributed.hpp"
#include "recon/fdk.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/trace.hpp"

namespace xct::recon {
namespace {

CbctGeometry geo(index_t n = 32, index_t np = 48)
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = np;
    g.nu = 2 * n;
    g.nv = 2 * n;
    g.du = 0.4;
    g.dv = 0.4;
    g.vol = {n, n, n};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x) * 0.7;
    return g;
}

std::vector<phantom::Ellipsoid> make_phantom(const CbctGeometry& g)
{
    return phantom::shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.4);
}

SourceFactory phantom_factory(const std::vector<phantom::Ellipsoid>& ph, const CbctGeometry& g)
{
    return [&ph, g](RankId) { return std::make_unique<PhantomSource>(ph, g); };
}

Volume single_rank_reference(const CbctGeometry& g, const std::vector<phantom::Ellipsoid>& ph)
{
    PhantomSource src(ph, g);
    RankConfig cfg;
    cfg.geometry = g;
    return reconstruct_fdk(cfg, src).volume;
}

/// Layout sweep: every (Ng, Nr) combination must agree with one rank.
class LayoutSweep : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(LayoutSweep, MatchesSingleRank)
{
    const auto [ng, nr] = GetParam();
    const CbctGeometry g = geo();
    const auto ph = make_phantom(g);
    const Volume ref = single_rank_reference(g, ph);

    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{ng, nr};
    cfg.batches = 4;
    const DistributedResult r = reconstruct_distributed(cfg, phantom_factory(ph, g));

    ASSERT_EQ(r.volume.size(), ref.size());
    for (index_t i = 0; i < ref.count(); ++i)
        ASSERT_NEAR(r.volume.span()[static_cast<std::size_t>(i)],
                    ref.span()[static_cast<std::size_t>(i)], 2e-5f)
            << "Ng=" << ng << " Nr=" << nr << " at " << i;
}

using Layout = std::pair<index_t, index_t>;
INSTANTIATE_TEST_SUITE_P(Layouts, LayoutSweep,
                         ::testing::Values(Layout{1, 1}, Layout{1, 2}, Layout{2, 1}, Layout{2, 2},
                                           Layout{4, 1}, Layout{1, 4}, Layout{4, 2}, Layout{2, 4},
                                           Layout{8, 2}));

TEST(Distributed, HierarchicalReductionMatchesFlat)
{
    const CbctGeometry g = geo();
    const auto ph = make_phantom(g);

    DistributedConfig flat;
    flat.geometry = g;
    flat.layout = GroupLayout{2, 4};
    const DistributedResult a = reconstruct_distributed(flat, phantom_factory(ph, g));

    DistributedConfig hier = flat;
    hier.ranks_per_node = 2;
    const DistributedResult b = reconstruct_distributed(hier, phantom_factory(ph, g));

    for (index_t i = 0; i < a.volume.count(); ++i)
        ASSERT_NEAR(a.volume.span()[static_cast<std::size_t>(i)],
                    b.volume.span()[static_cast<std::size_t>(i)], 2e-5f);
}

TEST(Distributed, SequentialPipelinesAlsoAgree)
{
    const CbctGeometry g = geo(24, 36);
    const auto ph = make_phantom(g);
    const Volume ref = single_rank_reference(g, ph);

    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    cfg.threaded = false;
    const DistributedResult r = reconstruct_distributed(cfg, phantom_factory(ph, g));
    for (index_t i = 0; i < ref.count(); ++i)
        ASSERT_NEAR(r.volume.span()[static_cast<std::size_t>(i)],
                    ref.span()[static_cast<std::size_t>(i)], 2e-5f);
}

TEST(Distributed, StoresSlabsToPfs)
{
    const CbctGeometry g = geo(24, 36);
    const auto ph = make_phantom(g);
    const auto dir = std::filesystem::temp_directory_path() / "xct_dist_pfs_test";
    std::filesystem::remove_all(dir);
    io::Pfs pfs(dir, 10.0, 10.0);

    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    cfg.batches = 3;
    const DistributedResult r = reconstruct_distributed(cfg, phantom_factory(ph, g), &pfs);

    // Every stored slab round-trips to the assembled volume.
    EXPECT_GT(pfs.store_stats().bytes, 0u);
    index_t slices_seen = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".xvol") continue;  // skip digest sidecars
        const Volume slab = io::read_volume(entry.path());
        slices_seen += slab.size().z;
    }
    EXPECT_EQ(slices_seen, g.vol.z);
    std::filesystem::remove_all(dir);
    (void)r;
}

// Sanitizer runtimes replace malloc (ASan quarantines freed blocks) and
// map shadow memory, so there the resident set does not follow frees.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define XCT_SANITIZER_RUNTIME 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define XCT_SANITIZER_RUNTIME 1
#endif
#endif

/// This process's resident set [bytes], from /proc/self/status.
std::size_t vm_rss_bytes()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6)) * 1024;
    return 0;
}

TEST(Distributed, BackToBackRunsDoNotGrowTheResidentSet)
{
    // A process that reconstructs again and again (a benchmark loop, a
    // serve worker) must give each run's volumes, textures and staging
    // buffers back to the OS, or every run peaks higher than the last.
#if defined(XCT_SANITIZER_RUNTIME)
    GTEST_SKIP() << "the resident set does not follow frees under a sanitizer runtime";
#endif
    const CbctGeometry g = geo(128, 36);
    const auto ph = make_phantom(g);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    cfg.batches = 2;  // 2 MiB slabs, well above the allocator noise between runs
    const std::size_t slab_bytes = static_cast<std::size_t>(
        g.vol.x * g.vol.y * (g.vol.z / (cfg.layout.num_groups * cfg.batches))) * sizeof(float);
    std::size_t first = 0;
    for (int run = 1; run <= 4; ++run) {
        reconstruct_distributed(cfg, phantom_factory(ph, g));
        const std::size_t rss = vm_rss_bytes();
        ASSERT_GT(rss, 0u);
        if (run == 1) first = rss;
        EXPECT_LE(rss, first + slab_bytes) << "run " << run << ": " << rss << " vs " << first;
    }
}

TEST(Distributed, PerRankStatsReported)
{
    const CbctGeometry g = geo(24, 36);
    const auto ph = make_phantom(g);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    const DistributedResult r = reconstruct_distributed(cfg, phantom_factory(ph, g));
    ASSERT_EQ(r.ranks.size(), 4u);
    for (const auto& s : r.ranks) {
        EXPECT_GT(s.t_bp, 0.0);
        EXPECT_GT(s.t_reduce, 0.0);
        EXPECT_GT(s.h2d.bytes, 0u);
    }
    EXPECT_GT(r.wall_seconds, 0.0);
    // Only group roots store.
    index_t stores = 0;
    for (const auto& s : r.ranks)
        if (s.t_store > 0.0) ++stores;
    EXPECT_EQ(stores, 2);
}

TEST(Distributed, UntracedRunLeavesTransferSpansInTheFlightRings)
{
    // With tracing off, the always-on flight rings still hold the device
    // and PFS transfers next to the stage spans: a post-mortem shows
    // every layer of the run, not only its pipeline stages.
    ASSERT_FALSE(telemetry::tracer().enabled());
    const CbctGeometry g = geo(24, 36);
    const auto ph = make_phantom(g);
    const auto dir = std::filesystem::temp_directory_path() / "xct_dist_flight_test";
    std::filesystem::remove_all(dir);
    io::Pfs pfs(dir, 10.0, 10.0);
    {
        PhantomSource gen(ph, g);
        pfs.store_stack("proj.xstk", gen.load(Range{0, g.num_proj}, Range{0, g.nv}));
    }
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{1, 1};
    cfg.batches = 3;
    reconstruct_distributed(
        cfg, [&](RankId) { return std::make_unique<PfsSource>(pfs, "proj.xstk"); }, &pfs);
    std::filesystem::remove_all(dir);

    const auto events = telemetry::flight::snapshot();
    const auto has = [&](const char* cat, const char* name) {
        return std::any_of(events.begin(), events.end(), [&](const telemetry::TraceEvent& e) {
            return e.cat == cat && e.name == name;
        });
    };
    EXPECT_TRUE(has("sim", "h2d"));
    EXPECT_TRUE(has("sim", "d2h"));
    EXPECT_TRUE(has("io", "pfs.load"));
    EXPECT_TRUE(has("io", "pfs.store"));
    EXPECT_TRUE(has("pipeline", "h2d"));
}

TEST(Distributed, ViewShareShrinksPerRankH2dTraffic)
{
    // Doubling Nr halves each rank's projection upload (Eq. 5's Np/Nr).
    const CbctGeometry g = geo(24, 48);
    const auto ph = make_phantom(g);

    DistributedConfig one;
    one.geometry = g;
    one.layout = GroupLayout{1, 1};
    const DistributedResult a = reconstruct_distributed(one, phantom_factory(ph, g));

    DistributedConfig four;
    four.geometry = g;
    four.layout = GroupLayout{1, 4};
    const DistributedResult b = reconstruct_distributed(four, phantom_factory(ph, g));

    // Per-rank H2D bytes: projections dominate; slab D2H identical.  The
    // four-rank projection share is a quarter of the single rank's.
    EXPECT_NEAR(static_cast<double>(b.ranks[0].h2d.bytes),
                static_cast<double>(a.ranks[0].h2d.bytes) / 4.0,
                static_cast<double>(a.ranks[0].h2d.bytes) * 0.05);
}

TEST(Distributed, RejectsBadLayouts)
{
    const CbctGeometry g = geo(16, 16);
    const auto ph = make_phantom(g);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{32, 1};  // more groups than slices? 32 > 16
    EXPECT_THROW(reconstruct_distributed(cfg, phantom_factory(ph, g)), std::invalid_argument);
    cfg.layout = GroupLayout{1, 64};  // more ranks than views
    EXPECT_THROW(reconstruct_distributed(cfg, phantom_factory(ph, g)), std::invalid_argument);
}

TEST(Distributed, DiskBackedSourceMatchesInMemory)
{
    // End-to-end with real file I/O: projections staged to a Pfs, every
    // rank reading only its view share x row bands via partial reads.
    const CbctGeometry g = geo(24, 36);
    const auto ph = make_phantom(g);
    const Volume ref = single_rank_reference(g, ph);

    const auto dir = std::filesystem::temp_directory_path() / "xct_dist_src_test";
    std::filesystem::remove_all(dir);
    io::Pfs pfs(dir, 2.0, 2.0);
    {
        PhantomSource gen(ph, g);
        pfs.store_stack("proj.xstk", gen.load(Range{0, g.num_proj}, Range{0, g.nv}));
    }
    pfs.reset_stats();

    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    std::mutex pfs_mutex;  // Pfs accounting is shared; serialise rank loads
    auto factory = [&](RankId) {
        struct LockedPfsSource final : ProjectionSource {
            LockedPfsSource(io::Pfs& p, std::mutex& m) : src(p, "proj.xstk"), mu(&m) {}
            ProjectionStack load(Range views, Range band) override
            {
                std::lock_guard lk(*mu);
                return src.load(views, band);
            }
            PfsSource src;
            std::mutex* mu;
        };
        return std::make_unique<LockedPfsSource>(pfs, pfs_mutex);
    };
    const DistributedResult r = reconstruct_distributed(cfg, factory);
    for (index_t i = 0; i < ref.count(); ++i)
        ASSERT_NEAR(r.volume.span()[static_cast<std::size_t>(i)],
                    ref.span()[static_cast<std::size_t>(i)], 2e-5f);

    // Each view's needed band moved once per owning rank; far less than
    // ranks x full frames.
    const std::uint64_t full = static_cast<std::uint64_t>(g.num_proj * g.nv * g.nu) *
                               sizeof(float);
    EXPECT_LT(pfs.load_stats().bytes, full);
    std::filesystem::remove_all(dir);
}

TEST(Distributed, BeerLawPathMatchesIdealPath)
{
    const CbctGeometry g = geo(24, 36);
    const auto ph = make_phantom(g);
    const BeerLawScalar cal{0.0f, 65536.0f};

    DistributedConfig ideal;
    ideal.geometry = g;
    ideal.layout = GroupLayout{2, 2};
    const DistributedResult a = reconstruct_distributed(ideal, phantom_factory(ph, g));

    DistributedConfig counts = ideal;
    counts.beer = cal;
    auto counts_factory = [&ph, g, cal](RankId) {
        return std::make_unique<PhantomSource>(ph, g, cal);
    };
    const DistributedResult b = reconstruct_distributed(counts, counts_factory);

    EXPECT_LT(rmse(a.volume, b.volume), 2e-4);
}

}  // namespace
}  // namespace xct::recon
