// Prior-work baseline tests (Table 2): the iFDK-style and Lu-style
// drivers must be numerically correct AND exhibit the capability limits
// and redundant traffic the paper attributes to them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "backproj/kernel.hpp"
#include "backproj/reference.hpp"
#include "core/decompose.hpp"
#include "recon/baseline.hpp"

namespace xct::recon {
namespace {

float max_abs(std::span<const float> s)
{
    float m = 0.0f;
    for (float v : s) m = std::max(m, std::abs(v));
    return m;
}

CbctGeometry geo()
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = 24;
    g.nu = 40;
    g.nv = 36;
    g.du = 0.8;
    g.dv = 0.8;
    g.vol = {20, 20, 18};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x);
    return g;
}

ProjectionStack random_stack(const CbctGeometry& g, unsigned seed)
{
    ProjectionStack p(g.num_proj, g.nv, g.nu);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> u(0.0f, 1.0f);
    for (float& v : p.span()) v = u(rng);
    return p;
}

TEST(IfdkStyle, MatchesReference)
{
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 1);
    const auto mats = projection_matrices(g);
    Volume ref(g.vol);
    backproj::backproject_reference(p, mats, g, ref);

    // The drivers run the dispatched streaming kernel (AVX2 on a CPU with
    // it), so the bound is the documented SIMD-vs-scalar envelope, not
    // exactness.  test_backproj bounds every backend the host runs.
    const float tol = backproj::kSimdVsScalarRelBound * max_abs(ref.span());
    for (index_t nr : {1, 2, 4}) {
        Volume out(g.vol);
        backproject_ifdk_style(p, mats, g, out, nr, 256u << 20);
        for (index_t i = 0; i < out.count(); ++i)
            ASSERT_NEAR(out.span()[static_cast<std::size_t>(i)],
                        ref.span()[static_cast<std::size_t>(i)], tol)
                << "nr=" << nr;
    }
}

TEST(IfdkStyle, FailsWhenVolumeExceedsDevice)
{
    // Table 2: iFDK's per-GPU output is limited by device memory.
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 2);
    const auto mats = projection_matrices(g);
    Volume out(g.vol);
    const std::size_t too_small = static_cast<std::size_t>(g.vol.count()) * sizeof(float) - 1;
    EXPECT_THROW(backproject_ifdk_style(p, mats, g, out, 2, too_small), sim::DeviceOutOfMemory);
}

TEST(IfdkStyle, CommTrafficGrowsLinearlyWithRanks)
{
    // The O(N) communication row of Table 2: combining results moves Nr
    // full volumes.
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 3);
    const auto mats = projection_matrices(g);
    Volume out(g.vol);
    const auto s2 = backproject_ifdk_style(p, mats, g, out, 2, 256u << 20);
    const auto s4 = backproject_ifdk_style(p, mats, g, out, 4, 256u << 20);
    EXPECT_EQ(s4.comm_bytes, 2 * s2.comm_bytes);
}

TEST(LuStyle, MatchesReference)
{
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 4);
    const auto mats = projection_matrices(g);
    Volume ref(g.vol);
    backproj::backproject_reference(p, mats, g, ref);

    Volume out(g.vol);
    backproject_lu_style(p, mats, g, out, /*chunk_slices=*/5, 256u << 20);
    const float tol = backproj::kSimdVsScalarRelBound * max_abs(ref.span());
    for (index_t i = 0; i < out.count(); ++i)
        ASSERT_NEAR(out.span()[static_cast<std::size_t>(i)],
                    ref.span()[static_cast<std::size_t>(i)], tol);
}

TEST(LuStyle, H2dTrafficGrowsWithChunkCount)
{
    // The redundancy the streaming decomposition eliminates: every chunk
    // re-uploads the whole projection set.
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 5);
    const auto mats = projection_matrices(g);
    Volume out(g.vol);
    const auto whole = backproject_lu_style(p, mats, g, out, g.vol.z, 256u << 20);
    const auto chunked = backproject_lu_style(p, mats, g, out, 3, 256u << 20);
    EXPECT_EQ(whole.redundancy, 1);
    EXPECT_EQ(chunked.redundancy, 6);
    // Each of the 6 chunks re-uploads the complete projection set.
    EXPECT_EQ(chunked.h2d_bytes, 6 * whole.h2d_bytes);
}

TEST(LuStyle, StreamingSchemeMovesLessThanLu)
{
    // Ours-vs-Lu traffic comparison on the same problem: the union of row
    // bands (each moved once) is far below chunks x full frames.
    const CbctGeometry g = geo();
    const auto plans = plan_slabs(g, Range{0, g.vol.z}, 3);
    index_t delta_rows = 0;
    for (const auto& pl : plans) delta_rows += pl.delta.length();
    const std::uint64_t ours = static_cast<std::uint64_t>(delta_rows) *
                               static_cast<std::uint64_t>(g.num_proj * g.nu) * sizeof(float);

    const ProjectionStack p = random_stack(g, 6);
    const auto mats = projection_matrices(g);
    Volume out(g.vol);
    const auto lu = backproject_lu_style(p, mats, g, out, 3, 256u << 20);
    EXPECT_LT(ours, lu.h2d_bytes / 4);
}

}  // namespace
}  // namespace xct::recon
