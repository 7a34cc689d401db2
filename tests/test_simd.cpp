// Performance-layer tests (DESIGN.md §3e): the simd.hpp lane wrapper and
// the vectorised back-projection kernel vs the retained scalar Listing-1
// loop, each on every lane backend the host runs, the backend dispatch,
// the fp32 filtering paths vs their double-precision references, the FFT
// plan cache, and the zero-allocation guarantee of the scratch pools on
// warm hot paths.
//
// Accuracy claims are property-style: randomized geometries (including the
// Table-4 calibration offsets sigma_u / sigma_v / sigma_cor), randomized
// sizes, with every bound stated relative to the field maximum and carrying
// margin over the empirically observed error.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <random>
#include <vector>

#include "backproj/kernel.hpp"
#include "backproj/reference.hpp"
#include "core/decompose.hpp"
#include "core/scratch.hpp"
#include "core/simd.hpp"
#include "fft/fft.hpp"
#include "filter/ramp.hpp"

namespace xct {
namespace {

float max_abs(std::span<const float> v)
{
    float m = 0.0f;
    for (float x : v) m = std::max(m, std::abs(x));
    return m;
}

// ---- lane wrapper ---------------------------------------------------------

// The wrapper checks, compiled once per backend from one body.
namespace scalar_checks {
namespace simd = xct::simd::scalar;
#include "simd_wrapper_checks.inc"
}  // namespace scalar_checks

#if defined(XCT_SIMD_HAVE_AVX2)
XCT_SIMD_AVX2_BEGIN
namespace avx2_checks {
namespace simd = xct::simd::avx2;
#include "simd_wrapper_checks.inc"
}  // namespace avx2_checks
XCT_SIMD_AVX2_END
#define XCT_AVX2_CHECK(fn) &avx2_checks::fn
#else
#define XCT_AVX2_CHECK(fn) nullptr
#endif

#if defined(XCT_SIMD_HAVE_NEON)
namespace neon_checks {
namespace simd = xct::simd::neon;
#include "simd_wrapper_checks.inc"
}  // namespace neon_checks
#define XCT_NEON_CHECK(fn) &neon_checks::fn
#else
#define XCT_NEON_CHECK(fn) nullptr
#endif

/// Runs one check on every backend the host runs; `per_backend` is
/// indexed by simd::Backend.
void on_every_backend(const std::array<void (*)(), 3>& per_backend)
{
    for (const simd::Backend b : simd::kBackends) {
        if (!simd::runnable(b)) continue;
        SCOPED_TRACE(simd::name(b));
        per_backend[static_cast<std::size_t>(b)]();
    }
}
#define ON_EVERY_BACKEND(fn) \
    on_every_backend({&scalar_checks::fn, XCT_AVX2_CHECK(fn), XCT_NEON_CHECK(fn)})

TEST(SimdWrapper, BackendIsReported)
{
    EXPECT_GT(simd::lanes(simd::dispatched()), 0);
    EXPECT_TRUE(simd::runnable(simd::dispatched()));
    const std::string name = simd::backend_name();
    EXPECT_TRUE(name == "avx2" || name == "neon" || name == "scalar") << name;
}

TEST(SimdWrapper, LoadStoreRoundTrip) { ON_EVERY_BACKEND(load_store_round_trip); }
TEST(SimdWrapper, IotaSplatArithmetic) { ON_EVERY_BACKEND(iota_splat_arithmetic); }
TEST(SimdWrapper, FmaddFloorMinMaxClamp) { ON_EVERY_BACKEND(fmadd_floor_min_max_clamp); }
TEST(SimdWrapper, CompareBlendNone) { ON_EVERY_BACKEND(compare_blend_none); }
TEST(SimdWrapper, ToIntTruncatesTowardZero) { ON_EVERY_BACKEND(to_int_truncates_toward_zero); }
TEST(SimdWrapper, GatherMatchesScalarIndexing) { ON_EVERY_BACKEND(gather_matches_scalar_indexing); }
TEST(SimdWrapper, IntSubAndUnsignedMin) { ON_EVERY_BACKEND(int_sub_and_unsigned_min); }
TEST(SimdWrapper, GatherPair) { ON_EVERY_BACKEND(gather_pair_reads_adjacent_floats); }

TEST(SimdDispatch, PicksAvx2WhenCpuHasAvx2AndFma)
{
#if !defined(XCT_SIMD_ENABLED)
    // XCT_SIMD=OFF compiles the scalar backend only.
    EXPECT_STREQ(simd::backend_name(), "scalar");
    for (const simd::Backend b : simd::kBackends)
        EXPECT_EQ(simd::runnable(b), b == simd::Backend::scalar) << simd::name(b);
#elif defined(__x86_64__)
    __builtin_cpu_init();
    const bool cpu = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    EXPECT_EQ(simd::runnable(simd::Backend::avx2), cpu);
    EXPECT_STREQ(simd::backend_name(), cpu ? "avx2" : "scalar");
#else
    GTEST_SKIP() << "no AVX2 backend on this architecture";
#endif
}

// ---- SIMD vs scalar back-projection (randomized property test) ------------

CbctGeometry random_geometry(std::mt19937& rng)
{
    std::uniform_real_distribution<double> ud(0.0, 1.0);
    CbctGeometry g;
    g.dso = 80.0 + 40.0 * ud(rng);
    g.dsd = g.dso * (2.2 + 0.8 * ud(rng));
    g.num_proj = 12 + static_cast<index_t>(ud(rng) * 12.0);
    g.nu = 32 + 2 * static_cast<index_t>(ud(rng) * 12.0);
    g.nv = 24 + 2 * static_cast<index_t>(ud(rng) * 10.0);
    g.du = g.dv = 0.4 + 0.4 * ud(rng);
    const index_t n = 12 + 2 * static_cast<index_t>(ud(rng) * 8.0);
    g.vol = {n, n, n};
    g.dx = g.dy = g.dz =
        CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, n) * (0.6 + 0.4 * ud(rng));
    // Table-4 calibration offsets (Fig. 7): detector shifts in +-1.5 px,
    // rotation-centre shift in +-2 mm.
    g.sigma_u = 3.0 * ud(rng) - 1.5;
    g.sigma_v = 3.0 * ud(rng) - 1.5;
    g.sigma_cor = 4.0 * ud(rng) - 2.0;
    return g;
}

ProjectionStack random_stack(const CbctGeometry& g, std::mt19937& rng)
{
    ProjectionStack p(g.num_proj, g.nv, g.nu);
    std::uniform_real_distribution<float> u(0.0f, 1.0f);
    for (float& v : p.span()) v = u(rng);
    return p;
}

sim::Texture3 make_texture(sim::Device& dev, const ProjectionStack& p, Range band)
{
    sim::Texture3 tex(dev, p.cols(), p.views(), band.length());
    std::vector<float> plane(static_cast<std::size_t>(p.cols() * p.views()));
    for (index_t v = band.lo; v < band.hi; ++v) {
        for (index_t s = 0; s < p.views(); ++s) {
            const auto row = p.row(s, v);
            std::copy(row.begin(), row.end(),
                      plane.begin() + static_cast<std::ptrdiff_t>(s * p.cols()));
        }
        tex.copy_planes(plane, v - band.lo, 1);
    }
    return tex;
}

TEST(ColumnWalk, ProjectionMatricesHaveNoKTermInUOrDepth)
{
    // The column walk's premise (rotation axis along z, detector v along
    // z): u and the depth of a voxel never depend on its slice k, for any
    // geometry, calibration offsets included.
    std::mt19937 rng(4242);
    for (int trial = 0; trial < 50; ++trial) {
        const CbctGeometry g = random_geometry(rng);
        for (const Mat34& m : projection_matrices(g)) {
            ASSERT_EQ(m[0].z, 0.0) << "trial " << trial;
            ASSERT_EQ(m[2].z, 0.0) << "trial " << trial;
        }
    }
}

TEST(SimdBackproj, MatchesScalarAcrossRandomGeometries)
{
    std::mt19937 rng(2024);
    for (int trial = 0; trial < 6; ++trial) {
        const CbctGeometry g = random_geometry(rng);
        const ProjectionStack p = random_stack(g, rng);
        const auto mats = projection_matrices(g);
        const backproj::MatrixPack pack{std::span<const Mat34>(mats)};

        sim::Device dev(256u << 20);
        const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
        Volume scalar(g.vol);
        backproj::backproject_streaming_scalar(tex, pack, scalar, backproj::StreamOffsets{0, 0},
                                               g.nu, g.nv);
        const float tol = backproj::kSimdVsScalarRelBound * max_abs(scalar.span());
        ASSERT_GT(tol, 0.0f) << "degenerate trial " << trial;
        for (const simd::Backend b : simd::kBackends) {
            if (!simd::runnable(b)) continue;
            Volume vec(g.vol);
            backproj::detail::backproject_streaming_on(b, tex, pack, vec,
                                                       backproj::StreamOffsets{0, 0}, g.nu, g.nv);
            for (index_t i = 0; i < vec.count(); ++i)
                ASSERT_NEAR(vec.span()[static_cast<std::size_t>(i)],
                            scalar.span()[static_cast<std::size_t>(i)], tol)
                    << simd::name(b) << " trial " << trial << " voxel " << i;
            if (b != simd::dispatched()) continue;
            // The public entry point runs exactly the dispatched backend.
            Volume dispatched(g.vol);
            backproj::backproject_streaming(tex, pack, dispatched, backproj::StreamOffsets{0, 0},
                                            g.nu, g.nv);
            ASSERT_TRUE(std::equal(vec.span().begin(), vec.span().end(),
                                   dispatched.span().begin()))
                << "trial " << trial;
        }
    }
}

TEST(SimdBackproj, MatchesScalarOnBandRestrictedSlabs)
{
    std::mt19937 rng(777);
    for (int trial = 0; trial < 3; ++trial) {
        const CbctGeometry g = random_geometry(rng);
        const ProjectionStack p = random_stack(g, rng);
        const auto mats = projection_matrices(g);
        const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
        const Range slab{g.vol.z / 4, g.vol.z / 4 + g.vol.z / 2};
        const Range band = compute_ab(g, slab);

        sim::Device dev(256u << 20);
        const sim::Texture3 tex = make_texture(dev, p, band);
        const Dim3 sdim{g.vol.x, g.vol.y, slab.length()};
        Volume scalar(sdim);
        const backproj::StreamOffsets off{slab.lo, band.lo};
        backproj::backproject_streaming_scalar(tex, pack, scalar, off, g.nu, g.nv);
        const float tol = backproj::kSimdVsScalarRelBound * max_abs(scalar.span());
        for (const simd::Backend b : simd::kBackends) {
            if (!simd::runnable(b)) continue;
            Volume vec(sdim);
            backproj::detail::backproject_streaming_on(b, tex, pack, vec, off, g.nu, g.nv);
            for (index_t i = 0; i < vec.count(); ++i)
                ASSERT_NEAR(vec.span()[static_cast<std::size_t>(i)],
                            scalar.span()[static_cast<std::size_t>(i)], tol)
                    << simd::name(b) << " trial " << trial << " voxel " << i;
        }
    }
}

// ---- fp32 FFT vs double reference (randomized sizes) ----------------------

TEST(Fp32Fft, MatchesDoubleReferenceAcrossSizes)
{
    std::mt19937 rng(99);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (index_t n : {8, 32, 128, 512, 2048}) {
        std::vector<std::complex<double>> d(static_cast<std::size_t>(n));
        std::vector<std::complex<float>> f(static_cast<std::size_t>(n));
        for (std::size_t i = 0; i < d.size(); ++i) {
            d[i] = {u(rng), u(rng)};
            f[i] = std::complex<float>(d[i]);
        }
        fft::transform_reference(d, false);
        fft::transform_f(f, false);
        double mag = 0.0;
        for (const auto& c : d) mag = std::max(mag, std::abs(c));
        // fp32 round-off grows ~ eps * log2(n); 1e-5 relative carries >10x
        // margin at n = 2048.
        const double tol = 1e-5 * mag;
        for (std::size_t i = 0; i < d.size(); ++i)
            ASSERT_NEAR(std::abs(std::complex<double>(f[i]) - d[i]), 0.0, tol)
                << "n=" << n << " bin " << i;
    }
}

TEST(Fp32Fft, InverseRoundTripRestoresSignal)
{
    std::mt19937 rng(123);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    for (index_t n : {16, 256, 1024}) {
        std::vector<std::complex<float>> f(static_cast<std::size_t>(n));
        for (auto& c : f) c = {u(rng), u(rng)};
        const auto orig = f;
        fft::transform_f(f, false);
        fft::transform_f(f, true);
        for (std::size_t i = 0; i < f.size(); ++i)
            ASSERT_NEAR(std::abs(f[i] - orig[i]), 0.0f, 1e-5f) << "n=" << n << " bin " << i;
    }
}

TEST(PlanCache, ReturnsStableReferencePerSize)
{
    const fft::Plan& a = fft::plan_for(256);
    const fft::Plan& b = fft::plan_for(256);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.n, 256);
    EXPECT_EQ(a.bitrev.size(), 256u);
    EXPECT_EQ(a.twiddle_f.size(), 128u);
    EXPECT_EQ(a.twiddle_d.size(), 128u);
    // Stage-major layout: log2(n) stages, sum of len/2 roots = n - 1, and
    // each stage's table is the strided view of the root table laid dense.
    EXPECT_EQ(a.stage_offset.size(), 8u);
    EXPECT_EQ(a.stage_twiddle_f.size(), 255u);
    EXPECT_EQ(a.stage_twiddle_d.size(), 255u);
    for (std::size_t stage = 0, len = 2; len <= 256; len <<= 1, ++stage) {
        const std::size_t stride = 256 / len;
        for (std::size_t j = 0; j < len / 2; ++j) {
            ASSERT_EQ(a.stage_twiddle_d[a.stage_offset[stage] + j], a.twiddle_d[j * stride]);
            ASSERT_EQ(a.stage_twiddle_f[a.stage_offset[stage] + j], a.twiddle_f[j * stride]);
        }
    }
    const fft::Plan& c = fft::plan_for(64);
    EXPECT_NE(&a, &c);
}

TEST(PlanCache, PlannedDoubleMatchesReference)
{
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<std::complex<double>> a(512), b(512);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = b[i] = std::complex<double>{u(rng), u(rng)};
    fft::transform(a, false);
    fft::transform_reference(b, false);
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-12) << i;
}

// ---- fp32 filtering vs double reference -----------------------------------

TEST(Fp32Filter, ApplyRowMatchesReferenceRow)
{
    std::mt19937 rng(31);
    std::uniform_real_distribution<float> u(0.0f, 2.0f);
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = 48;
    g.nu = 96;
    g.nv = 40;
    g.du = g.dv = 0.5;
    g.vol = {48, 48, 48};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x);
    const filter::FilterEngine eng(g, filter::Window::Hamming);

    for (int trial = 0; trial < 8; ++trial) {
        std::vector<float> row(static_cast<std::size_t>(g.nu));
        for (float& v : row) v = u(rng);
        std::vector<float> ref = row;
        const index_t vg = static_cast<index_t>(trial * 5) % g.nv;
        eng.apply_row(row, vg);
        eng.apply_row_reference(ref, vg);
        // fp32 transform vs double reference: bounded by a few ulp of the
        // padded-row scale; 1e-4 relative to the filtered maximum carries
        // ~20x margin on this size.
        const float tol = 1e-4f * std::max(1.0f, max_abs(ref));
        for (std::size_t i = 0; i < row.size(); ++i)
            ASSERT_NEAR(row[i], ref[i], tol) << "trial " << trial << " u " << i;
    }
}

TEST(Fp32Filter, RowConvolverBatchMatchesDoubleApply)
{
    std::mt19937 rng(41);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    const index_t row_len = 72;
    const auto taps = filter::ramp_kernel(24, 0.5);
    const fft::RowConvolver conv(row_len, taps, static_cast<index_t>(taps.size() - 1) / 2);

    const index_t nrows = 5;  // odd: exercises the unpaired remainder row
    std::vector<float> rows(static_cast<std::size_t>(nrows * row_len));
    for (float& v : rows) v = u(rng);
    std::vector<float> ref = rows;

    conv.apply_batch(rows, nrows);
    for (index_t r = 0; r < nrows; ++r)
        conv.apply(std::span<float>(ref.data() + r * row_len, static_cast<std::size_t>(row_len)));

    const float tol = 1e-4f * std::max(1.0f, max_abs(ref));
    for (std::size_t i = 0; i < rows.size(); ++i) ASSERT_NEAR(rows[i], ref[i], tol) << i;
}

TEST(Fp32Filter, ReferencePathsAgreeBitwiseWithSeedAlgorithm)
{
    // apply_reference must remain the seed per-call path: double precision
    // throughout, so it agrees with convolve_same exactly.
    std::mt19937 rng(43);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    const index_t row_len = 40;
    const auto taps = filter::ramp_kernel(12, 0.7);
    const fft::RowConvolver conv(row_len, taps, static_cast<index_t>(taps.size() - 1) / 2);
    std::vector<float> row(static_cast<std::size_t>(row_len));
    for (float& v : row) v = u(rng);
    const std::vector<float> direct =
        fft::convolve_same(row, taps, static_cast<index_t>(taps.size() - 1) / 2);
    conv.apply_reference(row);
    for (std::size_t i = 0; i < row.size(); ++i) ASSERT_FLOAT_EQ(row[i], direct[i]) << i;
}

// ---- zero-allocation guarantee on warm hot paths --------------------------

TEST(ScratchPool, RowConvolverApplyIsAllocationFreeWhenWarm)
{
    const auto taps = filter::ramp_kernel(16, 0.5);
    const fft::RowConvolver conv(64, taps, 16);
    std::vector<float> row(64, 1.0f);
    conv.apply(row);  // warm: populates the thread's free list
    const std::uint64_t before = scratch::heap_events();
    for (int i = 0; i < 10; ++i) conv.apply(row);
    EXPECT_EQ(scratch::heap_events() - before, 0u);
}

TEST(ScratchPool, KernelInnerLoopIsAllocationFreeWhenWarm)
{
    std::mt19937 rng(17);
    const CbctGeometry g = random_geometry(rng);
    const ProjectionStack p = random_stack(g, rng);
    const auto mats = projection_matrices(g);
    const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
    sim::Device dev(256u << 20);
    const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
    Volume vol(g.vol);
    backproj::backproject_streaming(tex, pack, vol, backproj::StreamOffsets{0, 0}, g.nu, g.nv);
    const std::uint64_t before = scratch::heap_events();
    for (int i = 0; i < 3; ++i)
        backproj::backproject_streaming(tex, pack, vol, backproj::StreamOffsets{0, 0}, g.nu,
                                        g.nv);
    EXPECT_EQ(scratch::heap_events() - before, 0u);
}

TEST(ScratchPool, FilterEngineApplyIsAllocationFreeWhenWarm)
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = 32;
    g.nu = 64;
    g.nv = 16;
    g.du = g.dv = 0.5;
    g.vol = {32, 32, 32};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x);
    const filter::FilterEngine eng(g);
    ProjectionStack stack(4, g.nv, g.nu, 1.0f);
    eng.apply(stack);  // warm every OpenMP worker's pool
    const std::uint64_t before = scratch::heap_events();
    for (int i = 0; i < 5; ++i) eng.apply(stack);
    EXPECT_EQ(scratch::heap_events() - before, 0u);
}

TEST(ScratchPool, BufferReusesReturnedCapacity)
{
    // Lease/return cycles of the same size must hit the free list.
    { scratch::Buffer<double> warm(333); }
    const std::uint64_t before = scratch::heap_events();
    for (int i = 0; i < 20; ++i) { scratch::Buffer<double> b(333); }
    EXPECT_EQ(scratch::heap_events() - before, 0u);
    // A larger request than anything pooled is a (counted) heap event.
    { scratch::Buffer<double> big(100000); }
    EXPECT_GE(scratch::heap_events() - before, 1u);
}

}  // namespace
}  // namespace xct
