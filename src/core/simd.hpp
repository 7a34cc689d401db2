#pragma once
// Portable explicit-SIMD wrapper for the hot-path kernels (DESIGN.md §3e).
//
// Exposes a fixed-width lane abstraction (VecF / VecI / Mask) with exactly
// the operations the streaming back-projection inner loop needs: splat,
// affine index arithmetic (FMA), floor, clamp, lane-wise compares feeding
// blend masks, int conversion and gathers from flat arrays (single lanes,
// and adjacent float pairs).  Each backend is a namespace holding the same
// names, so one kernel body compiles against any of them
// (backproj/kernel.cpp includes its column walk once per backend):
//
//   * simd::scalar (8 lanes) — plain arrays of kLanes elements, always
//     compiled, and the only backend when the XCT_SIMD CMake option is
//     OFF.  It keeps the same rounding contract, so tests and sanitizer
//     legs exercise the identical control flow;
//   * simd::avx2 (8 lanes) — x86-64 with XCT_SIMD ON, whatever the
//     build's -march: compiled inside an XCT_SIMD_AVX2_BEGIN/END region
//     (target "avx2,fma") and run only when the host CPU has both;
//   * simd::neon (4 lanes) — aarch64 with XCT_SIMD ON.  NEON is baseline
//     there, so it is compiled normally and always the one run.
//
// dispatched() picks the widest backend the host runs, and backend_name()
// names it.
//
// ISA confinement: code inside an XCT_SIMD_AVX2 region may use AVX2, so
// the region holds only definitions in an `avx2` namespace, and every
// header its code uses is included before the region opens.  A
// header-inline function first defined inside the region would carry AVX2
// code, and the linker may keep that copy for callers on any CPU
// (tests/check_isa_confinement.sh guards this).  Vector types never cross
// between the region and default-target code: callers outside it pass
// plain pointers and scalars.
//
// Semantics contract (what the backends must agree on):
//   * all lane operations are IEEE single precision, one rounding per op
//     (fmadd may fuse — results are ULP-bounded, not bitwise, against the
//     scalar kernel; see test_simd for the documented bounds);
//   * blend(m, a, b) selects a where m is true, b elsewhere;
//   * min_u compares its int32 lanes as unsigned;
//   * gathers read base[idx[lane]] for every lane (gather_pair also
//     base[idx[lane] + 1]) — callers mask/clamp indices BEFORE gathering,
//     out-of-range lanes are not tolerated.

#include <cstdint>
#include <cstring>

#include <cmath>

#if defined(XCT_SIMD_ENABLED) && defined(__x86_64__)
#define XCT_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#if defined(__clang__)
#define XCT_SIMD_AVX2_BEGIN \
    _Pragma("clang attribute push(__attribute__((target(\"avx2,fma\"))), apply_to = function)")
#define XCT_SIMD_AVX2_END _Pragma("clang attribute pop")
#else
#define XCT_SIMD_AVX2_BEGIN _Pragma("GCC push_options") _Pragma("GCC target(\"avx2,fma\")")
#define XCT_SIMD_AVX2_END _Pragma("GCC pop_options")
#endif
#elif defined(XCT_SIMD_ENABLED) && defined(__ARM_NEON)
#define XCT_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace xct::simd {

enum class Backend { scalar, avx2, neon };
inline constexpr Backend kBackends[] = {Backend::scalar, Backend::avx2, Backend::neon};

/// The backend's name as run reports and BENCH sections record it.
constexpr const char* name(Backend b)
{
    switch (b) {
    case Backend::avx2: return "avx2";
    case Backend::neon: return "neon";
    case Backend::scalar: break;
    }
    return "scalar";
}

constexpr int lanes(Backend b) { return b == Backend::neon ? 4 : 8; }

// Defined in simd.cpp, so the answer comes from the library's build
// flags, not from the macros of whichever file includes this header.

/// True when `b` is compiled into this build and the host CPU runs it.
bool runnable(Backend b);

/// The backend the kernels run: the widest one the host can.  The CPU is
/// probed once per process.
Backend dispatched();

/// Name of the dispatched backend.
const char* backend_name();

namespace scalar {

inline constexpr int kLanes = 8;

struct VecF {
    float v[kLanes];
};
struct VecI {
    std::int32_t v[kLanes];
};
struct Mask {
    bool m[kLanes];
};

inline VecF splat(float x)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = x;
    return r;
}
inline VecF iota()
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = static_cast<float>(l);
    return r;
}
inline VecF load(const float* p)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = p[l];
    return r;
}
inline void store(float* p, VecF a)
{
    for (int l = 0; l < kLanes; ++l) p[l] = a.v[l];
}

inline VecF operator+(VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
}
inline VecF operator-(VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
}
inline VecF operator*(VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
}
inline VecF operator/(VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] / b.v[l];
    return r;
}

inline VecF fmadd(VecF a, VecF b, VecF c)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] * b.v[l] + c.v[l];
    return r;
}

inline VecF floor_(VecF a)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = std::floor(a.v[l]);
    return r;
}
inline VecF min_(VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] < b.v[l] ? a.v[l] : b.v[l];
    return r;
}
inline VecF max_(VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] > b.v[l] ? a.v[l] : b.v[l];
    return r;
}

inline Mask cmp_gt(VecF a, VecF b)
{
    Mask r;
    for (int l = 0; l < kLanes; ++l) r.m[l] = a.v[l] > b.v[l];
    return r;
}
inline Mask cmp_ge(VecF a, VecF b)
{
    Mask r;
    for (int l = 0; l < kLanes; ++l) r.m[l] = a.v[l] >= b.v[l];
    return r;
}
inline Mask cmp_le(VecF a, VecF b)
{
    Mask r;
    for (int l = 0; l < kLanes; ++l) r.m[l] = a.v[l] <= b.v[l];
    return r;
}
inline Mask operator&(Mask a, Mask b)
{
    Mask r;
    for (int l = 0; l < kLanes; ++l) r.m[l] = a.m[l] && b.m[l];
    return r;
}
inline bool none(Mask m)
{
    for (int l = 0; l < kLanes; ++l)
        if (m.m[l]) return false;
    return true;
}
inline VecF blend(Mask m, VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = m.m[l] ? a.v[l] : b.v[l];
    return r;
}

inline VecI to_int(VecF a)
{
    VecI r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = static_cast<std::int32_t>(a.v[l]);
    return r;
}
inline VecI splat_i(std::int32_t x)
{
    VecI r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = x;
    return r;
}
inline VecI operator+(VecI a, VecI b)
{
    VecI r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
}
inline VecI operator-(VecI a, VecI b)
{
    VecI r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
}
/// Lane-wise minimum with both operands read as unsigned 32-bit.
inline VecI min_u(VecI a, VecI b)
{
    VecI r;
    for (int l = 0; l < kLanes; ++l) {
        const auto ua = static_cast<std::uint32_t>(a.v[l]);
        const auto ub = static_cast<std::uint32_t>(b.v[l]);
        r.v[l] = ua < ub ? a.v[l] : b.v[l];
    }
    return r;
}
inline VecI load_i(const std::int32_t* p)
{
    VecI r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = p[l];
    return r;
}
inline void store_i(std::int32_t* p, VecI a)
{
    for (int l = 0; l < kLanes; ++l) p[l] = a.v[l];
}

inline VecF gather(const float* base, VecI idx)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = base[idx.v[l]];
    return r;
}
inline VecI gather_i(const std::int32_t* base, VecI idx)
{
    VecI r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = base[idx.v[l]];
    return r;
}
/// lo = base[idx], hi = base[idx + 1]: the two u-neighbours of a bilinear
/// tap, which sit next to each other in a texture row.
inline void gather_pair(const float* base, VecI idx, VecF& lo, VecF& hi)
{
    for (int l = 0; l < kLanes; ++l) {
        lo.v[l] = base[idx.v[l]];
        hi.v[l] = base[idx.v[l] + 1];
    }
}

/// Clamp every lane to [lo, hi].
inline VecF clamp(VecF a, VecF lo, VecF hi) { return min_(max_(a, lo), hi); }

}  // namespace scalar

#if defined(XCT_SIMD_HAVE_AVX2)
XCT_SIMD_AVX2_BEGIN
namespace avx2 {

inline constexpr int kLanes = 8;

struct VecF {
    __m256 v;
};
struct VecI {
    __m256i v;
};
struct Mask {
    __m256 m;
};

inline VecF splat(float x) { return {_mm256_set1_ps(x)}; }
inline VecF iota()
{
    return {_mm256_setr_ps(0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f)};
}
inline VecF load(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void store(float* p, VecF a) { _mm256_storeu_ps(p, a.v); }

inline VecF operator+(VecF a, VecF b) { return {_mm256_add_ps(a.v, b.v)}; }
inline VecF operator-(VecF a, VecF b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline VecF operator*(VecF a, VecF b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline VecF operator/(VecF a, VecF b) { return {_mm256_div_ps(a.v, b.v)}; }

/// a*b + c, fused (the region's target includes FMA).
inline VecF fmadd(VecF a, VecF b, VecF c) { return {_mm256_fmadd_ps(a.v, b.v, c.v)}; }

inline VecF floor_(VecF a) { return {_mm256_floor_ps(a.v)}; }
inline VecF min_(VecF a, VecF b) { return {_mm256_min_ps(a.v, b.v)}; }
inline VecF max_(VecF a, VecF b) { return {_mm256_max_ps(a.v, b.v)}; }

inline Mask cmp_gt(VecF a, VecF b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)}; }
inline Mask cmp_ge(VecF a, VecF b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ)}; }
inline Mask cmp_le(VecF a, VecF b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_LE_OQ)}; }
inline Mask operator&(Mask a, Mask b) { return {_mm256_and_ps(a.m, b.m)}; }
inline bool none(Mask m) { return _mm256_movemask_ps(m.m) == 0; }
inline VecF blend(Mask m, VecF a, VecF b) { return {_mm256_blendv_ps(b.v, a.v, m.m)}; }

/// Truncating float->int32 conversion (callers floor first).
inline VecI to_int(VecF a) { return {_mm256_cvttps_epi32(a.v)}; }
inline VecI splat_i(std::int32_t x) { return {_mm256_set1_epi32(x)}; }
inline VecI operator+(VecI a, VecI b) { return {_mm256_add_epi32(a.v, b.v)}; }
inline VecI operator-(VecI a, VecI b) { return {_mm256_sub_epi32(a.v, b.v)}; }
inline VecI min_u(VecI a, VecI b) { return {_mm256_min_epu32(a.v, b.v)}; }
// Unaligned moves through memcpy (no pointer punning); each compiles to
// one vmovdqu.
inline VecI load_i(const std::int32_t* p)
{
    VecI r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
}
inline void store_i(std::int32_t* p, VecI a) { std::memcpy(p, &a.v, sizeof(a.v)); }

inline VecF gather(const float* base, VecI idx)
{
    return {_mm256_i32gather_ps(base, idx.v, 4)};
}
inline VecI gather_i(const std::int32_t* base, VecI idx)
{
    return {_mm256_i32gather_epi32(base, idx.v, 4)};
}
/// Two 4-lane gathers of 64-bit (base[idx], base[idx + 1]) pairs, split
/// into the lo and hi floats of each pair.
inline void gather_pair(const float* base, VecI idx, VecF& lo, VecF& hi)
{
    const double* pairs = reinterpret_cast<const double*>(base);
    // The masked form with every lane on: gcc 12's unmasked
    // _mm256_i32gather_pd trips -Wmaybe-uninitialized in its own header.
    const __m256d zero = _mm256_setzero_pd();
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    // a = lo0 hi0 lo1 hi1 | lo2 hi2 lo3 hi3, b likewise for lanes 4..7.
    const __m256 a = _mm256_castpd_ps(
        _mm256_mask_i32gather_pd(zero, pairs, _mm256_castsi256_si128(idx.v), all, 4));
    const __m256 b = _mm256_castpd_ps(
        _mm256_mask_i32gather_pd(zero, pairs, _mm256_extracti128_si256(idx.v, 1), all, 4));
    // Per 128-bit half: lo0 lo1 lo4 lo5 | lo2 lo3 lo6 lo7, then reorder
    // the 64-bit quarters to lanes 0..7.
    const __m256 l = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
    const __m256 h = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
    constexpr int kQuarters = _MM_SHUFFLE(3, 1, 2, 0);
    lo.v = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(l), kQuarters));
    hi.v = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(h), kQuarters));
}

/// Clamp every lane to [lo, hi].
inline VecF clamp(VecF a, VecF lo, VecF hi) { return min_(max_(a, lo), hi); }

}  // namespace avx2
XCT_SIMD_AVX2_END
#endif

#if defined(XCT_SIMD_HAVE_NEON)
namespace neon {

inline constexpr int kLanes = 4;

struct VecF {
    float32x4_t v;
};
struct VecI {
    int32x4_t v;
};
struct Mask {
    uint32x4_t m;
};

inline VecF splat(float x) { return {vdupq_n_f32(x)}; }
inline VecF iota()
{
    const float lanes[4] = {0.0f, 1.0f, 2.0f, 3.0f};
    return {vld1q_f32(lanes)};
}
inline VecF load(const float* p) { return {vld1q_f32(p)}; }
inline void store(float* p, VecF a) { vst1q_f32(p, a.v); }

inline VecF operator+(VecF a, VecF b) { return {vaddq_f32(a.v, b.v)}; }
inline VecF operator-(VecF a, VecF b) { return {vsubq_f32(a.v, b.v)}; }
inline VecF operator*(VecF a, VecF b) { return {vmulq_f32(a.v, b.v)}; }
inline VecF operator/(VecF a, VecF b) { return {vdivq_f32(a.v, b.v)}; }

inline VecF fmadd(VecF a, VecF b, VecF c) { return {vfmaq_f32(c.v, a.v, b.v)}; }

inline VecF floor_(VecF a) { return {vrndmq_f32(a.v)}; }
inline VecF min_(VecF a, VecF b) { return {vminq_f32(a.v, b.v)}; }
inline VecF max_(VecF a, VecF b) { return {vmaxq_f32(a.v, b.v)}; }

inline Mask cmp_gt(VecF a, VecF b) { return {vcgtq_f32(a.v, b.v)}; }
inline Mask cmp_ge(VecF a, VecF b) { return {vcgeq_f32(a.v, b.v)}; }
inline Mask cmp_le(VecF a, VecF b) { return {vcleq_f32(a.v, b.v)}; }
inline Mask operator&(Mask a, Mask b) { return {vandq_u32(a.m, b.m)}; }
inline bool none(Mask m) { return vmaxvq_u32(m.m) == 0; }
inline VecF blend(Mask m, VecF a, VecF b) { return {vbslq_f32(m.m, a.v, b.v)}; }

inline VecI to_int(VecF a) { return {vcvtq_s32_f32(a.v)}; }
inline VecI splat_i(std::int32_t x) { return {vdupq_n_s32(x)}; }
inline VecI operator+(VecI a, VecI b) { return {vaddq_s32(a.v, b.v)}; }
inline VecI operator-(VecI a, VecI b) { return {vsubq_s32(a.v, b.v)}; }
inline VecI min_u(VecI a, VecI b)
{
    const uint32x4_t m = vminq_u32(vreinterpretq_u32_s32(a.v), vreinterpretq_u32_s32(b.v));
    return {vreinterpretq_s32_u32(m)};
}
inline VecI load_i(const std::int32_t* p) { return {vld1q_s32(p)}; }
inline void store_i(std::int32_t* p, VecI a) { vst1q_s32(p, a.v); }

inline VecF gather(const float* base, VecI idx)
{
    std::int32_t ix[4];
    vst1q_s32(ix, idx.v);
    const float lanes[4] = {base[ix[0]], base[ix[1]], base[ix[2]], base[ix[3]]};
    return {vld1q_f32(lanes)};
}
inline VecI gather_i(const std::int32_t* base, VecI idx)
{
    std::int32_t ix[4];
    vst1q_s32(ix, idx.v);
    const std::int32_t lanes[4] = {base[ix[0]], base[ix[1]], base[ix[2]], base[ix[3]]};
    return {vld1q_s32(lanes)};
}
inline void gather_pair(const float* base, VecI idx, VecF& lo, VecF& hi)
{
    std::int32_t ix[4];
    vst1q_s32(ix, idx.v);
    // lo0 hi0 lo1 hi1 and lo2 hi2 lo3 hi3, de-interleaved.
    const float32x4_t p01 = vcombine_f32(vld1_f32(base + ix[0]), vld1_f32(base + ix[1]));
    const float32x4_t p23 = vcombine_f32(vld1_f32(base + ix[2]), vld1_f32(base + ix[3]));
    const float32x4x2_t u = vuzpq_f32(p01, p23);
    lo.v = u.val[0];
    hi.v = u.val[1];
}

/// Clamp every lane to [lo, hi].
inline VecF clamp(VecF a, VecF lo, VecF hi) { return min_(max_(a, lo), hi); }

}  // namespace neon
#endif

}  // namespace xct::simd
