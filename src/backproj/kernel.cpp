#include "backproj/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/check.hpp"
#include "core/scratch.hpp"
#include "core/simd.hpp"

namespace xct::backproj {

MatrixPack::MatrixPack(std::span<const Mat34> mats)
    : fm_(mats.size()), dm_(mats.begin(), mats.end())
{
    for (std::size_t s = 0; s < mats.size(); ++s) {
        const Mat34& m = mats[s];
        fm_[s] = {static_cast<float>(m[0].x), static_cast<float>(m[0].y),
                  static_cast<float>(m[0].z), static_cast<float>(m[0].w),
                  static_cast<float>(m[1].x), static_cast<float>(m[1].y),
                  static_cast<float>(m[1].z), static_cast<float>(m[1].w),
                  static_cast<float>(m[2].x), static_cast<float>(m[2].y),
                  static_cast<float>(m[2].z), static_cast<float>(m[2].w)};
    }
}

namespace {

/// Listing 1 devSubPixel: manual single-precision bilinear interpolation
/// over four integer texture fetches.  `x` is the detector column, `yrel`
/// the detector row relative to the streaming origin (texture wraps it),
/// `s` the view.  Templated over the texture type so the scalar fp32 and
/// the 8-bit-quantised paths share one implementation.
template <typename Tex>
inline float dev_sub_pixel(const Tex& tex, float x, float yrel, index_t s)
{
    const float fx = std::floor(x);
    const float fy = std::floor(yrel);
    const float du = x - fx;
    const float dv = yrel - fy;
    const index_t iu = static_cast<index_t>(fx);
    const index_t iv = static_cast<index_t>(fy);
    const float v0 = tex.fetch(iu, s, iv);
    const float v1 = tex.fetch(iu + 1, s, iv);
    const float v2 = tex.fetch(iu, s, iv + 1);
    const float v3 = tex.fetch(iu + 1, s, iv + 1);
    return (v0 * (1.0f - du) + v1 * du) * (1.0f - dv) + (v2 * (1.0f - du) + v3 * du) * dv;
}

/// The original Listing-1 loop: voxel-major, full 4-term dot products per
/// (voxel, view), checked fetches.  Retained as the in-build reference for
/// the vectorised kernel and as the q8 ablation path.
template <typename Tex>
void bp_scalar_impl(const Tex& tex, const MatrixPack& pack, Volume& vol, const StreamOffsets& off,
                    index_t nu, index_t nv)
{
    require(pack.views() == tex.height(),
            "backproject_streaming: texture height must equal the view count");
    require(tex.width() == nu, "backproject_streaming: texture width must equal Nu");
    const Dim3 d = vol.size();
    const index_t views = pack.views();
    const float proj_y0 = static_cast<float>(off.proj_y);

#pragma omp parallel for collapse(2) schedule(static)
    for (index_t k = 0; k < d.z; ++k) {
        for (index_t j = 0; j < d.y; ++j) {
            const float kk = static_cast<float>(k + off.volume_z);  // offset K (Listing 1 line 9)
            const float jj = static_cast<float>(j);
            for (index_t i = 0; i < d.x; ++i) {
                const float ii = static_cast<float>(i);
                float sum = 0.0f;
                for (index_t s = 0; s < views; ++s) {
                    const auto& m = pack.fmat(s);
                    // Eq. 8 (Listing 1 lines 12-14).
                    const float z = m[8] * ii + m[9] * jj + m[10] * kk + m[11];
                    if (z <= 0.0f) continue;
                    const float x = (m[0] * ii + m[1] * jj + m[2] * kk + m[3]) / z;
                    const float y = (m[4] * ii + m[5] * jj + m[6] * kk + m[7]) / z;
                    if (x < 0.0f || x > static_cast<float>(nu - 1) || y < 0.0f ||
                        y > static_cast<float>(nv - 1))
                        continue;
                    const float yrel = y - proj_y0;  // offset Y (Listing 1 line 15)
                    sum += 1.0f / (z * z) * dev_sub_pixel(tex, x, yrel, s);
                }
                vol.at(i, j, k) += sum;  // one volume write per voxel (line 19)
            }
        }
    }
}

/// Voxel rows of the column walk's scratch are padded to a multiple of
/// every backend's lane count, so the walk has no scalar tail: lanes past
/// nx are masked off and their sums land in the padding.
inline constexpr index_t kPadLanes = 8;

/// What every column block of the walk reads, resolved once per kernel
/// call by bp_vectorised.
struct Walk {
    const MatrixPack& pack;
    const float* texel;        ///< flat texture, [depth][height][width]
    const std::int32_t* zrow;  ///< circular-row offset table, nv entries
    index_t nx;                ///< voxels per row
    index_t nxp;               ///< nx padded to whole kPadLanes vectors
    index_t width;             ///< texels per texture row (Nu)
    float x_hi, y_hi;          ///< last detector column / row
    std::int32_t plane;        ///< texels per texture plane (height * width)
    std::int32_t texels;       ///< texels in the texture (depth * plane)
};

/// Pass-1 results of one view for a row of voxel columns, nxp entries
/// each (per-thread scratch).
struct Columns {
    float* zs;          ///< depth z where the column's u is on the detector, -1 elsewhere
    float* du;          ///< fraction of u past iu0
    float* wgt;         ///< FDK depth weight 1/z^2
    std::int32_t* iu0;  ///< left texel of the u pair, at most Nu - 2
};

/// Adds every view's contribution to the voxel columns (i, j) of slices
/// kk0 .. kk0 + nk - 1 into acc, nk rows of nxp.
using ColumnWalk = void (*)(const Walk& w, const Columns& c, double jj, double kk0, index_t nk,
                            float* acc);

// The column walk, compiled once per lane backend from one body.
namespace scalar {
namespace simd = xct::simd::scalar;
#include "backproj/walk_columns.inc"
}  // namespace scalar

#if defined(XCT_SIMD_HAVE_AVX2)
XCT_SIMD_AVX2_BEGIN
namespace avx2 {
namespace simd = xct::simd::avx2;
#include "backproj/walk_columns.inc"
}  // namespace avx2
XCT_SIMD_AVX2_END
#endif

#if defined(XCT_SIMD_HAVE_NEON)
namespace neon {
namespace simd = xct::simd::neon;
#include "backproj/walk_columns.inc"
}  // namespace neon
#endif

ColumnWalk column_walk(simd::Backend backend)
{
    require(simd::runnable(backend),
            "backproject_streaming: lane backend not runnable on this host");
#if defined(XCT_SIMD_HAVE_AVX2)
    if (backend == simd::Backend::avx2) return &avx2::walk_columns;
#endif
#if defined(XCT_SIMD_HAVE_NEON)
    if (backend == simd::Backend::neon) return &neon::walk_columns;
#endif
    return &scalar::walk_columns;
}

/// The vectorised column-blocked kernel (the production path).
///
/// Loop structure: the OpenMP loop runs over (slice block, voxel row j);
/// each iteration walks the views in order over the row's voxel columns
/// in a block of at most kSliceBlock slices.  x/y/z are affine in i, so each lane evaluates
/// fma(i, step, row_constant) from row constants hoisted per (view, row)
/// in double.  Every projection matrix the geometry builds has a zero k
/// coefficient in its u and depth rows (rotation axis along z), so the
/// walk (walk_columns.inc) splits in two passes per view:
///
///   * pass 1, once per (j, view): depth z, the z > 0 and u-bounds mask,
///     the u pair start iu0 with its fraction du, and the 1/z^2 weight,
///     stored in per-thread scratch.  z is sanitised to 1 on masked lanes
///     so the divisions never produce inf/NaN that could leak through a
///     blend;
///   * pass 2, per slice k of the block: only v, y = fma(i, dy, y0(k)) / z
///     with the same divide as pass 1's u, its bounds mask, and the
///     bilinear taps.  A texture plane offset table zrow[] pre-resolves
///     the circular depth wrap for every global detector row t = floor(y);
///     the partner row t+1 is a wrapping add, and the two u-neighbours of
///     each row come as one 64-bit pair gather (simd::gather_pair).
///
/// Each (voxel, view) sees the same operations in the same order as a
/// one-pass walk, so the block depth does not change a single bit.  The
/// block accumulator comes from the per-thread scratch pool and is flushed
/// to the volume once per block (checked writes).  The OpenMP loop and
/// every header-inline call stay here, outside the per-ISA code; `walk`
/// is the chosen backend's.  Indices fit int32 by the texture-size
/// require below; gathers are always in range because the clamps run
/// before index arithmetic, independent of the validity mask.
void bp_vectorised(ColumnWalk walk, const sim::Texture3& tex, const MatrixPack& pack,
                   Volume& vol, const StreamOffsets& off, index_t nu, index_t nv)
{
    require(pack.views() == tex.height(),
            "backproject_streaming: texture height must equal the view count");
    require(tex.width() == nu, "backproject_streaming: texture width must equal Nu");
    require(nu >= 2, "backproject_streaming: the detector needs at least two columns");
    bool k_free = true;
    for (index_t s = 0; s < pack.views(); ++s)
        k_free = k_free && pack.dmat(s)[0].z == 0.0 && pack.dmat(s)[2].z == 0.0;
    require(k_free, "backproject_streaming: a matrix's u or depth row depends on k "
                    "(the rotation axis must be the volume's z axis)");
    const Dim3 d = vol.size();
    const index_t width = tex.width();
    const index_t height = tex.height();
    const index_t depth = tex.depth();
    require(depth * height * width <
                static_cast<index_t>(std::numeric_limits<std::int32_t>::max()),
            "backproject_streaming: texture too large for int32 gather indices");

    // Circular-row offset table: global detector row t -> flat offset of
    // its texture plane, zrow[t] = ((t - proj_y) mod depth)*height*width.
    // After clamping y to [0, y_hi], t = floor(y) is in [0, nv-1]; the walk
    // derives the bilinear partner row t+1 from zrow[t] by a wrapping add.
    scratch::Buffer<std::int32_t> zrow_lease(static_cast<std::size_t>(nv));
    std::int32_t* zrow = zrow_lease.data();
    for (index_t t = 0; t < nv; ++t) {
        index_t zz = (t - off.proj_y) % depth;
        if (zz < 0) zz += depth;
        zrow[t] = static_cast<std::int32_t>(zz * height * width);
    }
    const index_t nxp = (d.x + kPadLanes - 1) / kPadLanes * kPadLanes;
    const Walk w{pack,
                 tex.device_span().data(),
                 zrow,
                 d.x,
                 nxp,
                 width,
                 static_cast<float>(nu - 1),
                 static_cast<float>(nv - 1),
                 static_cast<std::int32_t>(height * width),
                 static_cast<std::int32_t>(depth * height * width)};
    // Equal blocks of at most kSliceBlock slices: 17 slices walk as 9 + 8,
    // not as 16 + 1 with a whole pass 1 spent on the single slice.
    const index_t blocks = (d.z + kSliceBlock - 1) / kSliceBlock;
    const index_t block = blocks > 0 ? (d.z + blocks - 1) / blocks : 0;
    const auto row = static_cast<std::size_t>(nxp);

    // Rows near the volume's edge have fewer voxels on the detector, so
    // rows are dealt round-robin rather than in contiguous runs.
#pragma omp parallel for collapse(2) schedule(static, 1)
    for (index_t b = 0; b < blocks; ++b) {
        for (index_t j = 0; j < d.y; ++j) {
            const index_t k0 = b * block;
            const index_t nk = std::min(block, d.z - k0);
            // The block accumulator, then pass 1's zs, du and wgt rows.
            scratch::Buffer<float> f_lease((kSliceBlock + 3) * row);
            scratch::Buffer<std::int32_t> i_lease(row);
            float* acc = f_lease.data();
            const Columns c{acc + kSliceBlock * row, acc + (kSliceBlock + 1) * row,
                            acc + (kSliceBlock + 2) * row, i_lease.data()};
            std::fill(acc, acc + static_cast<std::size_t>(nk) * row, 0.0f);
            walk(w, c, static_cast<double>(j), static_cast<double>(k0 + off.volume_z), nk, acc);
            for (index_t kb = 0; kb < nk; ++kb)
                for (index_t i = 0; i < d.x; ++i) vol.at(i, j, k0 + kb) += acc[kb * nxp + i];
        }
    }
}

}  // namespace

void backproject_streaming(const sim::Texture3& tex, const MatrixPack& pack, Volume& vol,
                           const StreamOffsets& off, index_t nu, index_t nv)
{
    static const ColumnWalk walk = column_walk(simd::dispatched());
    bp_vectorised(walk, tex, pack, vol, off, nu, nv);
}

void backproject_streaming(const sim::Texture3& tex, std::span<const Mat34> mats, Volume& vol,
                           const StreamOffsets& off, index_t nu, index_t nv)
{
    backproject_streaming(tex, MatrixPack(mats), vol, off, nu, nv);
}

void backproject_streaming_scalar(const sim::Texture3& tex, const MatrixPack& pack, Volume& vol,
                                  const StreamOffsets& off, index_t nu, index_t nv)
{
    bp_scalar_impl(tex, pack, vol, off, nu, nv);
}

void backproject_streaming_scalar(const sim::Texture3& tex, std::span<const Mat34> mats,
                                  Volume& vol, const StreamOffsets& off, index_t nu, index_t nv)
{
    bp_scalar_impl(tex, MatrixPack(mats), vol, off, nu, nv);
}

void backproject_streaming_q8(const sim::QuantizedTexture3& tex, const MatrixPack& pack,
                              Volume& vol, const StreamOffsets& off, index_t nu, index_t nv)
{
    bp_scalar_impl(tex, pack, vol, off, nu, nv);
}

void backproject_streaming_q8(const sim::QuantizedTexture3& tex, std::span<const Mat34> mats,
                              Volume& vol, const StreamOffsets& off, index_t nu, index_t nv)
{
    bp_scalar_impl(tex, MatrixPack(mats), vol, off, nu, nv);
}

void detail::backproject_streaming_on(simd::Backend backend, const sim::Texture3& tex,
                                      const MatrixPack& pack, Volume& vol,
                                      const StreamOffsets& off, index_t nu, index_t nv)
{
    bp_vectorised(column_walk(backend), tex, pack, vol, off, nu, nv);
}

}  // namespace xct::backproj
