/**
 * @file
 * Shared skeleton of the packed-panel GEMM (internal header).
 *
 * The scalar kernel and the per-ISA SIMD variants (gemm_packed_avx2.cpp,
 * gemm_packed_avx512.cpp, gemm_packed_neon.cpp) all instantiate the same
 * three-level BLIS-style loop nest and the same packing routines; only
 * the register-tile micro-kernel (and its row height MR: 4 scalar, 6
 * AVX2, 12 AVX-512, 4 NEON) differs per instruction set — the
 * SMaLL-style "one loop nest, many intrinsic bodies" layout. Keeping
 * the B-panel format identical across variants (kPackNr = 16 columns)
 * means every variant shares one workspace contract
 * (gemm_packed_b_pack_floats()), so prepared layers and pooled replicas
 * never care which micro-kernel the dispatcher picks.
 *
 * Everything here has internal linkage (an unnamed namespace): the
 * per-ISA files compile this header with their own -m flags, and a
 * shared inline definition would let the linker keep, say, the
 * AVX-512-compiled pack_b_block for every caller — a SIGILL on a host
 * with AVX2 only.
 */
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "core/threadpool.hpp"
#include "ops/gemm/gemm.hpp"

namespace orpheus {

namespace gemm_detail {
namespace {

inline constexpr std::int64_t kPackNr = 16;
inline constexpr std::int64_t kPackBlockK = 256;
inline constexpr std::int64_t kPackBlockN = 1024;

/**
 * Packs rows [i0, i0+rows) x columns [p0, p0+depth) of A into panel
 * order: depth-major groups of MR interleaved row elements, zero-padded
 * to MR rows.
 */
template <int MR>
inline void
pack_a_panel(const float *a, std::int64_t lda, std::int64_t i0,
             std::int64_t rows, std::int64_t p0, std::int64_t depth,
             float *out)
{
    for (std::int64_t p = 0; p < depth; ++p) {
        for (std::int64_t r = 0; r < MR; ++r) {
            out[p * MR + r] =
                r < rows ? a[(i0 + r) * lda + (p0 + p)] : 0.0f;
        }
    }
}

/**
 * Packs rows [p0, p0+depth) x columns [j0, j0+cols) of B into panels of
 * kPackNr columns: panel-major, then depth, then the kPackNr interleaved
 * column elements, zero-padded to kPackNr columns.
 */
inline void
pack_b_block(const float *b, std::int64_t ldb, std::int64_t p0,
             std::int64_t depth, std::int64_t j0, std::int64_t cols,
             float *out)
{
    const std::int64_t panels = (cols + kPackNr - 1) / kPackNr;
    for (std::int64_t panel = 0; panel < panels; ++panel) {
        const std::int64_t j_base = j0 + panel * kPackNr;
        const std::int64_t width = std::min(kPackNr, j0 + cols - j_base);
        float *dst = out + panel * depth * kPackNr;
        for (std::int64_t p = 0; p < depth; ++p) {
            const float *src = b + (p0 + p) * ldb + j_base;
            for (std::int64_t j = 0; j < width; ++j)
                dst[p * kPackNr + j] = src[j];
            for (std::int64_t j = width; j < kPackNr; ++j)
                dst[p * kPackNr + j] = 0.0f;
        }
    }
}

/**
 * 64-byte-aligned fallback buffer for standalone (scratch-less) calls.
 * Workspace carve-outs are already 64-byte aligned (Buffer::kAlignment);
 * this keeps the packed panels vector-load-aligned on the fallback path
 * too, so the SIMD micro-kernels never split a cache line.
 */
inline float *
aligned_fallback(std::vector<float> &storage, std::size_t floats)
{
    storage.resize(floats + 16);
    void *p = storage.data();
    std::size_t space = (floats + 16) * sizeof(float);
    return static_cast<float *>(
        std::align(64, floats * sizeof(float), p, space));
}

/**
 * The shared loop nest: C = A * B with C zeroed first. @p micro_kernel
 * is invoked as micro_kernel(depth, ap, bp, c, ldc, rows, width) with
 * rows <= MR and width <= kPackNr; every variant therefore accumulates
 * each C element in the same p order, so results differ across ISAs
 * only by FMA contraction (a few ULP).
 */
template <int MR, typename MicroKernel>
inline void
packed_gemm_driver(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float *a, std::int64_t lda, const float *b,
                   std::int64_t ldb, float *c, std::int64_t ldc,
                   const GemmScratch *scratch, MicroKernel micro_kernel)
{
    for (std::int64_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0,
                    static_cast<std::size_t>(n) * sizeof(float));

    // Prepared callers pass the packed-B block through scratch (carved
    // from the engine workspace); standalone calls fall back to a local
    // allocation.
    float *b_pack = scratch != nullptr ? scratch->b_pack : nullptr;
    std::vector<float> b_pack_fallback;
    if (b_pack == nullptr)
        b_pack = aligned_fallback(b_pack_fallback,
                                  gemm_packed_b_pack_floats());

    const std::int64_t row_panels = (m + MR - 1) / MR;

    for (std::int64_t jc = 0; jc < n; jc += kPackBlockN) {
        const std::int64_t nc = std::min(kPackBlockN, n - jc);
        const std::int64_t col_panels = (nc + kPackNr - 1) / kPackNr;
        for (std::int64_t pc = 0; pc < k; pc += kPackBlockK) {
            const std::int64_t kc = std::min(kPackBlockK, k - pc);
            pack_b_block(b, ldb, pc, kc, jc, nc, b_pack);

            parallel_for(row_panels, [&](std::int64_t begin,
                                         std::int64_t end) {
                // One A panel is MR x kPackBlockK floats (a few KiB) —
                // small enough to live on the worker's stack, which
                // keeps the hot loop allocation-free with no per-thread
                // buffer bookkeeping.
                alignas(64) float a_pack[MR * kPackBlockK];

                for (std::int64_t panel = begin; panel < end; ++panel) {
                    const std::int64_t i0 = panel * MR;
                    const std::int64_t rows = std::min<std::int64_t>(
                        MR, m - i0);
                    pack_a_panel<MR>(a, lda, i0, rows, pc, kc, a_pack);

                    for (std::int64_t jp = 0; jp < col_panels; ++jp) {
                        const std::int64_t j_base = jc + jp * kPackNr;
                        const std::int64_t width =
                            std::min(kPackNr, jc + nc - j_base);
                        micro_kernel(kc, a_pack,
                                     b_pack + jp * kc * kPackNr,
                                     c + i0 * ldc + j_base, ldc, rows,
                                     width);
                    }
                }
            });
        }
    }
}

} // namespace
} // namespace gemm_detail

// Per-ISA entry points (defined in their own translation units, compiled
// with the matching ISA flags; referenced only when the corresponding
// ORPHEUS_SIMD_* definition is set).
#if defined(ORPHEUS_SIMD_X86)
void gemm_packed_avx2(std::int64_t m, std::int64_t n, std::int64_t k,
                      const float *a, std::int64_t lda, const float *b,
                      std::int64_t ldb, float *c, std::int64_t ldc,
                      const GemmScratch *scratch);
void gemm_packed_avx512(std::int64_t m, std::int64_t n, std::int64_t k,
                        const float *a, std::int64_t lda, const float *b,
                        std::int64_t ldb, float *c, std::int64_t ldc,
                        const GemmScratch *scratch);
#endif
#if defined(ORPHEUS_SIMD_NEON)
void gemm_packed_neon(std::int64_t m, std::int64_t n, std::int64_t k,
                      const float *a, std::int64_t lda, const float *b,
                      std::int64_t ldb, float *c, std::int64_t ldc,
                      const GemmScratch *scratch);
#endif

} // namespace orpheus
