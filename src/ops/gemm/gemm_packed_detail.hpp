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
 * B reaches the panels from one of three sources (PackedB): a row-major
 * matrix, the im2col view of an image (Im2colWindow), which
 * pack_b_window gathers straight from the input planes, or panels the
 * engine packed once at plan time (a Gemm weight). A likewise comes
 * row-major or as plan-time panels (a conv weight). GEMM convolution
 * therefore never writes a column matrix on the packed variants, and
 * every source hands the micro-kernel the same floats in the same order
 * as packing the row-major operands per call would.
 *
 * Everything here has internal linkage (an unnamed namespace): the
 * per-ISA files compile this header with their own -m flags, and a
 * shared inline definition would let the linker keep, say, the
 * AVX-512-compiled pack_b_block for every caller — a SIGILL on a host
 * with AVX2 only. The same flags pick the window packer's row load:
 * one masked gather under AVX-512F, two under AVX2, a scalar loop
 * elsewhere.
 */
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

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
 * Widens a depth-major panel of @p live interleaved elements per step
 * (the last, partial panel of plan-time panels) to @p full elements per
 * step, zero-padded: the order pack_a_panel / pack_b_block give it.
 */
inline void
widen_panel(const float *panel, std::int64_t live, std::int64_t depth,
            std::int64_t full, float *out)
{
    for (std::int64_t p = 0; p < depth; ++p)
        for (std::int64_t e = 0; e < full; ++e)
            out[p * full + e] = e < live ? panel[p * live + e] : 0.0f;
}

/**
 * Loads one kPackNr-wide panel row from @p plane: lane j is
 * plane[offset[j]] where valid[j] is set (all bits), else +0.0f.
 * Masked-off lanes read nothing.
 */
inline void
load_window_row(const float *plane, const std::int32_t *offset,
                const std::int32_t *valid, float *row)
{
#if defined(__AVX512F__)
    const __m512i lanes = _mm512_load_si512(valid);
    _mm512_store_ps(row, _mm512_mask_i32gather_ps(
                             _mm512_setzero_ps(),
                             _mm512_test_epi32_mask(lanes, lanes),
                             _mm512_load_si512(offset), plane, 4));
#elif defined(__AVX2__)
    for (int half = 0; half < 2; ++half) {
        const __m256i index = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(offset + 8 * half));
        const __m256 mask = _mm256_castsi256_ps(_mm256_load_si256(
            reinterpret_cast<const __m256i *>(valid + 8 * half)));
        _mm256_store_ps(row + 8 * half,
                        _mm256_mask_i32gather_ps(_mm256_setzero_ps(), plane,
                                                 index, mask, 4));
    }
#else
    for (std::int64_t j = 0; j < kPackNr; ++j)
        row[j] = valid[j] != 0 ? plane[offset[j]] : 0.0f;
#endif
}

/**
 * pack_b_block for the im2col view of @p w: packs rows [p0, p0+depth)
 * x columns [j0, j0+cols) into the same panel order, bit for bit what
 * im2col() followed by pack_b_block gives. Row p is channel p / taps at
 * tap p % taps, so a block may start mid-tap. For each tap the 16
 * column offsets and the in-image mask follow from the panel's
 * per-column window origins; every channel with a row at that tap in
 * this block then loads it in one load_window_row, or in one 16-float
 * copy when the 16 taps are adjacent in one input row (stride 1, away
 * from the borders). Nothing is sized by the kernel, so any kernel
 * packs without allocating.
 */
inline void
pack_b_window(const Im2colWindow &w, std::int64_t p0, std::int64_t depth,
              std::int64_t j0, std::int64_t cols, float *out)
{
    const Conv2dParams &p = w.params;
    const std::int64_t taps = p.kernel_h * p.kernel_w;
    const std::int64_t plane = w.height * w.width;
    const std::int64_t c_begin = p0 / taps;
    const std::int64_t c_end = (p0 + depth + taps - 1) / taps;
    // gemm_packed_operands checked that every window coordinate and
    // in-plane offset fits in 32 bits.
    const auto height = static_cast<std::int32_t>(w.height);
    const auto width_in = static_cast<std::int32_t>(w.width);

    const std::int64_t panels = (cols + kPackNr - 1) / kPackNr;
    for (std::int64_t panel = 0; panel < panels; ++panel) {
        const std::int64_t j_base = j0 + panel * kPackNr;
        const std::int64_t width = std::min(kPackNr, j0 + cols - j_base);
        float *dst = out + panel * depth * kPackNr;

        // Top-left input coordinate of each column's window.
        std::int32_t ih0[kPackNr] = {}, iw0[kPackNr] = {};
        for (std::int64_t j = 0; j < width; ++j) {
            const std::int64_t col = j_base + j;
            ih0[j] = static_cast<std::int32_t>(col / w.out_w * p.stride_h -
                                               p.pad_top);
            iw0[j] = static_cast<std::int32_t>(col % w.out_w * p.stride_w -
                                               p.pad_left);
        }

        for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
            const auto dh = static_cast<std::int32_t>(kh * p.dilation_h);
            for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
                const auto dw = static_cast<std::int32_t>(kw * p.dilation_w);
                alignas(64) std::int32_t offset[kPackNr];
                alignas(64) std::int32_t valid[kPackNr];
                for (std::int32_t j = 0; j < kPackNr; ++j) {
                    const std::int32_t ih = ih0[j] + dh;
                    const std::int32_t iw = iw0[j] + dw;
                    const bool in = j < width && ih >= 0 && ih < height &&
                                    iw >= 0 && iw < width_in;
                    offset[j] = in ? ih * width_in + iw : 0;
                    valid[j] = in ? -1 : 0;
                }
                bool dense = true;
                for (std::int32_t j = 0; j < kPackNr; ++j)
                    dense &= valid[j] != 0 && offset[j] == offset[0] + j;

                const std::int64_t tap = kh * p.kernel_w + kw;
                for (std::int64_t c = c_begin; c < c_end; ++c) {
                    const std::int64_t row = c * taps + tap - p0;
                    if (row < 0 || row >= depth)
                        continue;
                    const float *src = w.input + c * plane;
                    float *dst_row = dst + row * kPackNr;
                    if (dense)
                        std::memcpy(dst_row, src + offset[0],
                                    kPackNr * sizeof(float));
                    else
                        load_window_row(src, offset, valid, dst_row);
                }
            }
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
 * only by FMA contraction (a few ULP). Prepacked operands are read in
 * place (pack_gemm_a for this MR, pack_gemm_b): K block pc of the panel
 * of lanes [l0, l0 + w) is at l0 * k + w * pc. Only the last, partial
 * panel is widened to a full one first; B panels need no packed-B
 * scratch.
 */
template <int MR, typename MicroKernel>
inline void
packed_gemm_driver(std::int64_t m, std::int64_t n, std::int64_t k,
                   const PackedA &a, const PackedB &b, float *c,
                   std::int64_t ldc, const GemmScratch *scratch,
                   MicroKernel micro_kernel)
{
    for (std::int64_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0,
                    static_cast<std::size_t>(n) * sizeof(float));

    // Prepared callers pass the packed-B block through scratch (carved
    // from the engine workspace); standalone calls fall back to a local
    // allocation.
    float *b_pack = nullptr;
    std::vector<float> b_pack_fallback;
    if (b.panels == nullptr) {
        b_pack = scratch != nullptr ? scratch->b_pack : nullptr;
        if (b_pack == nullptr)
            b_pack = aligned_fallback(b_pack_fallback,
                                      gemm_packed_b_pack_floats());
    }
    // The last B panel of a block, widened (16 KiB).
    alignas(64) float b_tail[kPackNr * kPackBlockK];

    const std::int64_t row_panels = (m + MR - 1) / MR;

    for (std::int64_t jc = 0; jc < n; jc += kPackBlockN) {
        const std::int64_t nc = std::min(kPackBlockN, n - jc);
        const std::int64_t col_panels = (nc + kPackNr - 1) / kPackNr;
        for (std::int64_t pc = 0; pc < k; pc += kPackBlockK) {
            const std::int64_t kc = std::min(kPackBlockK, k - pc);
            const std::int64_t tail = nc % kPackNr;
            if (b.panels != nullptr) {
                if (tail != 0)
                    widen_panel(b.panels + (jc + nc - tail) * k + tail * pc,
                                tail, kc, kPackNr, b_tail);
            } else if (b.window != nullptr) {
                pack_b_window(*b.window, pc, kc, jc, nc, b_pack);
            } else {
                pack_b_block(b.b, b.ldb, pc, kc, jc, nc, b_pack);
            }

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
                    const float *ap = a_pack;
                    if (a.panels == nullptr) {
                        pack_a_panel<MR>(a.a, a.lda, i0, rows, pc, kc,
                                         a_pack);
                    } else {
                        const float *panel_a = a.panels + i0 * k + rows * pc;
                        if (rows == MR)
                            ap = panel_a;
                        else
                            widen_panel(panel_a, rows, kc, MR, a_pack);
                    }

                    for (std::int64_t jp = 0; jp < col_panels; ++jp) {
                        const std::int64_t j_base = jc + jp * kPackNr;
                        const std::int64_t width =
                            std::min(kPackNr, jc + nc - j_base);
                        const float *bp = b_tail;
                        if (b.panels == nullptr)
                            bp = b_pack + jp * kc * kPackNr;
                        else if (width == kPackNr)
                            bp = b.panels + j_base * k + kPackNr * pc;
                        micro_kernel(kc, ap, bp, c + i0 * ldc + j_base, ldc,
                                     rows, width);
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
                      const PackedA &a, const PackedB &b, float *c,
                      std::int64_t ldc, const GemmScratch *scratch);
void gemm_packed_avx512(std::int64_t m, std::int64_t n, std::int64_t k,
                        const PackedA &a, const PackedB &b, float *c,
                        std::int64_t ldc, const GemmScratch *scratch);
#endif
#if defined(ORPHEUS_SIMD_NEON)
void gemm_packed_neon(std::int64_t m, std::int64_t n, std::int64_t k,
                      const PackedA &a, const PackedB &b, float *c,
                      std::int64_t ldc, const GemmScratch *scratch);
#endif

} // namespace orpheus
