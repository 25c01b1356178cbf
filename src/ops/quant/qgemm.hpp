/**
 * @file
 * The int8 GEMM of the quantized conv: int8 weights x uint8 activations
 * -> int32 accumulators.
 *
 * C[i][j] = sum_p W[i][p] * B[p][j]
 *
 * W (the weights) is row-major and stationary. B is the im2col view of
 * one uint8 input group (QWindow), streamed through 32-column tiles that
 * are gathered straight from the input, so no column matrix is ever
 * written. One loop gathers the tiles; the scalar, AVX2 and NEON bodies
 * differ only in how they multiply a tile. There is no zero-point term:
 * B's zero point is folded in by the caller through the weight row sums
 * (the weights are symmetric). Integer arithmetic is exact, so every
 * body gives bitwise identical results.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/op_params.hpp"

namespace orpheus {

/**
 * The im2col view of one uint8 image group, read as qgemm_w8a8's B
 * operand: row (c, kh, kw) and column (oh, ow) hold input[c][ih][iw]
 * with ih = oh * stride_h - pad_top + kh * dilation_h (iw likewise), or
 * @p pad_value where that falls outside the image. This is exactly the
 * matrix an explicit im2col would write with @p pad_value as padding;
 * params.group is ignored.
 */
struct QWindow {
    const std::uint8_t *input = nullptr; ///< channels x height x width.
    std::int64_t height = 0;
    std::int64_t width = 0;
    std::int64_t out_w = 0;
    Conv2dParams params;
    /** Read for taps outside the image: the activation zero point,
     *  which dequantizes to exactly 0. */
    std::uint8_t pad_value = 0;

    /** A row-major [k x n] matrix @p b: the 1x1, stride-1, unpadded
     *  window over a k x 1 x n input. */
    static QWindow
    row_major(const std::uint8_t *b, std::int64_t n)
    {
        QWindow window;
        window.input = b;
        window.height = 1;
        window.width = n;
        window.out_w = n;
        return window;
    }
};

/** Columns of B per gathered tile. */
inline constexpr std::int64_t kQgemmTileN = 32;

/**
 * Bytes of the staging buffer qgemm_w8a8 streams B through for
 * reduction depth @p k: the gathered uint8 tile, then (SIMD bodies) the
 * tile widened to int16 row pairs. Prepared layers reserve it in the
 * engine workspace (64-byte aligned); a null pack pointer falls back to
 * a call-local allocation.
 */
std::size_t qgemm_pack_bytes(std::int64_t k);

/**
 * Weight-stationary accumulation, the scalar body:
 * C[i][j] = sum_p W[i][p] * B[p][j] over [m x k] int8 weights (row
 * stride @p ldw) and the window @p b, into C (row stride @p ldc).
 * @p pack holds qgemm_pack_bytes(k) bytes or is null.
 */
void qgemm_w8a8(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t *w, std::int64_t ldw, const QWindow &b,
                std::int32_t *c, std::int64_t ldc,
                std::uint8_t *pack = nullptr);

/** True when the qgemm SIMD tier will dispatch to vector code (built
 *  in, supported by the CPU, and not disabled). */
bool qgemm_simd_available();

/**
 * SIMD qgemm_w8a8: bitwise identical to the scalar body. On AVX2 each
 * gathered tile is widened to sign-extended int16 row pairs so the dot
 * products run through vpmaddwd, which is exact in int32 (the
 * saturating u8 x i8 vpmaddubsw path would not be). Falls back to the
 * scalar body when the SIMD tier is unavailable or disabled.
 */
void qgemm_w8a8_simd(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t *w, std::int64_t ldw,
                     const QWindow &b, std::int32_t *c, std::int64_t ldc,
                     std::uint8_t *pack = nullptr);

// Per-ISA tile bodies (defined in qgemm_avx2.cpp / qgemm_neon.cpp,
// compiled with the matching ISA flags; referenced only when the
// corresponding ORPHEUS_SIMD_* definition is set). Each sets
// C[i][j] = sum_p W[i][p] * tile[p][j] for i < m and j < jw, where
// @p tile, the 64-byte-aligned start of the qgemm_pack_bytes(k) buffer,
// holds the gathered tile: kQgemmTileN columns per row, k rows rounded
// up to an even count. A body may use the rest of the buffer.
#if defined(ORPHEUS_SIMD_X86)
void qgemm_w8a8_tile_avx2(std::int64_t m, std::int64_t k,
                          const std::int8_t *w, std::int64_t ldw,
                          std::uint8_t *tile, std::int32_t *c,
                          std::int64_t ldc, std::int64_t jw);
#endif
#if defined(ORPHEUS_SIMD_NEON)
void qgemm_w8a8_tile_neon(std::int64_t m, std::int64_t k,
                          const std::int8_t *w, std::int64_t ldw,
                          std::uint8_t *tile, std::int32_t *c,
                          std::int64_t ldc, std::int64_t jw);
#endif

} // namespace orpheus
