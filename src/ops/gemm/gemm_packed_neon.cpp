/**
 * @file
 * NEON micro-kernel for the packed-panel GEMM (AArch64).
 *
 * AdvSIMD is baseline on AArch64, so no per-file flags are needed; the
 * TU is only compiled (and only reached through gemm_packed_simd())
 * when the build targets aarch64. The tile is 4 x 16 — the same shape
 * and the same A-panel interleave as the scalar kernel — held in
 * sixteen q-register accumulators, with the A column reloaded as one
 * 4-lane vector and spread via vfmaq_laneq_f32.
 */
#if defined(ORPHEUS_SIMD_NEON)

#include <arm_neon.h>

#include "ops/gemm/gemm_packed_detail.hpp"

namespace orpheus {

namespace {

constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNr = gemm_detail::kPackNr;

void
neon_micro_kernel(std::int64_t depth, const float *__restrict ap,
                  const float *__restrict bp, float *__restrict c,
                  std::int64_t ldc, std::int64_t rows, std::int64_t width)
{
    float32x4_t acc[kMr][4];
    for (int r = 0; r < kMr; ++r)
        for (int q = 0; q < 4; ++q)
            acc[r][q] = vdupq_n_f32(0.0f);

    for (std::int64_t p = 0; p < depth; ++p) {
        const float *b_row = bp + p * kNr;
        const float32x4_t a_col = vld1q_f32(ap + p * kMr);
        const float32x4_t b0 = vld1q_f32(b_row);
        const float32x4_t b1 = vld1q_f32(b_row + 4);
        const float32x4_t b2 = vld1q_f32(b_row + 8);
        const float32x4_t b3 = vld1q_f32(b_row + 12);

        acc[0][0] = vfmaq_laneq_f32(acc[0][0], b0, a_col, 0);
        acc[0][1] = vfmaq_laneq_f32(acc[0][1], b1, a_col, 0);
        acc[0][2] = vfmaq_laneq_f32(acc[0][2], b2, a_col, 0);
        acc[0][3] = vfmaq_laneq_f32(acc[0][3], b3, a_col, 0);
        acc[1][0] = vfmaq_laneq_f32(acc[1][0], b0, a_col, 1);
        acc[1][1] = vfmaq_laneq_f32(acc[1][1], b1, a_col, 1);
        acc[1][2] = vfmaq_laneq_f32(acc[1][2], b2, a_col, 1);
        acc[1][3] = vfmaq_laneq_f32(acc[1][3], b3, a_col, 1);
        acc[2][0] = vfmaq_laneq_f32(acc[2][0], b0, a_col, 2);
        acc[2][1] = vfmaq_laneq_f32(acc[2][1], b1, a_col, 2);
        acc[2][2] = vfmaq_laneq_f32(acc[2][2], b2, a_col, 2);
        acc[2][3] = vfmaq_laneq_f32(acc[2][3], b3, a_col, 2);
        acc[3][0] = vfmaq_laneq_f32(acc[3][0], b0, a_col, 3);
        acc[3][1] = vfmaq_laneq_f32(acc[3][1], b1, a_col, 3);
        acc[3][2] = vfmaq_laneq_f32(acc[3][2], b2, a_col, 3);
        acc[3][3] = vfmaq_laneq_f32(acc[3][3], b3, a_col, 3);
    }

    if (width == kNr) {
        for (std::int64_t r = 0; r < rows; ++r) {
            float *c_row = c + r * ldc;
            for (int q = 0; q < 4; ++q)
                vst1q_f32(c_row + 4 * q,
                          vaddq_f32(vld1q_f32(c_row + 4 * q), acc[r][q]));
        }
        return;
    }
    // Ragged N tail: spill the tile and accumulate the live columns.
    alignas(16) float tmp[kNr];
    for (std::int64_t r = 0; r < rows; ++r) {
        for (int q = 0; q < 4; ++q)
            vst1q_f32(tmp + 4 * q, acc[r][q]);
        float *c_row = c + r * ldc;
        for (std::int64_t j = 0; j < width; ++j)
            c_row[j] += tmp[j];
    }
}

} // namespace

void
gemm_packed_neon(std::int64_t m, std::int64_t n, std::int64_t k,
                 const PackedA &a, const PackedB &b, float *c,
                 std::int64_t ldc, const GemmScratch *scratch)
{
    gemm_detail::packed_gemm_driver<kMr>(m, n, k, a, b, c, ldc, scratch,
                                         neon_micro_kernel);
}

} // namespace orpheus

#endif // ORPHEUS_SIMD_NEON
