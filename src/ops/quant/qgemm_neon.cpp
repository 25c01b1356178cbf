/**
 * @file
 * NEON tile body of qgemm_w8a8 (AArch64; AdvSIMD is baseline, no
 * per-file flags). Structure: widen each gathered 32-column tile row to
 * int16 with vmovl, broadcast the stationary weight, and accumulate
 * through vmlal_s16 (s16 x s16 -> s32, exact) — so, like the AVX2 body,
 * results are bitwise identical to the scalar body. The tile rows are
 * consumed in row-major order, so no int16 repacking is needed on this
 * ISA.
 */
#if defined(ORPHEUS_SIMD_NEON)

#include <arm_neon.h>

#include <algorithm>

#include "ops/quant/qgemm.hpp"

namespace orpheus {

namespace {

/** Accumulates acc[0..3] (16 int32 lanes) += v16 * scalar_s16. */
inline void
mla_lanes(int32x4_t acc[4], int16x8_t lo, int16x8_t hi, int16x4_t scalar)
{
    acc[0] = vmlal_lane_s16(acc[0], vget_low_s16(lo), scalar, 0);
    acc[1] = vmlal_lane_s16(acc[1], vget_high_s16(lo), scalar, 0);
    acc[2] = vmlal_lane_s16(acc[2], vget_low_s16(hi), scalar, 0);
    acc[3] = vmlal_lane_s16(acc[3], vget_high_s16(hi), scalar, 0);
}

} // namespace

void
qgemm_w8a8_tile_neon(std::int64_t m, std::int64_t k, const std::int8_t *w,
                     std::int64_t ldw, std::uint8_t *tile, std::int32_t *c,
                     std::int64_t ldc, std::int64_t jw)
{
    for (std::int64_t i = 0; i < m; ++i) {
        const std::int8_t *w_row = w + i * ldw;
        int32x4_t acc[8];
        for (int q = 0; q < 8; ++q)
            acc[q] = vdupq_n_s32(0);
        for (std::int64_t p = 0; p < k; ++p) {
            if (w_row[p] == 0)
                continue;
            const int16x4_t wv =
                vdup_n_s16(static_cast<std::int16_t>(w_row[p]));
            const std::uint8_t *b_row = tile + p * kQgemmTileN;
            for (int half = 0; half < 2; ++half) {
                const uint8x16_t bv = vld1q_u8(b_row + 16 * half);
                mla_lanes(acc + 4 * half,
                          vreinterpretq_s16_u16(vmovl_u8(vget_low_u8(bv))),
                          vreinterpretq_s16_u16(vmovl_u8(vget_high_u8(bv))),
                          wv);
            }
        }
        std::int32_t out[kQgemmTileN];
        for (int q = 0; q < 8; ++q)
            vst1q_s32(out + 4 * q, acc[q]);
        std::copy(out, out + jw, c + i * ldc);
    }
}

} // namespace orpheus

#endif // ORPHEUS_SIMD_NEON
