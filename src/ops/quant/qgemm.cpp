#include "ops/quant/qgemm.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "core/cpu_features.hpp"

namespace orpheus {

namespace {

/** 64-byte-aligned qgemm_pack_bytes(k) buffer for standalone calls. */
std::uint8_t *
aligned_pack_fallback(std::vector<std::uint8_t> &storage, std::int64_t k)
{
    const std::size_t bytes = qgemm_pack_bytes(k);
    storage.resize(bytes + 64);
    void *p = storage.data();
    std::size_t space = storage.size();
    return static_cast<std::uint8_t *>(std::align(64, bytes, p, space));
}

/** ceil(@p a / @p b) for @p b > 0, and 0 for @p a <= 0. */
std::int64_t
ceil_div_positive(std::int64_t a, std::int64_t b)
{
    return a <= 0 ? 0 : (a + b - 1) / b;
}

/**
 * Gathers columns [j0, j0 + jw) of rows [0, k) of @p b into @p tile:
 * row p at tile + p * kQgemmTileN, lanes at and past @p jw set to the
 * pad value.
 */
void
gather_tile(const QWindow &b, std::int64_t k, std::int64_t j0,
            std::int64_t jw, std::uint8_t *tile)
{
    if (k == 0)
        return; // A zero-extent kernel has no rows, nor taps to divide by.
    const Conv2dParams &p = b.params;
    const std::int64_t channels = k / (p.kernel_h * p.kernel_w);
    const std::int64_t sw = p.stride_w;

    // The tile's columns fall into runs along output rows: run r covers
    // lanes [lane[r], lane[r + 1]) of output row oh[r], from column
    // ow[r]. In one run a tap reads one input row at stride sw. Each run
    // holds at least one lane, so there are at most kQgemmTileN runs.
    std::int64_t lane[kQgemmTileN + 1], oh[kQgemmTileN], ow[kQgemmTileN];
    std::int64_t runs = 0;
    lane[0] = 0;
    while (lane[runs] < jw) {
        const std::int64_t j = j0 + lane[runs];
        oh[runs] = j / b.out_w;
        ow[runs] = j % b.out_w;
        lane[runs + 1] = std::min(jw, lane[runs] + b.out_w - ow[runs]);
        ++runs;
    }

    std::uint8_t *row = tile;
    for (std::int64_t c = 0; c < channels; ++c) {
        const std::uint8_t *plane = b.input + c * b.height * b.width;
        for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
            for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
                for (std::int64_t r = 0; r < runs; ++r) {
                    std::uint8_t *dst = row + lane[r];
                    const std::int64_t len = lane[r + 1] - lane[r];
                    const std::int64_t ih =
                        oh[r] * p.stride_h - p.pad_top + kh * p.dilation_h;
                    // Lanes [lead, tail) read iw = iw0 + lane * sw inside
                    // the input row; the others are padding.
                    const std::int64_t iw0 =
                        ow[r] * sw - p.pad_left + kw * p.dilation_w;
                    const std::int64_t in_row =
                        ih >= 0 && ih < b.height ? len : 0;
                    const std::int64_t lead =
                        std::min(ceil_div_positive(-iw0, sw), in_row);
                    const std::int64_t tail = std::clamp(
                        ceil_div_positive(b.width - iw0, sw), lead, in_row);
                    const std::int64_t at = ih * b.width + iw0;
                    for (std::int64_t t = 0; t < lead; ++t)
                        dst[t] = b.pad_value;
                    for (std::int64_t t = lead; t < tail; ++t)
                        dst[t] = plane[at + t * sw];
                    for (std::int64_t t = tail; t < len; ++t)
                        dst[t] = b.pad_value;
                }
                for (std::int64_t t = jw; t < kQgemmTileN; ++t)
                    row[t] = b.pad_value;
                row += kQgemmTileN;
            }
        }
    }
}

/** The scalar tile body, under the per-ISA tile bodies' contract
 *  (qgemm.hpp). */
void
tile_scalar(std::int64_t m, std::int64_t k, const std::int8_t *w,
            std::int64_t ldw, std::uint8_t *tile, std::int32_t *c,
            std::int64_t ldc, std::int64_t jw)
{
    for (std::int64_t i = 0; i < m; ++i) {
        const std::int8_t *w_row = w + i * ldw;
        std::int32_t acc[kQgemmTileN] = {};
        for (std::int64_t p = 0; p < k; ++p) {
            const std::int32_t w_val = w_row[p];
            if (w_val == 0)
                continue;
            const std::uint8_t *b_row = tile + p * kQgemmTileN;
            for (std::int64_t j = 0; j < kQgemmTileN; ++j)
                acc[j] += w_val * static_cast<std::int32_t>(b_row[j]);
        }
        std::copy(acc, acc + jw, c + i * ldc);
    }
}

using TileBody = void (*)(std::int64_t m, std::int64_t k,
                          const std::int8_t *w, std::int64_t ldw,
                          std::uint8_t *tile, std::int32_t *c,
                          std::int64_t ldc, std::int64_t jw);

/** The loop every body shares: gather each 32-column tile of @p b into
 *  the staging buffer, then run @p body over it. */
void
run_tiles(TileBody body, std::int64_t m, std::int64_t n, std::int64_t k,
          const std::int8_t *w, std::int64_t ldw, const QWindow &b,
          std::int32_t *c, std::int64_t ldc, std::uint8_t *pack)
{
    std::vector<std::uint8_t> pack_fallback;
    if (pack == nullptr)
        pack = aligned_pack_fallback(pack_fallback, k);
    // The tile holds an even number of rows; an odd k's last one is
    // never gathered and pairs with a zero weight, so any defined value
    // will do.
    if (k % 2 != 0)
        std::memset(pack + k * kQgemmTileN, 0, kQgemmTileN);
    for (std::int64_t j0 = 0; j0 < n; j0 += kQgemmTileN) {
        const std::int64_t jw = std::min(kQgemmTileN, n - j0);
        gather_tile(b, k, j0, jw, pack);
        body(m, k, w, ldw, pack, c + j0, ldc, jw);
    }
}

} // namespace

std::size_t
qgemm_pack_bytes(std::int64_t k)
{
    // ceil(k/2) row pairs: kQgemmTileN uint8 columns per row of the
    // gathered tile, then the same rows as int16 pairs.
    const auto pairs = static_cast<std::size_t>((k + 1) / 2);
    return pairs * 2 * kQgemmTileN * (sizeof(std::uint8_t) +
                                      sizeof(std::int16_t));
}

void
qgemm_w8a8(std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t *w, std::int64_t ldw, const QWindow &b,
           std::int32_t *c, std::int64_t ldc, std::uint8_t *pack)
{
    run_tiles(tile_scalar, m, n, k, w, ldw, b, c, ldc, pack);
}

bool
qgemm_simd_available()
{
    return simd_enabled();
}

void
qgemm_w8a8_simd(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t *w, std::int64_t ldw, const QWindow &b,
                std::int32_t *c, std::int64_t ldc, std::uint8_t *pack)
{
#if defined(ORPHEUS_SIMD_X86)
    const TileBody body = qgemm_w8a8_tile_avx2;
#elif defined(ORPHEUS_SIMD_NEON)
    const TileBody body = qgemm_w8a8_tile_neon;
#else
    const TileBody body = tile_scalar;
#endif
    run_tiles(simd_enabled() ? body : tile_scalar, m, n, k, w, ldw, b, c,
              ldc, pack);
}

} // namespace orpheus
