/**
 * @file
 * AVX2+FMA micro-kernel for the packed-panel GEMM.
 *
 * Compiled with -mavx2 -mfma (per-file flags from src/ops/CMakeLists);
 * only reached through gemm_packed_simd() after the runtime cpuid probe
 * confirms AVX2+FMA, so the intrinsics here never execute on older
 * silicon.
 *
 * The register tile is 6 x 16: twelve ymm accumulators plus two B loads
 * and one A broadcast fit the sixteen-register ymm file exactly, and
 * with two dependent FMA chains per B column the kernel is throughput-
 * bound on the FMA ports rather than latency-bound. The B panel format
 * (16-column panels) is shared with the scalar kernel, so this variant
 * reuses the same packed-B workspace; only the A panel interleave (6
 * rows instead of 4) is private, and it lives on the worker's stack.
 *
 * A panel with one or two live rows (a batch-1 or batch-2 dense layer)
 * takes a body that issues FMAs for those rows only; each live element
 * runs the same FMA chain as in the full tile, so the bits match.
 */
#if defined(ORPHEUS_SIMD_X86)

#include <immintrin.h>

#include "ops/gemm/gemm_packed_detail.hpp"

namespace orpheus {

namespace {

constexpr std::int64_t kMr = 6;
constexpr std::int64_t kNr = gemm_detail::kPackNr;

/** C[0..rows, 0..width] += the two 8-wide halves @p lo / @p hi of each
 *  accumulator row. */
inline void
add_tile(const __m256 *lo, const __m256 *hi, float *__restrict c,
         std::int64_t ldc, std::int64_t rows, std::int64_t width)
{
    if (width == kNr) {
        for (std::int64_t r = 0; r < rows; ++r) {
            float *c_row = c + r * ldc;
            _mm256_storeu_ps(
                c_row, _mm256_add_ps(_mm256_loadu_ps(c_row), lo[r]));
            _mm256_storeu_ps(
                c_row + 8,
                _mm256_add_ps(_mm256_loadu_ps(c_row + 8), hi[r]));
        }
        return;
    }
    // Ragged N tail: spill the tile and accumulate the live columns.
    alignas(32) float tmp[kNr];
    for (std::int64_t r = 0; r < rows; ++r) {
        _mm256_store_ps(tmp, lo[r]);
        _mm256_store_ps(tmp + 8, hi[r]);
        float *c_row = c + r * ldc;
        for (std::int64_t j = 0; j < width; ++j)
            c_row[j] += tmp[j];
    }
}

/** The tile for a panel with @p Rows (1 or 2) live rows. */
template <int Rows>
void
avx2_few_rows(std::int64_t depth, const float *__restrict ap,
              const float *__restrict bp, float *__restrict c,
              std::int64_t ldc, std::int64_t width)
{
    __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
    __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
    for (std::int64_t p = 0; p < depth; ++p) {
        const float *b_row = bp + p * kNr;
        const __m256 b0 = _mm256_load_ps(b_row);
        const __m256 b1 = _mm256_load_ps(b_row + 8);
        const float *a_col = ap + p * kMr;
        __m256 a = _mm256_broadcast_ss(a_col + 0);
        acc00 = _mm256_fmadd_ps(a, b0, acc00);
        acc01 = _mm256_fmadd_ps(a, b1, acc01);
        if constexpr (Rows == 2) {
            a = _mm256_broadcast_ss(a_col + 1);
            acc10 = _mm256_fmadd_ps(a, b0, acc10);
            acc11 = _mm256_fmadd_ps(a, b1, acc11);
        }
    }
    const __m256 lo[2] = {acc00, acc10};
    const __m256 hi[2] = {acc01, acc11};
    add_tile(lo, hi, c, ldc, Rows, width);
}

void
avx2_micro_kernel(std::int64_t depth, const float *__restrict ap,
                  const float *__restrict bp, float *__restrict c,
                  std::int64_t ldc, std::int64_t rows, std::int64_t width)
{
    if (rows == 1) {
        avx2_few_rows<1>(depth, ap, bp, c, ldc, width);
        return;
    }
    if (rows == 2) {
        avx2_few_rows<2>(depth, ap, bp, c, ldc, width);
        return;
    }

    __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
    __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
    __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
    __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
    __m256 acc40 = _mm256_setzero_ps(), acc41 = _mm256_setzero_ps();
    __m256 acc50 = _mm256_setzero_ps(), acc51 = _mm256_setzero_ps();

    for (std::int64_t p = 0; p < depth; ++p) {
        const float *b_row = bp + p * kNr;
        const __m256 b0 = _mm256_load_ps(b_row);
        const __m256 b1 = _mm256_load_ps(b_row + 8);
        const float *a_col = ap + p * kMr;

        __m256 a = _mm256_broadcast_ss(a_col + 0);
        acc00 = _mm256_fmadd_ps(a, b0, acc00);
        acc01 = _mm256_fmadd_ps(a, b1, acc01);
        a = _mm256_broadcast_ss(a_col + 1);
        acc10 = _mm256_fmadd_ps(a, b0, acc10);
        acc11 = _mm256_fmadd_ps(a, b1, acc11);
        a = _mm256_broadcast_ss(a_col + 2);
        acc20 = _mm256_fmadd_ps(a, b0, acc20);
        acc21 = _mm256_fmadd_ps(a, b1, acc21);
        a = _mm256_broadcast_ss(a_col + 3);
        acc30 = _mm256_fmadd_ps(a, b0, acc30);
        acc31 = _mm256_fmadd_ps(a, b1, acc31);
        a = _mm256_broadcast_ss(a_col + 4);
        acc40 = _mm256_fmadd_ps(a, b0, acc40);
        acc41 = _mm256_fmadd_ps(a, b1, acc41);
        a = _mm256_broadcast_ss(a_col + 5);
        acc50 = _mm256_fmadd_ps(a, b0, acc50);
        acc51 = _mm256_fmadd_ps(a, b1, acc51);
    }

    const __m256 lo[kMr] = {acc00, acc10, acc20, acc30, acc40, acc50};
    const __m256 hi[kMr] = {acc01, acc11, acc21, acc31, acc41, acc51};
    add_tile(lo, hi, c, ldc, rows, width);
}

} // namespace

void
gemm_packed_avx2(std::int64_t m, std::int64_t n, std::int64_t k,
                 const PackedA &a, const PackedB &b, float *c,
                 std::int64_t ldc, const GemmScratch *scratch)
{
    gemm_detail::packed_gemm_driver<kMr>(m, n, k, a, b, c, ldc, scratch,
                                         avx2_micro_kernel);
}

} // namespace orpheus

#endif // ORPHEUS_SIMD_X86
