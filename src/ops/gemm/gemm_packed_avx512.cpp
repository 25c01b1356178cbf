/**
 * @file
 * AVX-512F micro-kernel for the packed-panel GEMM.
 *
 * Compiled with -mavx512f -mavx2 -mfma (per-file flags from
 * src/ops/CMakeLists); only reached through gemm_packed_simd() after the
 * runtime probe confirms AVX-512F and that the OS saves the opmask and
 * zmm state, so the intrinsics here never execute on silicon or kernels
 * without it.
 *
 * The register tile is 12 x 16: one zmm holds a whole row of the shared
 * 16-column B panel, so each depth step is one B load, twelve A
 * broadcasts and twelve independent FMA chains into twelve zmm
 * accumulators — enough chains to cover the FMA latency on both ports,
 * with half of the 32-register zmm file still free. The B panel format is
 * the one every variant shares, so this body reuses the packed-B
 * workspace; only the A panel interleave (12 rows) is private, and it
 * lives on the worker's stack.
 *
 * Each C element accumulates the same products in the same p order,
 * all fused, and each K block is added to C the same way as in the
 * AVX2 6 x 16 body, so the two x86 bodies are bitwise identical.
 */
#if defined(ORPHEUS_SIMD_X86)

#include <immintrin.h>

#include "ops/gemm/gemm_packed_detail.hpp"

namespace orpheus {

namespace {

constexpr std::int64_t kMr = 12;
constexpr std::int64_t kNr = gemm_detail::kPackNr;

void
avx512_micro_kernel(std::int64_t depth, const float *__restrict ap,
                    const float *__restrict bp, float *__restrict c,
                    std::int64_t ldc, std::int64_t rows, std::int64_t width)
{
    __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
    __m512 acc2 = _mm512_setzero_ps(), acc3 = _mm512_setzero_ps();
    __m512 acc4 = _mm512_setzero_ps(), acc5 = _mm512_setzero_ps();
    __m512 acc6 = _mm512_setzero_ps(), acc7 = _mm512_setzero_ps();
    __m512 acc8 = _mm512_setzero_ps(), acc9 = _mm512_setzero_ps();
    __m512 acc10 = _mm512_setzero_ps(), acc11 = _mm512_setzero_ps();

    for (std::int64_t p = 0; p < depth; ++p) {
        const __m512 b = _mm512_load_ps(bp + p * kNr);
        const float *a_col = ap + p * kMr;

        acc0 = _mm512_fmadd_ps(_mm512_set1_ps(a_col[0]), b, acc0);
        acc1 = _mm512_fmadd_ps(_mm512_set1_ps(a_col[1]), b, acc1);
        acc2 = _mm512_fmadd_ps(_mm512_set1_ps(a_col[2]), b, acc2);
        acc3 = _mm512_fmadd_ps(_mm512_set1_ps(a_col[3]), b, acc3);
        acc4 = _mm512_fmadd_ps(_mm512_set1_ps(a_col[4]), b, acc4);
        acc5 = _mm512_fmadd_ps(_mm512_set1_ps(a_col[5]), b, acc5);
        acc6 = _mm512_fmadd_ps(_mm512_set1_ps(a_col[6]), b, acc6);
        acc7 = _mm512_fmadd_ps(_mm512_set1_ps(a_col[7]), b, acc7);
        acc8 = _mm512_fmadd_ps(_mm512_set1_ps(a_col[8]), b, acc8);
        acc9 = _mm512_fmadd_ps(_mm512_set1_ps(a_col[9]), b, acc9);
        acc10 = _mm512_fmadd_ps(_mm512_set1_ps(a_col[10]), b, acc10);
        acc11 = _mm512_fmadd_ps(_mm512_set1_ps(a_col[11]), b, acc11);
    }

    const __m512 acc[kMr] = {acc0, acc1, acc2, acc3, acc4,  acc5,
                             acc6, acc7, acc8, acc9, acc10, acc11};

    if (width == kNr) {
        for (std::int64_t r = 0; r < rows; ++r) {
            float *c_row = c + r * ldc;
            _mm512_storeu_ps(
                c_row, _mm512_add_ps(_mm512_loadu_ps(c_row), acc[r]));
        }
        return;
    }
    // Ragged N tail: spill the tile and accumulate the live columns.
    alignas(64) float tmp[kNr];
    for (std::int64_t r = 0; r < rows; ++r) {
        _mm512_store_ps(tmp, acc[r]);
        float *c_row = c + r * ldc;
        for (std::int64_t j = 0; j < width; ++j)
            c_row[j] += tmp[j];
    }
}

} // namespace

void
gemm_packed_avx512(std::int64_t m, std::int64_t n, std::int64_t k,
                   const PackedA &a, const PackedB &b, float *c,
                   std::int64_t ldc, const GemmScratch *scratch)
{
    gemm_detail::packed_gemm_driver<kMr>(m, n, k, a, b, c, ldc, scratch,
                                         avx512_micro_kernel);
}

} // namespace orpheus

#endif // ORPHEUS_SIMD_X86
