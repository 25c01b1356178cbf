/**
 * @file
 * Packed-panel GEMM (the production kernel) — scalar micro-kernel and
 * the runtime SIMD dispatcher.
 *
 * Classic three-level BLIS-style decomposition (the loop nest and the
 * packing routines live in gemm_packed_detail.hpp, shared with the
 * per-ISA variants):
 *
 *   for jc in N by kBlockN:           B column block
 *     for pc in K by kBlockK:         pack B(kBlockK x kBlockN) -> Bp
 *       parallel for ir in M by MR:   pack A(MR x kBlockK)      -> Ap
 *         micro-kernel: C[ir:ir+MR, jc:jc+kBlockN] += Ap * Bp
 *
 * Packing rewrites both operands into the exact order the micro-kernel
 * streams them, so the inner loop touches memory strictly sequentially.
 * The scalar micro-kernel computes a 4 x 16 register tile the compiler
 * auto-vectorises; gemm_packed_simd() routes to the hand-vectorised
 * AVX-512 (12 x 16), AVX2 (6 x 16) or NEON micro-kernels when the
 * build, the CPU and the disable switches all allow it, and degrades to
 * this scalar kernel otherwise. gemm_packed_im2col() runs the same two
 * paths with B read from an image window instead of a matrix.
 */
#include "ops/gemm/gemm.hpp"

#include <cstdint>
#include <limits>

#include "core/cpu_features.hpp"
#include "core/status.hpp"
#include "ops/gemm/gemm_packed_detail.hpp"

namespace orpheus {

namespace {

constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNr = gemm_detail::kPackNr;

/**
 * kMr x kNr register-tile micro-kernel: C[0..rows, 0..width] += Ap * Bp
 * over depth. The accumulator tile is function-local so the compiler
 * promotes it to vector registers.
 */
inline void
scalar_micro_kernel(std::int64_t depth, const float *__restrict ap,
                    const float *__restrict bp, float *__restrict c,
                    std::int64_t ldc, std::int64_t rows, std::int64_t width)
{
    // One named accumulator row per kMr row: with the row dimension
    // fully unrolled by hand the compiler keeps all four rows in vector
    // registers (kNr = 16 floats is one AVX-512 or two AVX2 registers
    // per row) and emits a dense FMA sequence. Leaving this as a 2-D
    // acc[r][j] array defeats register promotion and costs >10x.
    float acc0[kNr] = {}, acc1[kNr] = {}, acc2[kNr] = {},
          acc3[kNr] = {};
    static_assert(kMr == 4, "micro_kernel is unrolled for kMr == 4");

    for (std::int64_t p = 0; p < depth; ++p) {
        const float *__restrict b_row = bp + p * kNr;
        const float a0 = ap[p * kMr + 0];
        const float a1 = ap[p * kMr + 1];
        const float a2 = ap[p * kMr + 2];
        const float a3 = ap[p * kMr + 3];
        for (std::int64_t j = 0; j < kNr; ++j) {
            const float b = b_row[j];
            acc0[j] += a0 * b;
            acc1[j] += a1 * b;
            acc2[j] += a2 * b;
            acc3[j] += a3 * b;
        }
    }

    const float *accumulators[kMr] = {acc0, acc1, acc2, acc3};
    for (std::int64_t r = 0; r < rows; ++r) {
        float *c_row = c + r * ldc;
        for (std::int64_t j = 0; j < width; ++j)
            c_row[j] += accumulators[r][j];
    }
}

using gemm_detail::PackedB;

void
packed_scalar(std::int64_t m, std::int64_t n, std::int64_t k, const float *a,
              std::int64_t lda, const PackedB &b, float *c, std::int64_t ldc,
              const GemmScratch *scratch)
{
    gemm_detail::packed_gemm_driver<kMr>(m, n, k, a, lda, b, c, ldc, scratch,
                                         scalar_micro_kernel);
}

void
packed_simd(std::int64_t m, std::int64_t n, std::int64_t k, const float *a,
            std::int64_t lda, const PackedB &b, float *c, std::int64_t ldc,
            const GemmScratch *scratch)
{
#if defined(ORPHEUS_SIMD_X86)
    if (simd_enabled()) {
        // The zmm body runs only where it issues fewer FMAs than the ymm
        // body: with m <= 6 both issue twelve per depth step, and the
        // zmm ones cost more (1x1000x2048 classifier: ~1.75 ms against
        // ~1.3 ms). Problems narrower than one B panel also stay on the
        // ymm body (measured on tiny-mlp's 10-wide output layer). Both
        // bodies give identical bits.
        constexpr std::int64_t kAvx2Rows = 6;
        if (cpu_features().avx512f && m > kAvx2Rows &&
            n >= gemm_detail::kPackNr)
            gemm_packed_avx512(m, n, k, a, lda, b, c, ldc, scratch);
        else
            gemm_packed_avx2(m, n, k, a, lda, b, c, ldc, scratch);
        return;
    }
#elif defined(ORPHEUS_SIMD_NEON)
    if (simd_enabled()) {
        gemm_packed_neon(m, n, k, a, lda, b, c, ldc, scratch);
        return;
    }
#endif
    packed_scalar(m, n, k, a, lda, b, c, ldc, scratch);
}

} // namespace

std::size_t
gemm_packed_b_pack_floats()
{
    using namespace gemm_detail;
    return static_cast<std::size_t>(kPackBlockK) *
           static_cast<std::size_t>((kPackBlockN + kPackNr - 1) / kPackNr *
                                    kPackNr);
}

void
gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k, const float *a,
            std::int64_t lda, const float *b, std::int64_t ldb, float *c,
            std::int64_t ldc, const GemmScratch *scratch)
{
    packed_scalar(m, n, k, a, lda, PackedB{b, ldb}, c, ldc, scratch);
}

bool
gemm_packed_simd_available()
{
    return simd_enabled();
}

const char *
gemm_packed_simd_body()
{
#if defined(ORPHEUS_SIMD_X86)
    if (simd_enabled())
        return cpu_features().avx512f ? "avx512 12x16" : "avx2 6x16";
#elif defined(ORPHEUS_SIMD_NEON)
    if (simd_enabled())
        return "neon 4x16";
#endif
    return "scalar 4x16";
}

void
gemm_packed_simd(std::int64_t m, std::int64_t n, std::int64_t k,
                 const float *a, std::int64_t lda, const float *b,
                 std::int64_t ldb, float *c, std::int64_t ldc,
                 const GemmScratch *scratch)
{
    packed_simd(m, n, k, a, lda, PackedB{b, ldb}, c, ldc, scratch);
}

void
gemm_packed_im2col(GemmVariant variant, std::int64_t m, std::int64_t n,
                   std::int64_t k, const float *a, std::int64_t lda,
                   const Im2colWindow &b, float *c, std::int64_t ldc,
                   const GemmScratch *scratch)
{
    ORPHEUS_CHECK(gemm_variant_uses_packing(variant),
                  "gemm_packed_im2col needs a packed variant, got "
                      << to_string(variant));
    // The window packer computes coordinates and in-plane offsets in
    // 32 bits; every one lies inside the padded plane.
    const Conv2dParams &p = b.params;
    ORPHEUS_CHECK((b.height + p.pad_top + p.pad_bottom) *
                          (b.width + p.pad_left + p.pad_right) <=
                      std::numeric_limits<std::int32_t>::max(),
                  "gemm_packed_im2col: padded plane "
                      << b.height << "x" << b.width
                      << " exceeds 2^31 elements");
    const PackedB window{nullptr, 0, &b};
    if (variant == GemmVariant::kPackedSimd)
        packed_simd(m, n, k, a, lda, window, c, ldc, scratch);
    else
        packed_scalar(m, n, k, a, lda, window, c, ldc, scratch);
}

} // namespace orpheus
