/**
 * @file
 * Single-precision GEMM kernels.
 *
 * Orpheus ships three interchangeable algorithms for C = A * B over
 * row-major matrices; they are the computational core of GEMM-based
 * convolution (the paper's headline design choice) and of dense layers:
 *
 *  - kNaive:   textbook triple loop; the correctness reference.
 *  - kBlocked: cache-tiled i/k/j loop nest.
 *  - kPacked:  panel-packing with a register-tiled micro-kernel;
 *              the production default.
 *
 * All kernels share one signature so the registry (and the benchmarks)
 * can swap them freely. Matrices are dense row-major with explicit
 * leading dimensions, BLAS-style.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/op_params.hpp"

namespace orpheus {

/**
 * Caller-provided scratch for the GEMM kernels. Every pointer is
 * optional: a null field makes the kernel fall back to a self-managed
 * heap buffer (the pre-preparation behaviour), a non-null field must
 * point at least at the advertised number of floats. Prepared layers
 * carve these from the engine's planned workspace segment so
 * steady-state inference performs no heap allocation.
 */
struct GemmScratch {
    /** Packed-B block for gemm_packed; gemm_packed_b_pack_floats(). */
    float *b_pack = nullptr;
    /** Materialised transpose of A for gemm_general (m*k floats). */
    float *a_trans = nullptr;
    /** Materialised transpose of B for gemm_general (k*n floats). */
    float *b_trans = nullptr;
    /** alpha/beta staging product for gemm_general (m*n floats). */
    float *product = nullptr;
};

/** Floats a GemmScratch::b_pack buffer must hold for gemm_packed. */
std::size_t gemm_packed_b_pack_floats();

/** C[M x N] = A[M x K] * B[K x N]; C is overwritten. */
void gemm_naive(std::int64_t m, std::int64_t n, std::int64_t k,
                const float *a, std::int64_t lda, const float *b,
                std::int64_t ldb, float *c, std::int64_t ldc);

/** Cache-blocked variant of gemm_naive (identical semantics). */
void gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float *a, std::int64_t lda, const float *b,
                  std::int64_t ldb, float *c, std::int64_t ldc);

/**
 * Packed panel GEMM with a 4x16 register-tiled micro-kernel; rows of C
 * are distributed over the global thread pool. @p scratch (optional)
 * supplies the packed-B block buffer.
 */
void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k,
                 const float *a, std::int64_t lda, const float *b,
                 std::int64_t ldb, float *c, std::int64_t ldc,
                 const GemmScratch *scratch = nullptr);

/** True when gemm_packed_simd will take a vectorised micro-kernel:
 *  the SIMD tier is compiled in, the CPU supports it, and neither
 *  ORPHEUS_DISABLE_SIMD nor --no-simd forced scalar dispatch. */
bool gemm_packed_simd_available();

/**
 * The micro-kernel body gemm_packed_simd runs for problems with more
 * than 6 rows and at least one 16-column panel wide (every conv layer
 * of the zoo): "avx512 12x16", "avx2 6x16", "neon 4x16", or
 * "scalar 4x16" when the SIMD tier is unavailable or disabled. The
 * registry impl names carry only the compiled tier ("_avx2"), so this
 * is how an operator tells the two x86 bodies apart.
 */
const char *gemm_packed_simd_body();

/**
 * Packed panel GEMM through the runtime-dispatched SIMD micro-kernel;
 * identical blocking, packing layout and workspace contract as
 * gemm_packed, and results within a few ULP (the SIMD tile accumulates
 * each element in the same order, fused). On x86 it runs the AVX-512F
 * 12 x 16 body when the CPU and the OS support AVX-512F, m > 6 and n is
 * at least one panel wide, else the AVX2+FMA 6 x 16 body; the two give
 * bitwise identical results. On aarch64 it runs the NEON body. Falls
 * back to gemm_packed when the SIMD tier is unavailable or disabled.
 */
void gemm_packed_simd(std::int64_t m, std::int64_t n, std::int64_t k,
                      const float *a, std::int64_t lda, const float *b,
                      std::int64_t ldb, float *c, std::int64_t ldc,
                      const GemmScratch *scratch = nullptr);

enum class GemmVariant {
    kNaive = 0,
    kBlocked,
    kPacked,
    kPackedSimd,
};

/** True for the variants that stream B through the packed-panel buffer
 *  (and therefore need a GemmScratch::b_pack reservation). */
inline bool
gemm_variant_uses_packing(GemmVariant variant)
{
    return variant == GemmVariant::kPacked ||
           variant == GemmVariant::kPackedSimd;
}

const char *to_string(GemmVariant variant);

/**
 * The im2col view of one image group, read as a GEMM B operand: row
 * (c, kh, kw) and column (oh, ow) hold input[c][ih][iw] with
 * ih = oh * stride_h - pad_top + kh * dilation_h (iw likewise), or 0
 * where that falls outside the image. This is exactly the matrix
 * im2col() writes; the packed variants pack it straight into their B
 * panels, so the column matrix is never built.
 */
struct Im2colWindow {
    const float *input = nullptr; ///< channels x height x width.
    std::int64_t height = 0;
    std::int64_t width = 0;
    std::int64_t out_w = 0;
    Conv2dParams params;
};

/**
 * C[M x N] = A[M x K] * im2col(window) through gemm_packed (kPacked) or
 * gemm_packed_simd (kPackedSimd), with K = channels * kernel_h *
 * kernel_w and N = out_h * out_w. Bit for bit what im2col() followed
 * by the same kernel on the column matrix gives, with the same scratch
 * (only GemmScratch::b_pack). @p variant must use packing, and the
 * padded plane must have fewer than 2^31 elements.
 */
void gemm_packed_im2col(GemmVariant variant, std::int64_t m, std::int64_t n,
                        std::int64_t k, const float *a, std::int64_t lda,
                        const Im2colWindow &b, float *c, std::int64_t ldc,
                        const GemmScratch *scratch = nullptr);

/** Parses "naive" / "blocked" / "packed"; throws on anything else. */
GemmVariant parse_gemm_variant(const std::string &name);

/** Dispatches to the selected algorithm. */
void gemm(GemmVariant variant, std::int64_t m, std::int64_t n,
          std::int64_t k, const float *a, std::int64_t lda, const float *b,
          std::int64_t ldb, float *c, std::int64_t ldc,
          const GemmScratch *scratch = nullptr);

/**
 * General BLAS-like entry used by the Gemm (dense) operator:
 * C = alpha * op(A) * op(B) + beta * C, where op transposes when the
 * corresponding flag is set. Transposed operands are materialised into a
 * contiguous scratch copy, then the selected kernel runs. At batch 1 that
 * strided copy costs more than the multiply, so the Gemm layer
 * pre-transposes constant weights once at plan time and passes them
 * untransposed; only runtime operands are transposed here, per call.
 * @p scratch (optional) supplies the transpose/product staging buffers.
 */
void gemm_general(GemmVariant variant, bool trans_a, bool trans_b,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  float alpha, const float *a, std::int64_t lda,
                  const float *b, std::int64_t ldb, float beta, float *c,
                  std::int64_t ldc, const GemmScratch *scratch = nullptr);

} // namespace orpheus
