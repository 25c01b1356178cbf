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

#include "core/tensor.hpp"
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

/** Where the packed driver reads A: the row-major matrix (a, lda), or,
 *  when @p panels is set, that matrix already in the driver's panel
 *  order for row panels of @p mr rows (pack_gemm_a). */
struct PackedA {
    const float *a = nullptr;
    std::int64_t lda = 0;
    const float *panels = nullptr;
    int mr = 0;
};

/** Where the packed driver reads B: the row-major matrix (b, ldb), the
 *  im2col view @p window describes, or, when @p panels is set, the
 *  matrix already in the driver's panel order (pack_gemm_b), which the
 *  SIMD bodies load aligned: @p panels must be 64-byte aligned (Buffer
 *  storage is). */
struct PackedB {
    const float *b = nullptr;
    std::int64_t ldb = 0;
    const Im2colWindow *window = nullptr;
    const float *panels = nullptr;
};

/**
 * Rows per A panel (the micro-kernel's MR) of a packed GEMM of @p m rows
 * and @p n columns through @p variant, picked exactly as the dispatcher
 * picks its body: 12 (AVX-512) only when m > 6 and n >= 16, else 6
 * (AVX2); 4 for the NEON and scalar bodies.
 */
int gemm_packed_mr(GemmVariant variant, std::int64_t m, std::int64_t n);

/**
 * C[M x N] = A[M x K] * B[K x N] through gemm_packed (kPacked) or
 * gemm_packed_simd (kPackedSimd), with either operand read from any of
 * its sources. A prepacked A runs the body of its own MR. Every source
 * gives the micro-kernel the same floats in the same order, so the
 * result is bit for bit what the row-major operands give. An im2col B
 * is bit for bit im2col() followed by the same kernel, and its padded
 * plane must have fewer than 2^31 elements. @p variant must use packing.
 */
void gemm_packed_operands(GemmVariant variant, std::int64_t m,
                          std::int64_t n, std::int64_t k, const PackedA &a,
                          const PackedB &b, float *c, std::int64_t ldc,
                          const GemmScratch *scratch = nullptr);

/**
 * Packs row-major A (a, lda) [M x K] into the driver's A panel order for
 * MR @p mr. Panels of mr rows follow each other (the last holds the rows
 * left, and the driver pads it per call); panel i starts at i * mr * K,
 * with its K blocks in order, each depth-major with the panel's rows
 * interleaved. A panel thus occupies exactly its rows' storage in a
 * row-major [M x K] matrix, and @p out may be @p a itself (lda == k):
 * each panel is staged before it is rewritten.
 */
void pack_gemm_a(const float *a, std::int64_t lda, std::int64_t m,
                 std::int64_t k, int mr, float *out);

/** Inverse of pack_gemm_a into row-major A (lda = k). Exact. */
void unpack_gemm_a(const float *panels, std::int64_t m, std::int64_t k,
                   int mr, float *a);

/**
 * Packs op(B) [K x N] into the driver's B panel order: pack_gemm_a's
 * order with the columns of op(B) as lanes, in panels of 16 (the SIMD
 * bodies load full panels aligned, so 64-byte storage keeps them so).
 * op(B)[p][j] is b[j * ldb + p] when @p trans, and then @p out may be
 * @p b itself (ldb == k); else it is b[p * ldb + j] and @p out must not
 * overlap @p b.
 */
void pack_gemm_b(const float *b, std::int64_t ldb, bool trans,
                 std::int64_t k, std::int64_t n, float *out);

/** Inverse of pack_gemm_b into B (ld = k when @p trans, else n). */
void unpack_gemm_b(const float *panels, std::int64_t k, std::int64_t n,
                   bool trans, float *b);

/**
 * A row-major fp32 weight in @p layout, in fresh storage: a conv weight
 * [M, C/g, kh, kw] as kPanelA (layout.groups = g), or a Gemm weight
 * ([K, N], or [N, K] with layout.transposed) as kPanelB. Panels hold
 * exactly the weight's floats.
 */
Tensor pack_weight(const Tensor &weight, const TensorLayout &layout);

/**
 * pack_weight in @p weight's own storage, which the caller must hold
 * exclusively; false (and @p weight untouched) for a [K, N] Gemm weight,
 * whose panels do not follow its rows.
 */
bool pack_weight_in_place(Tensor &weight, const TensorLayout &layout);

/** The row-major form of a panel tensor, in fresh storage (exact:
 *  packing is a permutation); a row-major tensor is returned as is. */
Tensor unpack_weight(const Tensor &weight);

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
 * strided copy costs more than the multiply, so the engine lowers a
 * constant weight into B panels once at plan time (b.panels, with
 * @p trans_b ignored); only runtime operands are transposed here, per
 * call. @p scratch (optional) supplies the staging buffers.
 */
void gemm_general(GemmVariant variant, bool trans_a, bool trans_b,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  float alpha, const float *a, std::int64_t lda,
                  const PackedB &b, float beta, float *c, std::int64_t ldc,
                  const GemmScratch *scratch = nullptr);

} // namespace orpheus
