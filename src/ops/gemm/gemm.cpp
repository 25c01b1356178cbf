#include "ops/gemm/gemm.hpp"

#include <vector>

#include "core/status.hpp"

namespace orpheus {

const char *
to_string(GemmVariant variant)
{
    switch (variant) {
      case GemmVariant::kNaive: return "naive";
      case GemmVariant::kBlocked: return "blocked";
      case GemmVariant::kPacked: return "packed";
      case GemmVariant::kPackedSimd: return "packed_simd";
    }
    return "invalid";
}

GemmVariant
parse_gemm_variant(const std::string &name)
{
    if (name == "naive") return GemmVariant::kNaive;
    if (name == "blocked") return GemmVariant::kBlocked;
    if (name == "packed") return GemmVariant::kPacked;
    if (name == "packed_simd") return GemmVariant::kPackedSimd;
    throw Error("unknown GEMM variant: " + name);
}

void
gemm(GemmVariant variant, std::int64_t m, std::int64_t n, std::int64_t k,
     const float *a, std::int64_t lda, const float *b, std::int64_t ldb,
     float *c, std::int64_t ldc, const GemmScratch *scratch)
{
    switch (variant) {
      case GemmVariant::kNaive:
        gemm_naive(m, n, k, a, lda, b, ldb, c, ldc);
        return;
      case GemmVariant::kBlocked:
        gemm_blocked(m, n, k, a, lda, b, ldb, c, ldc);
        return;
      case GemmVariant::kPacked:
        gemm_packed(m, n, k, a, lda, b, ldb, c, ldc, scratch);
        return;
      case GemmVariant::kPackedSimd:
        gemm_packed_simd(m, n, k, a, lda, b, ldb, c, ldc, scratch);
        return;
    }
    ORPHEUS_ASSERT(false, "invalid GemmVariant");
}

void
gemm_general(GemmVariant variant, bool trans_a, bool trans_b, std::int64_t m,
             std::int64_t n, std::int64_t k, float alpha, const float *a,
             std::int64_t lda, const PackedB &b_operand, float beta, float *c,
             std::int64_t ldc, const GemmScratch *scratch)
{
    // Materialise transposed operands so every core kernel only has to
    // handle the plain row-major case. Prepared layers pass staging
    // buffers in @p scratch; the vectors are the unprepared fallback.
    std::vector<float> a_fallback, b_fallback;
    if (trans_a) {
        float *a_trans = scratch != nullptr ? scratch->a_trans : nullptr;
        if (a_trans == nullptr) {
            a_fallback.resize(static_cast<std::size_t>(m * k));
            a_trans = a_fallback.data();
        }
        for (std::int64_t p = 0; p < k; ++p) {
            for (std::int64_t i = 0; i < m; ++i)
                a_trans[i * k + p] = a[p * lda + i];
        }
        a = a_trans;
        lda = k;
    }
    PackedB b = b_operand;
    if (trans_b && b.panels == nullptr) {
        float *b_trans = scratch != nullptr ? scratch->b_trans : nullptr;
        if (b_trans == nullptr) {
            b_fallback.resize(static_cast<std::size_t>(k * n));
            b_trans = b_fallback.data();
        }
        for (std::int64_t j = 0; j < n; ++j) {
            for (std::int64_t p = 0; p < k; ++p)
                b_trans[p * n + j] = b.b[j * b.ldb + p];
        }
        b = PackedB{b_trans, n};
    }

    float *product = c;
    std::int64_t ldp = ldc;
    std::vector<float> product_fallback;
    if (alpha != 1.0f || beta != 0.0f) {
        product = scratch != nullptr ? scratch->product : nullptr;
        if (product == nullptr) {
            product_fallback.resize(static_cast<std::size_t>(m * n));
            product = product_fallback.data();
        }
        ldp = n;
    }
    if (b.panels != nullptr)
        gemm_packed_operands(variant, m, n, k, PackedA{a, lda}, b, product,
                             ldp, scratch);
    else
        gemm(variant, m, n, k, a, lda, b.b, b.ldb, product, ldp, scratch);
    if (product == c)
        return;
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            const float previous = beta == 0.0f ? 0.0f : c[i * ldc + j];
            c[i * ldc + j] = alpha * product[i * n + j] + beta * previous;
        }
    }
}

} // namespace orpheus
