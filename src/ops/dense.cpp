#include "ops/dense.hpp"

namespace orpheus {

void
dense(const Tensor &a, const Tensor &b, const Tensor *c, bool trans_a,
      bool trans_b, float alpha, float beta, Tensor &output,
      GemmVariant variant, const GemmScratch *scratch)
{
    ORPHEUS_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
                  "dense operands must be rank 2, got " << a.shape() << " x "
                                                        << b.shape());
    const std::int64_t m = trans_a ? a.shape().dim(1) : a.shape().dim(0);
    const std::int64_t k = trans_a ? a.shape().dim(0) : a.shape().dim(1);
    const std::int64_t kb = trans_b ? b.shape().dim(1) : b.shape().dim(0);
    const std::int64_t n = trans_b ? b.shape().dim(0) : b.shape().dim(1);
    ORPHEUS_CHECK(k == kb, "dense inner dimensions disagree: " << k << " vs "
                                                               << kb);
    // Dimension-wise comparison: a Shape temporary would heap-allocate
    // on every call of the steady-state path.
    ORPHEUS_CHECK(output.shape().rank() == 2 &&
                      output.shape().dim(0) == m &&
                      output.shape().dim(1) == n,
                  "dense output must be [" << m << ", " << n << "], got "
                                           << output.shape());

    float *out = output.data<float>();

    // A weight the engine lowered into B panels is read in place by the
    // packed variants; any other variant unpacks it for itself.
    const bool panels = b.layout().kind == TensorLayout::Kind::kPanelB;
    ORPHEUS_CHECK(!panels || b.layout().transposed == trans_b,
                  "dense B panels disagree with transB");
    Tensor unpacked;
    const Tensor *b_rows = &b;
    if (panels && !gemm_variant_uses_packing(variant)) {
        unpacked = unpack_weight(b);
        b_rows = &unpacked;
    }
    const PackedB b_operand =
        b_rows->layout().packed()
            ? PackedB{nullptr, 0, nullptr, b_rows->data<float>()}
            : PackedB{b_rows->data<float>(), b_rows->shape().dim(1)};
    gemm_general(variant, trans_a, trans_b, m, n, k, alpha,
                 a.data<float>(), a.shape().dim(1), b_operand, 0.0f, out, n,
                 scratch);

    if (c == nullptr || beta == 0.0f)
        return;

    // Unidirectional broadcast of C onto [M, N].
    const Shape &cs = c->shape();
    const float *cp = c->data<float>();
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            std::int64_t offset = 0;
            if (cs.rank() == 2) {
                offset = (cs.dim(0) == 1 ? 0 : i) * cs.dim(1) +
                         (cs.dim(1) == 1 ? 0 : j);
            } else if (cs.rank() == 1) {
                offset = cs.dim(0) == 1 ? 0 : j;
            } else {
                ORPHEUS_CHECK(cs.rank() == 0,
                              "dense bias must have rank <= 2, got " << cs);
            }
            out[i * n + j] += beta * cp[offset];
        }
    }
}

} // namespace orpheus
