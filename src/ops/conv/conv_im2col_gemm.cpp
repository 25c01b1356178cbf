/**
 * @file
 * GEMM convolution: one matrix multiply per (image, group) over the
 * im2col view of the input.
 *
 * With M = out_c/group, K = (in_c/group)*kh*kw and N = out_h*out_w, the
 * multiply is large for the deep layers of ResNet/Inception-class
 * networks — exactly the regime where the paper reports Orpheus winning.
 * The packed GEMM variants read the im2col view straight into their B
 * panels (gemm_packed_operands), so no K x N column matrix is written,
 * and read a weight the engine lowered into A panels in place; the
 * naive and blocked variants, which the PyTorch-like and DarkNet-like
 * personalities run, still materialise it with im2col(). Pointwise (1x1,
 * stride 1, unpadded) convs need neither: the input is already the B
 * matrix.
 */
#include "ops/conv/conv.hpp"

#include <vector>

#include "ops/conv/im2col.hpp"

namespace orpheus {

namespace {

bool
is_pointwise_conv(const Conv2dParams &p)
{
    return p.kernel_h == 1 && p.kernel_w == 1 && p.stride_h == 1 &&
           p.stride_w == 1 && p.pad_top == 0 && p.pad_left == 0 &&
           p.pad_bottom == 0 && p.pad_right == 0;
}

} // namespace

std::size_t
conv2d_im2col_col_floats(const Conv2dArgs &args)
{
    const Conv2dParams &p = args.params;
    if (is_pointwise_conv(p) || gemm_variant_uses_packing(args.gemm_variant))
        return 0;
    return static_cast<std::size_t>(args.in_c / p.group * p.kernel_h *
                                    p.kernel_w * args.out_h * args.out_w);
}

void
conv2d_im2col_gemm(const Conv2dArgs &args, const Conv2dScratch *scratch)
{
    const Conv2dParams &p = args.params;
    const std::int64_t group_in_c = args.in_c / p.group;
    const std::int64_t group_out_c = args.out_c / p.group;
    const std::int64_t gemm_k = group_in_c * p.kernel_h * p.kernel_w;
    const std::int64_t gemm_n = args.out_h * args.out_w;
    const bool is_pointwise = is_pointwise_conv(p);
    const bool packed = gemm_variant_uses_packing(args.gemm_variant);
    ORPHEUS_CHECK(packed || args.weight_mr == 0,
                  "A panels need a packed GEMM variant, got "
                      << to_string(args.gemm_variant));

    // Only the unpacked variants lower into a column matrix, reused
    // across images and groups; prepared layers supply it from the
    // engine workspace, standalone calls fall back to a call-local
    // allocation.
    float *col = scratch != nullptr ? scratch->col : nullptr;
    std::vector<float> col_fallback;
    const std::size_t col_floats = conv2d_im2col_col_floats(args);
    if (col == nullptr && col_floats > 0) {
        col_fallback.resize(col_floats);
        col = col_fallback.data();
    }
    const GemmScratch *gemm_scratch =
        scratch != nullptr ? &scratch->gemm : nullptr;

    for (std::int64_t n = 0; n < args.batch; ++n) {
        for (std::int64_t g = 0; g < p.group; ++g) {
            const float *group_input =
                args.input +
                (n * args.in_c + g * group_in_c) * args.in_h * args.in_w;
            // A panels keep each group's M x K floats where the
            // row-major weight has them.
            const float *group_weight = args.weight + g * group_out_c * gemm_k;
            float *group_output =
                args.output +
                (n * args.out_c + g * group_out_c) * args.out_h * args.out_w;

            if (packed) {
                const PackedA a =
                    args.weight_mr > 0
                        ? PackedA{nullptr, 0, group_weight, args.weight_mr}
                        : PackedA{group_weight, gemm_k};
                const Im2colWindow window{group_input, args.in_h, args.in_w,
                                          args.out_w, p};
                const PackedB b = is_pointwise
                                      ? PackedB{group_input, gemm_n}
                                      : PackedB{nullptr, 0, &window};
                gemm_packed_operands(args.gemm_variant, group_out_c, gemm_n,
                                     gemm_k, a, b, group_output, gemm_n,
                                     gemm_scratch);
            } else {
                // 1x1 stride-1 convolutions skip the lowering entirely:
                // the input already *is* the column matrix.
                const float *b_matrix = group_input;
                if (!is_pointwise) {
                    im2col(group_input, group_in_c, args.in_h, args.in_w, p,
                           args.out_h, args.out_w, col);
                    b_matrix = col;
                }
                gemm(args.gemm_variant, group_out_c, gemm_n, gemm_k,
                     group_weight, gemm_k, b_matrix, gemm_n, group_output,
                     gemm_n, gemm_scratch);
            }

            // Bias + fused activation in one pass over the hot output.
            for (std::int64_t oc = 0; oc < group_out_c; ++oc) {
                float *row = group_output + oc * gemm_n;
                const float bias =
                    args.bias != nullptr ? args.bias[g * group_out_c + oc]
                                         : 0.0f;
                if (bias != 0.0f || !args.activation.is_identity())
                    args.activation.apply_bias(row, bias, row, gemm_n);
            }
        }
    }
}

} // namespace orpheus
