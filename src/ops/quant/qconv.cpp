#include "ops/quant/qconv.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ops/quant/qgemm.hpp"

namespace orpheus {

std::size_t
qconv2d_acc_count(std::int64_t out_c, const Conv2dParams &params,
                  std::int64_t out_h, std::int64_t out_w)
{
    return static_cast<std::size_t>(out_c / params.group * out_h * out_w);
}

std::size_t
qconv2d_pack_bytes(std::int64_t in_c, const Conv2dParams &params)
{
    return qgemm_pack_bytes(in_c / params.group * params.kernel_h *
                            params.kernel_w);
}

void
qconv2d_weight_row_sums(const Tensor &weight, std::int32_t *out)
{
    const std::int64_t out_c = weight.shape().dim(0);
    const std::int64_t row =
        weight.shape().numel() / (out_c == 0 ? 1 : out_c);
    const std::int8_t *data = weight.data<std::int8_t>();
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
        std::int32_t sum = 0;
        const std::int8_t *w_row = data + oc * row;
        for (std::int64_t kk = 0; kk < row; ++kk)
            sum += w_row[kk];
        out[oc] = sum;
    }
}

void
qconv2d(const QConv2dArgs &args, const QConv2dScratch *scratch)
{
    ORPHEUS_CHECK(args.input != nullptr && args.weight != nullptr &&
                      args.output != nullptr,
                  "qconv2d: missing tensors");
    ORPHEUS_CHECK(args.input->dtype() == DataType::kUInt8,
                  "qconv2d input must be uint8");
    ORPHEUS_CHECK(args.weight->dtype() == DataType::kInt8,
                  "qconv2d weight must be int8");
    ORPHEUS_CHECK(args.output->dtype() == DataType::kUInt8,
                  "qconv2d output must be uint8");
    ORPHEUS_CHECK(args.weight_params.zero_point == 0,
                  "qconv2d requires symmetric weights (zero point 0)");
    ORPHEUS_CHECK(args.activation.is_identity() ||
                      args.activation.kind == ActivationKind::kRelu ||
                      args.activation.kind == ActivationKind::kClip,
                  "qconv2d supports only relu/clip fused activations");

    const Conv2dParams &p = args.params;
    const Shape &in_shape = args.input->shape();
    const std::int64_t batch = in_shape.dim(0);
    const std::int64_t in_c = in_shape.dim(1);
    const std::int64_t in_h = in_shape.dim(2);
    const std::int64_t in_w = in_shape.dim(3);
    const std::int64_t out_c = args.weight->shape().dim(0);
    const std::int64_t out_h = p.out_h(in_h);
    const std::int64_t out_w = p.out_w(in_w);
    const std::int64_t group_in_c = in_c / p.group;
    const std::int64_t group_out_c = out_c / p.group;
    const std::int64_t gemm_k = group_in_c * p.kernel_h * p.kernel_w;
    const std::int64_t gemm_n = out_h * out_w;

    ORPHEUS_CHECK(args.weight_channel_scales.empty() ||
                      static_cast<std::int64_t>(
                          args.weight_channel_scales.size()) == out_c,
                  "qconv2d: per-channel scales must have out_c entries");

    // Requantization: real = (xs*ws[oc]) * acc; y = round(real/ys) + yzp.
    const auto multiplier_for = [&](std::int64_t oc) {
        const float w_scale = args.weight_channel_scales.empty()
                                  ? args.weight_params.scale
                                  : args.weight_channel_scales[
                                        static_cast<std::size_t>(oc)];
        return args.input_params.scale * w_scale /
               args.output_params.scale;
    };
    const std::int32_t y_zp = args.output_params.zero_point;

    // Fused activation bounds in the quantized domain.
    std::int32_t clamp_lo = 0, clamp_hi = 255;
    if (args.activation.kind == ActivationKind::kRelu) {
        clamp_lo = std::max(clamp_lo, y_zp);
    } else if (args.activation.kind == ActivationKind::kClip) {
        clamp_lo = std::max(
            clamp_lo, args.output_params.quantize(args.activation.min));
        clamp_hi = std::min(
            clamp_hi, args.output_params.quantize(args.activation.max));
    }

    QWindow window;
    window.height = in_h;
    window.width = in_w;
    window.out_w = out_w;
    window.params = p;
    window.pad_value = static_cast<std::uint8_t>(std::clamp(
        args.input_params.zero_point, std::int32_t{0}, std::int32_t{255}));

    // Prepared layers supply the accumulator block and the staging
    // buffer from the engine workspace; standalone calls fall back to
    // call-local allocations.
    std::int32_t *acc = scratch != nullptr ? scratch->acc : nullptr;
    std::vector<std::int32_t> acc_fallback;
    if (acc == nullptr) {
        acc_fallback.resize(static_cast<std::size_t>(group_out_c * gemm_n));
        acc = acc_fallback.data();
    }
    std::uint8_t *pack = scratch != nullptr ? scratch->pack : nullptr;
    const std::int32_t *cached_w_sums =
        scratch != nullptr ? scratch->weight_row_sums : nullptr;

    const std::uint8_t *input = args.input->data<std::uint8_t>();
    const std::int8_t *weight = args.weight->data<std::int8_t>();
    const std::int32_t *bias =
        args.bias != nullptr ? args.bias->data<std::int32_t>() : nullptr;
    std::uint8_t *output = args.output->data<std::uint8_t>();

    // Both bodies are exact integer arithmetic, so outputs are bitwise
    // identical whichever runs.
    const auto accumulate = args.simd ? qgemm_w8a8_simd : qgemm_w8a8;

    for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t g = 0; g < p.group; ++g) {
            window.input = input + (n * in_c + g * group_in_c) * in_h * in_w;
            std::uint8_t *group_output =
                output + (n * out_c + g * group_out_c) * gemm_n;
            accumulate(group_out_c, gemm_n, gemm_k,
                       weight + g * group_out_c * gemm_k, gemm_k, window,
                       acc, gemm_n, pack);

            // acc[oc][pixel] = sum_k W[oc][k] * B[k][pixel] over the
            // window B; the input zero point comes off as one subtraction
            // per output via the row sum of W:
            // sum_k W * (B - x_zp) = acc - x_zp * sum_k W.
            for (std::int64_t oc = 0; oc < group_out_c; ++oc) {
                const std::int8_t *w_row =
                    weight + (g * group_out_c + oc) * gemm_k;
                std::int32_t w_sum;
                if (cached_w_sums != nullptr) {
                    w_sum = cached_w_sums[g * group_out_c + oc];
                } else {
                    w_sum = 0;
                    for (std::int64_t kk = 0; kk < gemm_k; ++kk)
                        w_sum += w_row[kk];
                }

                const std::int32_t *acc_row = acc + oc * gemm_n;
                const std::int32_t correction =
                    args.input_params.zero_point * w_sum;
                const std::int32_t b =
                    bias != nullptr ? bias[g * group_out_c + oc] : 0;
                const float multiplier =
                    multiplier_for(g * group_out_c + oc);

                std::uint8_t *out_row = group_output + oc * gemm_n;
                for (std::int64_t i = 0; i < gemm_n; ++i) {
                    const std::int32_t raw = acc_row[i] - correction + b;
                    const std::int32_t q =
                        static_cast<std::int32_t>(std::lround(
                            static_cast<float>(raw) * multiplier)) +
                        y_zp;
                    out_row[i] = static_cast<std::uint8_t>(
                        std::clamp(q, clamp_lo, clamp_hi));
                }
            }
        }
    }
}

} // namespace orpheus
