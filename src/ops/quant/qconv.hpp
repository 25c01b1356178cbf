/**
 * @file
 * Quantized 2-D convolution (the QLinearConv computation).
 *
 * Inputs: uint8 activations (affine), int8 weights (symmetric), int32
 * bias at scale x_scale * w_scale. Each group is one qgemm_w8a8 call
 * that reads the im2col view of the input group (QWindow) straight from
 * the input, with padding read as the activation zero point (which
 * dequantizes to exactly 0), so no column matrix is written. The int32
 * accumulators are then requantized to the uint8 output with a single
 * fused multiplier M = x_scale * w_scale / y_scale.
 */
#pragma once

#include "core/tensor.hpp"
#include "graph/op_params.hpp"
#include "ops/activation.hpp"
#include "ops/quant/quantize.hpp"

namespace orpheus {

/** Fully-resolved quantized conv arguments. */
struct QConv2dArgs {
    const Tensor *input = nullptr;  ///< uint8, NCHW.
    QuantParams input_params;
    const Tensor *weight = nullptr; ///< int8, OIHW, symmetric.
    QuantParams weight_params;      ///< zero_point must be 0.
    /**
     * Optional per-output-channel weight scales (length out_c). When
     * non-empty these override weight_params.scale per channel —
     * ONNX QLinearConv's per-channel quantization.
     */
    std::vector<float> weight_channel_scales;
    const Tensor *bias = nullptr;   ///< int32, optional; scale xs*ws.
    Tensor *output = nullptr;       ///< uint8, NCHW.
    QuantParams output_params;
    Conv2dParams params;
    /** Fused activation, applied in the quantized domain (relu/clip
     *  become clamps; other kinds are not supported here). */
    ActivationSpec activation;
    /**
     * Accumulate through qgemm_w8a8_simd (when the SIMD tier is
     * available) instead of the scalar qgemm_w8a8; results are bitwise
     * identical either way. Set by the SIMD registry impl, left false
     * by the reference impl.
     */
    bool simd = false;
};

/**
 * Caller-provided scratch for qconv2d. Null fields fall back to
 * self-managed buffers; prepared layers carve the per-invocation
 * buffers from the engine workspace and precompute the weight row sums
 * once at plan time.
 */
struct QConv2dScratch {
    /** int32 accumulator block; qconv2d_acc_count() entries. */
    std::int32_t *acc = nullptr;
    /** Precomputed per-output-channel weight row sums (length out_c);
     *  constant for constant weights, used for the zero-point
     *  correction. Null recomputes them per call. */
    const std::int32_t *weight_row_sums = nullptr;
    /** qgemm_w8a8's tile staging buffer; qconv2d_pack_bytes() bytes,
     *  64-byte aligned. Null falls back to a call-local allocation. */
    std::uint8_t *pack = nullptr;
};

/** int32 entries of the qconv2d accumulator block:
 *  (out_c/group) * out_h * out_w. */
std::size_t qconv2d_acc_count(std::int64_t out_c, const Conv2dParams &params,
                              std::int64_t out_h, std::int64_t out_w);

/** Per-output-channel sums of an int8 OIHW weight tensor; @p out must
 *  hold weight.shape().dim(0) entries. */
void qconv2d_weight_row_sums(const Tensor &weight, std::int32_t *out);

/** Bytes of qgemm_w8a8's staging buffer for this conv's reduction
 *  depth ((in_c/group) * kernel_area). */
std::size_t qconv2d_pack_bytes(std::int64_t in_c, const Conv2dParams &params);

/** Runs the quantized convolution. Throws on dtype/shape mismatches. */
void qconv2d(const QConv2dArgs &args,
             const QConv2dScratch *scratch = nullptr);

} // namespace orpheus
