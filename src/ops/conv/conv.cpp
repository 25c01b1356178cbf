#include "ops/conv/conv.hpp"

namespace orpheus {

const char *
to_string(ConvAlgo algo)
{
    switch (algo) {
      case ConvAlgo::kDirect: return "direct";
      case ConvAlgo::kIm2colGemm: return "im2col_gemm";
      case ConvAlgo::kSpatialPack: return "spatial_pack";
      case ConvAlgo::kWinograd: return "winograd";
      case ConvAlgo::kDepthwiseDirect: return "depthwise_direct";
      case ConvAlgo::kDepthwiseSimd: return "depthwise_simd";
    }
    return "invalid";
}

ConvAlgo
parse_conv_algo(const std::string &name)
{
    if (name == "direct") return ConvAlgo::kDirect;
    if (name == "im2col_gemm") return ConvAlgo::kIm2colGemm;
    if (name == "spatial_pack") return ConvAlgo::kSpatialPack;
    if (name == "winograd") return ConvAlgo::kWinograd;
    if (name == "depthwise_direct") return ConvAlgo::kDepthwiseDirect;
    if (name == "depthwise_simd") return ConvAlgo::kDepthwiseSimd;
    throw Error("unknown conv algorithm: " + name);
}

void
conv2d(ConvAlgo algo, const Tensor &input, const Tensor &weight,
       const Tensor *bias, const Conv2dParams &params,
       const ActivationSpec &activation, Tensor &output,
       GemmVariant gemm_variant, const Conv2dScratch *scratch)
{
    ORPHEUS_CHECK(input.shape().rank() == 4,
                  "conv2d input must be NCHW, got " << input.shape());
    ORPHEUS_CHECK(weight.shape().rank() == 4,
                  "conv2d weight must be OIHW, got " << weight.shape());

    // The im2col GEMM reads A panels in place only when they are the
    // panels this variant would pack per call: same groups, same MR.
    const TensorLayout &layout = weight.layout();
    const bool reads_panels =
        layout.kind == TensorLayout::Kind::kPanelA &&
        algo == ConvAlgo::kIm2colGemm &&
        gemm_variant_uses_packing(gemm_variant) &&
        layout.groups == params.group &&
        layout.mr == gemm_packed_mr(gemm_variant,
                                    weight.shape().dim(0) / params.group,
                                    params.out_h(input.shape().dim(2)) *
                                        params.out_w(input.shape().dim(3)));
    const Tensor unpacked =
        layout.packed() && !reads_panels ? unpack_weight(weight) : Tensor();

    Conv2dArgs args;
    args.input = input.data<float>();
    args.batch = input.shape().dim(0);
    args.in_c = input.shape().dim(1);
    args.in_h = input.shape().dim(2);
    args.in_w = input.shape().dim(3);
    args.weight = unpacked.has_storage() ? unpacked.data<float>()
                                         : weight.data<float>();
    args.weight_mr = reads_panels ? layout.mr : 0;
    args.out_c = weight.shape().dim(0);
    args.bias = bias != nullptr ? bias->data<float>() : nullptr;
    args.output = output.data<float>();
    args.out_h = params.out_h(args.in_h);
    args.out_w = params.out_w(args.in_w);
    args.params = params;
    args.activation = activation;
    args.gemm_variant = gemm_variant;

    ORPHEUS_CHECK(args.in_c % params.group == 0 &&
                      args.out_c % params.group == 0,
                  "conv2d channels (" << args.in_c << " -> " << args.out_c
                                      << ") not divisible by group "
                                      << params.group);
    ORPHEUS_CHECK(weight.shape().dim(1) == args.in_c / params.group,
                  "conv2d weight " << weight.shape()
                                   << " inconsistent with input "
                                   << input.shape() << " and group "
                                   << params.group);
    // Dimension-wise comparison: building a Shape temporary here would
    // heap-allocate on every call of the steady-state path.
    ORPHEUS_CHECK(output.shape().rank() == 4 &&
                      output.shape().dim(0) == args.batch &&
                      output.shape().dim(1) == args.out_c &&
                      output.shape().dim(2) == args.out_h &&
                      output.shape().dim(3) == args.out_w,
                  "conv2d output must be [" << args.batch << ", "
                                            << args.out_c << ", "
                                            << args.out_h << ", "
                                            << args.out_w << "], got "
                                            << output.shape());

    switch (algo) {
      case ConvAlgo::kDirect:
        conv2d_direct(args);
        return;
      case ConvAlgo::kIm2colGemm:
        conv2d_im2col_gemm(args, scratch);
        return;
      case ConvAlgo::kSpatialPack:
        conv2d_spatial_pack(args, scratch);
        return;
      case ConvAlgo::kWinograd:
        conv2d_winograd(args, scratch);
        return;
      case ConvAlgo::kDepthwiseDirect:
        conv2d_depthwise_direct(args);
        return;
      case ConvAlgo::kDepthwiseSimd:
        conv2d_depthwise_simd(args);
        return;
    }
    ORPHEUS_ASSERT(false, "invalid ConvAlgo");
}

} // namespace orpheus
