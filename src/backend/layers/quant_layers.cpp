/**
 * @file
 * Layers for the quantized operator set (QuantizeLinear,
 * DequantizeLinear, QLinearConv). Scales and zero points must be
 * constant initialisers — they are baked into the layer at plan time,
 * exactly like conv hyper-parameters.
 */
#include "backend/kernel_registry.hpp"

#include "core/cpu_features.hpp"
#include "graph/op_params.hpp"
#include "ops/quant/qconv.hpp"
#include "ops/quant/qgemm.hpp"
#include "ops/quant/quantize.hpp"

namespace orpheus {

namespace {

/** Reads a scalar fp32 scale constant. */
float
read_scale(const LayerInit &init, std::size_t index)
{
    const Tensor *scale = init.constant(index);
    ORPHEUS_CHECK(scale != nullptr,
                  "node " << init.node->name() << ": scale input #" << index
                          << " must be a constant initializer");
    ORPHEUS_CHECK(scale->numel() == 1 &&
                      scale->dtype() == DataType::kFloat32,
                  "node " << init.node->name()
                          << ": scale must be a fp32 scalar (per-tensor "
                             "quantization)");
    return *scale->data<float>();
}

/** Reads a scale constant that may be scalar (per-tensor) or 1-D
 *  (per-output-channel); returns the per-channel vector, empty when the
 *  scale is per-tensor. */
std::vector<float>
read_channel_scales(const LayerInit &init, std::size_t index)
{
    const Tensor *scale = init.constant(index);
    ORPHEUS_CHECK(scale != nullptr,
                  "node " << init.node->name() << ": scale input #" << index
                          << " must be a constant initializer");
    ORPHEUS_CHECK(scale->dtype() == DataType::kFloat32,
                  "scales must be fp32");
    if (scale->numel() == 1)
        return {};
    const float *data = scale->data<float>();
    return std::vector<float>(data, data + scale->numel());
}

/** Reads a scalar uint8/int8 zero-point constant (0 when omitted). */
std::int32_t
read_zero_point(const LayerInit &init, std::size_t index)
{
    if (!init.node->has_input(index))
        return 0;
    const Tensor *zp = init.constant(index);
    ORPHEUS_CHECK(zp != nullptr,
                  "node " << init.node->name() << ": zero point input #"
                          << index << " must be a constant initializer");
    ORPHEUS_CHECK(zp->numel() == 1, "zero point must be a scalar");
    if (zp->dtype() == DataType::kUInt8)
        return *zp->data<std::uint8_t>();
    if (zp->dtype() == DataType::kInt8)
        return *zp->data<std::int8_t>();
    throw Error("zero point must be uint8 or int8");
}

QuantParams
read_params(const LayerInit &init, std::size_t scale_index,
            std::size_t zp_index)
{
    return QuantParams{read_scale(init, scale_index),
                       read_zero_point(init, zp_index)};
}

class QuantizeLinearLayer : public Layer
{
  public:
    explicit QuantizeLinearLayer(const LayerInit &init)
        : params_(read_params(init, 1, 2))
    {
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        quantize_to_uint8(*inputs[0], params_, *outputs[0]);
    }

  private:
    QuantParams params_;
};

class DequantizeLinearLayer : public Layer
{
  public:
    explicit DequantizeLinearLayer(const LayerInit &init)
        : params_(read_params(init, 1, 2))
    {
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        dequantize_to_float(*inputs[0], params_, *outputs[0]);
    }

  private:
    QuantParams params_;
};

class QLinearConvLayer : public Layer
{
  public:
    explicit QLinearConvLayer(const LayerInit &init, bool simd = false)
        : has_bias_(init.node->has_input(8)),
          const_weight_(init.constant(3)),
          derived_key_(init.node->outputs().front()),
          in_c_(init.input(0).shape.dim(1)),
          out_c_(init.output(0).shape.dim(1)),
          out_h_(init.output(0).shape.dim(2)),
          out_w_(init.output(0).shape.dim(3))
    {
        // The argument bundle (including the per-channel scale vector)
        // is assembled once here; forward() only patches the tensor
        // pointers, so the steady-state path never copies the scales.
        args_.params = Conv2dParams::from_attrs(init.node->attrs(),
                                                init.input(3).shape);
        args_.input_params = read_params(init, 1, 2);
        args_.weight_params = QuantParams{1.0f, read_zero_point(init, 5)};
        args_.weight_channel_scales = read_channel_scales(init, 4);
        args_.output_params = read_params(init, 6, 7);
        args_.activation =
            ActivationSpec::from_fused_attrs(init.node->attrs());
        args_.simd = simd;
        ORPHEUS_CHECK(args_.weight_params.zero_point == 0,
                      "QLinearConv " << init.node->name()
                                     << ": only symmetric int8 weights are "
                                        "supported");
        if (args_.weight_channel_scales.empty())
            args_.weight_params.scale = read_scale(init, 4);
        else
            ORPHEUS_CHECK(static_cast<std::int64_t>(
                              args_.weight_channel_scales.size()) ==
                              init.input(3).shape.dim(0),
                          "QLinearConv " << init.node->name()
                                         << ": per-channel scale count "
                                            "must equal output channels");
    }

    void
    prepare(PlanContext &ctx) override
    {
        acc_offset_ = ctx.reserve(
            qconv2d_acc_count(out_c_, args_.params, out_h_, out_w_) *
            sizeof(std::int32_t));
        pack_offset_ =
            ctx.reserve(qconv2d_pack_bytes(in_c_, args_.params));
        if (const_weight_ != nullptr) {
            weight_row_sums_ =
                ctx.derived(derived_key_ + "/im2col_qgemm/row_sums",
                            *const_weight_, Shape({out_c_}),
                            DataType::kInt32, [&] {
                    Tensor sums(Shape({out_c_}), DataType::kInt32);
                    qconv2d_weight_row_sums(*const_weight_,
                                            sums.data<std::int32_t>());
                    return sums;
                });
        }
        prepared_ = true;
        rebind();
    }

    void
    bind_workspace(const Workspace &workspace) override
    {
        workspace_ = workspace;
        rebind();
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        args_.input = inputs[0];
        args_.weight = inputs[3];
        args_.bias = has_bias_ ? inputs[8] : nullptr;
        args_.output = outputs[0];
        qconv2d(args_, prepared_ ? &scratch_ : nullptr);
    }

  private:
    void
    rebind()
    {
        scratch_.acc = workspace_.at<std::int32_t>(acc_offset_);
        scratch_.pack = workspace_.at<std::uint8_t>(pack_offset_);
        if (weight_row_sums_.has_storage())
            scratch_.weight_row_sums = weight_row_sums_.data<std::int32_t>();
    }

    QConv2dArgs args_;
    bool has_bias_;
    const Tensor *const_weight_;
    /** Prefix of this layer's derived-constant keys: its output value,
     *  which a valid graph produces once (node names may repeat). */
    std::string derived_key_;
    std::int64_t in_c_;
    std::int64_t out_c_;
    std::int64_t out_h_;
    std::int64_t out_w_;
    Tensor weight_row_sums_;
    Workspace workspace_;
    QConv2dScratch scratch_;
    std::size_t acc_offset_ = 0;
    std::size_t pack_offset_ = 0;
    bool prepared_ = false;
};

} // namespace

void
register_quant_kernels(KernelRegistry &registry)
{
    registry.add({op_names::kQuantizeLinear, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<QuantizeLinearLayer>(init);
                  }});
    registry.add({op_names::kDequantizeLinear, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<DequantizeLinearLayer>(init);
                  }});
    registry.add({op_names::kQLinearConv, "im2col_qgemm", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<QLinearConvLayer>(init);
                  }});

    // SIMD qconv: the same lowering with the accumulation routed through
    // the vector qgemm body (bitwise-equal int32 accumulators).
    const std::string isa = simd_isa_compiled();
    if (!isa.empty()) {
        registry.add({op_names::kQLinearConv, "im2col_qgemm_" + isa, 30,
                      [](const LayerInit &init) {
                          return init.config->allow_simd &&
                                 qgemm_simd_available();
                      },
                      [](const LayerInit &init) {
                          return std::make_unique<QLinearConvLayer>(init,
                                                                    true);
                      }});
    }
}

} // namespace orpheus
