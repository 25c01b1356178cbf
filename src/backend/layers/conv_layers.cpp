/**
 * @file
 * Conv kernels wrapped as registry Layers.
 *
 * Five implementations of the Conv op register here; the selection
 * machinery (heuristic priorities, forced impls, or the auto-tuner)
 * picks among them per node. This file is the concrete form of the
 * paper's "multiple implementations selected at runtime".
 *
 * Each implementation participates in the prepare stage (layer.hpp):
 * the GEMM implementations have the engine lower a constant weight into
 * A panels in place of the original, the others derive their constants
 * (spatial-pack weight order, Winograd U) once at plan time, and
 * per-invocation scratch (im2col columns, padded inputs, GEMM panels,
 * Winograd staging) is reserved in the engine workspace so steady-state
 * forward() never heap-allocates.
 */
#include "backend/kernel_registry.hpp"

#include "core/cpu_features.hpp"
#include "graph/op_params.hpp"
#include "ops/conv/conv.hpp"

namespace orpheus {

namespace {

/** Shared plan-time decoding for every conv implementation. */
class ConvLayerBase : public Layer
{
  public:
    explicit ConvLayerBase(const LayerInit &init)
        : params_(Conv2dParams::from_attrs(init.node->attrs(),
                                           init.input(1).shape)),
          activation_(ActivationSpec::from_fused_attrs(init.node->attrs())),
          gemm_variant_(init.config->gemm_variant),
          has_bias_(init.node->has_input(2)),
          const_weight_(init.constant(1)),
          derived_key_(init.node->outputs().front())
    {
        // Shape-only argument bundle (pointers stay null): gives the
        // prepare stage the exact scratch geometry forward() will use.
        const Shape &in = init.input(0).shape;
        const Shape &out = init.output(0).shape;
        shape_args_.batch = in.dim(0);
        shape_args_.in_c = in.dim(1);
        shape_args_.in_h = in.dim(2);
        shape_args_.in_w = in.dim(3);
        shape_args_.out_c = out.dim(1);
        shape_args_.out_h = out.dim(2);
        shape_args_.out_w = out.dim(3);
        shape_args_.params = params_;
        shape_args_.activation = activation_;
        shape_args_.gemm_variant = gemm_variant_;
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
        const Tensor *bias = has_bias_ ? inputs[2] : nullptr;
        conv2d(algo(), *inputs[0], *inputs[1], bias, params_, activation_,
               *outputs[0], gemm_variant_, active_scratch());
    }

  protected:
    virtual ConvAlgo algo() const = 0;

    /** Overrides the engine-level GEMM variant for this layer (the SIMD
     *  impls force kPackedSimd; call before prepare()). */
    void
    force_gemm_variant(GemmVariant variant)
    {
        gemm_variant_ = variant;
        shape_args_.gemm_variant = variant;
    }

    /** Re-resolves scratch_ pointers against workspace_. */
    virtual void rebind() {}

    const Conv2dScratch *
    active_scratch() const
    {
        return prepared_ ? &scratch_ : nullptr;
    }

    Conv2dParams params_;
    ActivationSpec activation_;
    GemmVariant gemm_variant_;
    bool has_bias_;
    const Tensor *const_weight_;
    /** Prefix of this layer's derived-constant keys: its output value,
     *  which a valid graph produces once (node names may repeat). */
    std::string derived_key_;
    Conv2dArgs shape_args_;
    Workspace workspace_;
    Conv2dScratch scratch_;
    bool prepared_ = false;
};

class ConvDirectLayer : public ConvLayerBase
{
    using ConvLayerBase::ConvLayerBase;
    ConvAlgo algo() const override { return ConvAlgo::kDirect; }
};

class ConvIm2colGemmLayer : public ConvLayerBase
{
  public:
    using ConvLayerBase::ConvLayerBase;

    /** A constant weight is read as A panels for the MR the packed
     *  variant dispatches to on this layer's shape. */
    TensorLayout
    constant_layout(std::size_t input) const override
    {
        if (input != 1 || const_weight_ == nullptr ||
            !gemm_variant_uses_packing(gemm_variant_))
            return {};
        TensorLayout layout;
        layout.kind = TensorLayout::Kind::kPanelA;
        layout.mr = gemm_packed_mr(gemm_variant_,
                                   shape_args_.out_c / params_.group,
                                   shape_args_.out_h * shape_args_.out_w);
        layout.groups = static_cast<std::int32_t>(params_.group);
        return layout;
    }

    void
    prepare(PlanContext &ctx) override
    {
        col_floats_ = conv2d_im2col_col_floats(shape_args_);
        if (col_floats_ > 0)
            col_offset_ = ctx.reserve(col_floats_ * sizeof(float));
        if (gemm_variant_uses_packing(gemm_variant_))
            b_pack_offset_ =
                ctx.reserve(gemm_packed_b_pack_floats() * sizeof(float));
        prepared_ = true;
        rebind();
    }

  protected:
    ConvAlgo algo() const override { return ConvAlgo::kIm2colGemm; }

    void
    rebind() override
    {
        if (col_floats_ > 0)
            scratch_.col = workspace_.at<float>(col_offset_);
        if (gemm_variant_uses_packing(gemm_variant_))
            scratch_.gemm.b_pack = workspace_.at<float>(b_pack_offset_);
    }

  private:

    std::size_t col_floats_ = 0;
    std::size_t col_offset_ = 0;
    std::size_t b_pack_offset_ = 0;
};

/**
 * Spatial-pack conv: with constant weights (the usual case) the weights
 * in spatial-pack order are derived once at plan time and the kernel's
 * packing stage disappears from every inference; runtime weights fall
 * back to per-call packing into workspace.
 */
class ConvSpatialPackLayer : public ConvLayerBase
{
  public:
    using ConvLayerBase::ConvLayerBase;

    void
    prepare(PlanContext &ctx) override
    {
        const std::size_t pack_floats =
            conv2d_spatial_pack_weights_floats(shape_args_);
        if (const_weight_ != nullptr) {
            // Constant weights: the pack is a derived constant, shared
            // by every replica compiled from the lowered graph.
            const Shape pack_shape({static_cast<std::int64_t>(pack_floats)});
            packed_weights_ = ctx.derived(
                derived_key_ + "/spatial_pack/weights", *const_weight_,
                pack_shape, DataType::kFloat32, [&] {
                    Tensor pack(pack_shape);
                    const Tensor weight = unpack_weight(*const_weight_);
                    Conv2dArgs args = shape_args_;
                    args.weight = weight.data<float>();
                    conv2d_spatial_pack_pack_weights(args,
                                                     pack.data<float>());
                    return pack;
                });
        } else {
            weight_pack_offset_ =
                ctx.reserve(pack_floats * sizeof(float));
        }
        padded_offset_ = ctx.reserve(
            conv2d_spatial_pack_padded_floats(shape_args_) * sizeof(float));
        prepared_ = true;
        rebind();
    }

  private:
    ConvAlgo algo() const override { return ConvAlgo::kSpatialPack; }

    void
    rebind() override
    {
        if (packed_weights_.has_storage())
            scratch_.packed_weights = packed_weights_.data<float>();
        else
            scratch_.weight_pack = workspace_.at<float>(weight_pack_offset_);
        scratch_.padded_input = workspace_.at<float>(padded_offset_);
    }

    Tensor packed_weights_;
    std::size_t weight_pack_offset_ = 0;
    std::size_t padded_offset_ = 0;
};

/**
 * Winograd conv with plan-time weight pre-transformation: when the
 * weights are constant (the usual case), U = G g G^T is computed once
 * in prepare() instead of on every inference — the canonical example of
 * work the prepare stage moves out of forward().
 */
class ConvWinogradLayer : public ConvLayerBase
{
  public:
    using ConvLayerBase::ConvLayerBase;

    void
    prepare(PlanContext &ctx) override
    {
        if (const_weight_ != nullptr) {
            const std::int64_t out_c = const_weight_->shape().dim(0);
            const std::int64_t in_c = const_weight_->shape().dim(1);
            const Shape u_shape({16 * out_c * in_c});
            cached_u_ = ctx.derived(
                derived_key_ + "/winograd/u", *const_weight_, u_shape,
                DataType::kFloat32, [&] {
                    return Tensor::from_values(
                        u_shape, winograd_transform_weights(
                                     unpack_weight(*const_weight_)
                                         .data<float>(),
                                     out_c, in_c));
                });
        }
        v_offset_ = ctx.reserve(conv2d_winograd_v_floats(shape_args_) *
                                sizeof(float));
        m_offset_ = ctx.reserve(conv2d_winograd_m_floats(shape_args_) *
                                sizeof(float));
        if (gemm_variant_uses_packing(gemm_variant_))
            b_pack_offset_ =
                ctx.reserve(gemm_packed_b_pack_floats() * sizeof(float));
        prepared_ = true;
        rebind();
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        if (!cached_u_.has_storage()) {
            // Runtime weights (or an unprepared layer): the per-call
            // transform path through the conv2d dispatcher.
            ConvLayerBase::forward(inputs, outputs);
            return;
        }
        const Tensor &x = *inputs[0];
        const Tensor &w = *inputs[1];
        Conv2dArgs args;
        args.input = x.data<float>();
        args.batch = x.shape().dim(0);
        args.in_c = x.shape().dim(1);
        args.in_h = x.shape().dim(2);
        args.in_w = x.shape().dim(3);
        args.weight = w.data<float>();
        args.out_c = w.shape().dim(0);
        args.bias = has_bias_ ? inputs[2]->data<float>() : nullptr;
        args.output = outputs[0]->data<float>();
        args.out_h = outputs[0]->shape().dim(2);
        args.out_w = outputs[0]->shape().dim(3);
        args.params = params_;
        args.activation = activation_;
        args.gemm_variant = gemm_variant_;
        conv2d_winograd_pretransformed(args, cached_u_.data<float>(),
                                       active_scratch());
    }

  private:
    ConvAlgo algo() const override { return ConvAlgo::kWinograd; }

    void
    rebind() override
    {
        scratch_.v = workspace_.at<float>(v_offset_);
        scratch_.m = workspace_.at<float>(m_offset_);
        if (gemm_variant_uses_packing(gemm_variant_))
            scratch_.gemm.b_pack = workspace_.at<float>(b_pack_offset_);
    }

    Tensor cached_u_;
    std::size_t v_offset_ = 0;
    std::size_t m_offset_ = 0;
    std::size_t b_pack_offset_ = 0;
};

class ConvDepthwiseLayer : public ConvLayerBase
{
    using ConvLayerBase::ConvLayerBase;
    ConvAlgo algo() const override { return ConvAlgo::kDepthwiseDirect; }
};

/**
 * im2col+GEMM routed through the SIMD packed-GEMM tier: identical
 * lowering and workspace layout to ConvIm2colGemmLayer (the shared
 * B-panel format makes gemm_packed_b_pack_floats() variant-agnostic);
 * only the micro-kernel differs.
 */
class ConvIm2colGemmSimdLayer : public ConvIm2colGemmLayer
{
  public:
    explicit ConvIm2colGemmSimdLayer(const LayerInit &init)
        : ConvIm2colGemmLayer(init)
    {
        force_gemm_variant(GemmVariant::kPackedSimd);
    }
};

class ConvDepthwiseSimdLayer : public ConvLayerBase
{
    using ConvLayerBase::ConvLayerBase;
    ConvAlgo algo() const override { return ConvAlgo::kDepthwiseSimd; }
};

bool
is_depthwise_node(const LayerInit &init)
{
    const Conv2dParams p =
        Conv2dParams::from_attrs(init.node->attrs(), init.input(1).shape);
    const auto in_c = init.input(0).shape.dim(1);
    const auto out_c = init.output(0).shape.dim(1);
    return p.group == in_c && in_c > 1 && out_c % in_c == 0;
}

bool
is_winograd_node(const LayerInit &init)
{
    const Conv2dParams p =
        Conv2dParams::from_attrs(init.node->attrs(), init.input(1).shape);
    return p.kernel_h == 3 && p.kernel_w == 3 && p.stride_h == 1 &&
           p.stride_w == 1 && p.dilation_h == 1 && p.dilation_w == 1 &&
           p.group == 1;
}

template <typename LayerT>
std::unique_ptr<Layer>
make(const LayerInit &init)
{
    return std::make_unique<LayerT>(init);
}

} // namespace

void
register_conv_kernels(KernelRegistry &registry)
{
    registry.add({op_names::kConv, "depthwise_direct", 100,
                  [](const LayerInit &init) {
                      return init.config->allow_depthwise_specialization &&
                             is_depthwise_node(init);
                  },
                  make<ConvDepthwiseLayer>});
    registry.add({op_names::kConv, "winograd", 90,
                  [](const LayerInit &init) {
                      return init.config->allow_winograd &&
                             is_winograd_node(init);
                  },
                  make<ConvWinogradLayer>});
    registry.add({op_names::kConv, "im2col_gemm", 80, nullptr,
                  make<ConvIm2colGemmLayer>});
    registry.add({op_names::kConv, "spatial_pack", 70, nullptr,
                  make<ConvSpatialPackLayer>});
    registry.add({op_names::kConv, "direct", 10, nullptr,
                  make<ConvDirectLayer>});

    // SIMD tier: registered only when this binary was built with a
    // vector TU for the target arch; the support predicates re-check the
    // runtime cpu probe (and the ORPHEUS_DISABLE_SIMD override) per
    // plan, so a binary with AVX2 kernels still selects scalar impls on
    // a host without AVX2. Health-ledger demotion and breaker fallback
    // see these as ordinary impls.
    const std::string isa = simd_isa_compiled();
    if (!isa.empty()) {
        registry.add({op_names::kConv, "depthwise_" + isa, 105,
                      [](const LayerInit &init) {
                          return init.config->allow_simd &&
                                 init.config
                                     ->allow_depthwise_specialization &&
                                 is_depthwise_node(init) &&
                                 conv2d_depthwise_simd_available();
                      },
                      make<ConvDepthwiseSimdLayer>});
        registry.add({op_names::kConv, "im2col_gemm_" + isa, 85,
                      [](const LayerInit &init) {
                          return init.config->allow_simd &&
                                 init.config->gemm_variant ==
                                     GemmVariant::kPacked &&
                                 gemm_packed_simd_available();
                      },
                      make<ConvIm2colGemmSimdLayer>});
    }
}

} // namespace orpheus
