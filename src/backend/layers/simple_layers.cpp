/**
 * @file
 * Reference Layer implementations for every non-conv operator. Each is
 * a thin adapter from the Layer interface onto the kernels in src/ops.
 */
#include <cstring>
#include <limits>

#include "backend/kernel_registry.hpp"
#include "core/cpu_features.hpp"
#include "graph/op_params.hpp"
#include "ops/activation.hpp"
#include "ops/batchnorm.hpp"
#include "ops/concat.hpp"
#include "ops/dense.hpp"
#include "ops/eltwise.hpp"
#include "ops/unary.hpp"
#include "ops/pad.hpp"
#include "ops/pool.hpp"
#include "ops/reduce.hpp"
#include "ops/softmax.hpp"

namespace orpheus {

namespace {

class ActivationLayer : public Layer
{
  public:
    ActivationLayer(const LayerInit &init, ActivationSpec spec)
        : spec_(spec)
    {
        (void)init;
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        activation_forward(spec_, *inputs[0], *outputs[0]);
    }

  private:
    ActivationSpec spec_;
};

/** Builds the ActivationSpec for an activation node at plan time. */
ActivationSpec
activation_spec_for(const LayerInit &init)
{
    const std::string &op = init.node->op_type();
    if (op == op_names::kRelu)
        return ActivationSpec::relu();
    if (op == op_names::kLeakyRelu)
        return ActivationSpec::leaky_relu(
            init.node->attrs().get_float("alpha", 0.01f));
    if (op == op_names::kSigmoid)
        return {ActivationKind::kSigmoid, 0, 0, 0};
    if (op == op_names::kTanh)
        return {ActivationKind::kTanh, 0, 0, 0};
    if (op == op_names::kClip) {
        float lo = init.node->attrs().get_float(
            "min", std::numeric_limits<float>::lowest());
        float hi = init.node->attrs().get_float(
            "max", std::numeric_limits<float>::max());
        if (init.node->has_input(1) && init.constant(1) != nullptr)
            lo = *init.constant(1)->data<float>();
        if (init.node->has_input(2) && init.constant(2) != nullptr)
            hi = *init.constant(2)->data<float>();
        return ActivationSpec::clip(lo, hi);
    }
    throw Error("no activation spec for op " + op);
}

class MaxPoolLayer : public Layer
{
  public:
    explicit MaxPoolLayer(const LayerInit &init)
        : params_(Pool2dParams::from_attrs(init.node->attrs()))
    {
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        maxpool2d(*inputs[0], params_, *outputs[0]);
    }

  private:
    Pool2dParams params_;
};

class AvgPoolLayer : public Layer
{
  public:
    explicit AvgPoolLayer(const LayerInit &init)
        : params_(Pool2dParams::from_attrs(init.node->attrs()))
    {
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        avgpool2d(*inputs[0], params_, *outputs[0]);
    }

  private:
    Pool2dParams params_;
};

class GlobalAvgPoolLayer : public Layer
{
  public:
    explicit GlobalAvgPoolLayer(const LayerInit &) {}

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        global_average_pool(*inputs[0], *outputs[0]);
    }
};

class SoftmaxLayer : public Layer
{
  public:
    explicit SoftmaxLayer(const LayerInit &init)
        : axis_(static_cast<int>(init.node->attrs().get_int("axis", -1)))
    {
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        softmax(*inputs[0], *outputs[0], axis_);
    }

  private:
    int axis_;
};

class EltwiseLayer : public Layer
{
  public:
    EltwiseLayer(const LayerInit &, EltwiseOp op) : op_(op) {}

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        eltwise(op_, *inputs[0], *inputs[1], *outputs[0]);
    }

  private:
    EltwiseOp op_;
};

class UnaryLayer : public Layer
{
  public:
    UnaryLayer(const LayerInit &, UnaryOp op) : op_(op) {}

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        unary(op_, *inputs[0], *outputs[0]);
    }

  private:
    UnaryOp op_;
};

class GlobalMaxPoolLayer : public Layer
{
  public:
    explicit GlobalMaxPoolLayer(const LayerInit &) {}

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        global_max_pool(*inputs[0], *outputs[0]);
    }
};

class ArgMaxLayer : public Layer
{
  public:
    explicit ArgMaxLayer(const LayerInit &init)
        : axis_(static_cast<int>(init.node->attrs().get_int("axis", 0)))
    {
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        argmax(*inputs[0], axis_, *outputs[0]);
    }

  private:
    int axis_;
};

class ConcatLayer : public Layer
{
  public:
    explicit ConcatLayer(const LayerInit &init)
        : axis_(static_cast<int>(init.node->attrs().get_int("axis", 1)))
    {
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        concat(inputs, axis_, *outputs[0]);
    }

  private:
    int axis_;
};

class DenseLayer : public Layer
{
  public:
    explicit DenseLayer(const LayerInit &init)
        : DenseLayer(init, init.config->gemm_variant)
    {
    }

    DenseLayer(const LayerInit &init, GemmVariant variant)
        : trans_a_(init.node->attrs().get_int("transA", 0) != 0),
          trans_b_(init.node->attrs().get_int("transB", 0) != 0),
          alpha_(init.node->attrs().get_float("alpha", 1.0f)),
          beta_(init.node->attrs().get_float("beta", 1.0f)),
          has_c_(init.node->has_input(2)),
          variant_(variant),
          const_b_(init.constant(1))
    {
        const Shape &a = init.input(0).shape;
        const Shape &b = init.input(1).shape;
        m_ = trans_a_ ? a.dim(1) : a.dim(0);
        k_ = trans_a_ ? a.dim(0) : a.dim(1);
        n_ = trans_b_ ? b.dim(0) : b.dim(1);
        // Only a well-shaped constant weight is read as B panels; a
        // mismatched one keeps the per-call path, whose shape check
        // reports it.
        if (b.rank() != 2 || b.dim(trans_b_ ? 1 : 0) != k_)
            const_b_ = nullptr;
    }

    /** A constant weight is read as op(B) panels, which also absorbs
     *  the transpose of a transB weight. */
    TensorLayout
    constant_layout(std::size_t input) const override
    {
        if (input != 1 || const_b_ == nullptr ||
            !gemm_variant_uses_packing(variant_))
            return {};
        TensorLayout layout;
        layout.kind = TensorLayout::Kind::kPanelB;
        layout.transposed = trans_b_;
        return layout;
    }

    void
    prepare(PlanContext &ctx) override
    {
        // A weight in the B panels this variant reads needs neither a
        // transpose nor a packed-B block per call.
        const TensorLayout b_layout = constant_layout(1);
        const bool b_panels =
            b_layout.packed() && const_b_->layout() == b_layout;
        if (trans_a_)
            a_trans_offset_ = ctx.reserve(
                static_cast<std::size_t>(m_ * k_) * sizeof(float));
        if (trans_b_ && !b_panels)
            b_trans_offset_ = ctx.reserve(
                static_cast<std::size_t>(k_ * n_) * sizeof(float));
        // dense() always calls gemm_general with beta = 0 (it broadcasts
        // C itself), so staging is only needed for a non-unit alpha.
        if (alpha_ != 1.0f)
            product_offset_ = ctx.reserve(
                static_cast<std::size_t>(m_ * n_) * sizeof(float));
        if (gemm_variant_uses_packing(variant_) && !b_panels)
            b_pack_offset_ =
                ctx.reserve(gemm_packed_b_pack_floats() * sizeof(float));
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
        const Tensor *c = has_c_ ? inputs[2] : nullptr;
        dense(*inputs[0], *inputs[1], c, trans_a_, trans_b_, alpha_, beta_,
              *outputs[0], variant_, prepared_ ? &scratch_ : nullptr);
    }

  private:
    void
    rebind()
    {
        if (a_trans_offset_ != kNone)
            scratch_.a_trans = workspace_.at<float>(a_trans_offset_);
        if (b_trans_offset_ != kNone)
            scratch_.b_trans = workspace_.at<float>(b_trans_offset_);
        if (product_offset_ != kNone)
            scratch_.product = workspace_.at<float>(product_offset_);
        if (b_pack_offset_ != kNone)
            scratch_.b_pack = workspace_.at<float>(b_pack_offset_);
    }

    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    bool trans_a_;
    bool trans_b_;
    float alpha_;
    float beta_;
    bool has_c_;
    GemmVariant variant_;
    const Tensor *const_b_;
    std::int64_t m_ = 0;
    std::int64_t k_ = 0;
    std::int64_t n_ = 0;
    Workspace workspace_;
    GemmScratch scratch_;
    std::size_t a_trans_offset_ = kNone;
    std::size_t b_trans_offset_ = kNone;
    std::size_t product_offset_ = kNone;
    std::size_t b_pack_offset_ = kNone;
    bool prepared_ = false;
};

class MatMulLayer : public Layer
{
  public:
    explicit MatMulLayer(const LayerInit &init)
        : MatMulLayer(init, init.config->gemm_variant)
    {
    }

    MatMulLayer(const LayerInit &init, GemmVariant variant)
        : variant_(variant)
    {
        (void)init;
    }

    void
    prepare(PlanContext &ctx) override
    {
        if (gemm_variant_uses_packing(variant_))
            b_pack_offset_ =
                ctx.reserve(gemm_packed_b_pack_floats() * sizeof(float));
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
        dense(*inputs[0], *inputs[1], nullptr, false, false, 1.0f, 0.0f,
              *outputs[0], variant_, prepared_ ? &scratch_ : nullptr);
    }

  private:
    void
    rebind()
    {
        if (gemm_variant_uses_packing(variant_))
            scratch_.b_pack = workspace_.at<float>(b_pack_offset_);
    }

    GemmVariant variant_;
    Workspace workspace_;
    GemmScratch scratch_;
    std::size_t b_pack_offset_ = 0;
    bool prepared_ = false;
};

/** Flatten / Reshape / Identity / inference Dropout: a raw byte copy —
 *  shapes were already fixed by the planner. */
class CopyLayer : public Layer
{
  public:
    explicit CopyLayer(const LayerInit &) {}

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        ORPHEUS_CHECK(inputs[0]->byte_size() == outputs[0]->byte_size(),
                      "copy layer size mismatch: "
                          << inputs[0]->to_string() << " -> "
                          << outputs[0]->to_string());
        std::memcpy(outputs[0]->raw_data(), inputs[0]->raw_data(),
                    inputs[0]->byte_size());
    }
};

class BatchNormLayer : public Layer
{
  public:
    explicit BatchNormLayer(const LayerInit &init)
        : epsilon_(init.node->attrs().get_float("epsilon", 1e-5f))
    {
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        batchnorm_inference(*inputs[0], *inputs[1], *inputs[2], *inputs[3],
                            *inputs[4], epsilon_, *outputs[0]);
    }

  private:
    float epsilon_;
};

class PadLayer : public Layer
{
  public:
    explicit PadLayer(const LayerInit &init)
        : pads_(init.node->attrs().at("pads").as_ints()),
          value_(init.node->attrs().get_float("value", 0.0f))
    {
        const std::string mode =
            init.node->attrs().get_string("mode", "constant");
        ORPHEUS_CHECK(mode == "constant",
                      "only constant-mode Pad is supported, got " << mode);
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        pad_constant(*inputs[0], pads_, value_, *outputs[0]);
    }

  private:
    std::vector<std::int64_t> pads_;
    float value_;
};

class ReduceMeanLayer : public Layer
{
  public:
    explicit ReduceMeanLayer(const LayerInit &init)
        : axes_(init.node->attrs().at("axes").as_ints())
    {
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        reduce_mean(*inputs[0], axes_, *outputs[0]);
    }

  private:
    std::vector<std::int64_t> axes_;
};

} // namespace

void
register_simple_kernels(KernelRegistry &registry)
{
    const auto activation_factory = [](const LayerInit &init) {
        return std::make_unique<ActivationLayer>(init,
                                                 activation_spec_for(init));
    };
    for (const char *op :
         {op_names::kRelu, op_names::kLeakyRelu, op_names::kSigmoid,
          op_names::kTanh, op_names::kClip}) {
        registry.add({op, "reference", 10, nullptr, activation_factory});
    }

    registry.add({op_names::kMaxPool, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<MaxPoolLayer>(init);
                  }});
    registry.add({op_names::kAveragePool, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<AvgPoolLayer>(init);
                  }});
    registry.add({op_names::kGlobalAveragePool, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<GlobalAvgPoolLayer>(init);
                  }});
    registry.add({op_names::kSoftmax, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<SoftmaxLayer>(init);
                  }});
    registry.add({op_names::kAdd, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<EltwiseLayer>(init,
                                                            EltwiseOp::kAdd);
                  }});
    registry.add({op_names::kMul, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<EltwiseLayer>(init,
                                                            EltwiseOp::kMul);
                  }});
    registry.add({op_names::kSub, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<EltwiseLayer>(init,
                                                            EltwiseOp::kSub);
                  }});
    registry.add({op_names::kDiv, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<EltwiseLayer>(init,
                                                            EltwiseOp::kDiv);
                  }});
    registry.add({op_names::kNeg, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<UnaryLayer>(init,
                                                          UnaryOp::kNeg);
                  }});
    registry.add({op_names::kExp, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<UnaryLayer>(init,
                                                          UnaryOp::kExp);
                  }});
    registry.add({op_names::kSqrt, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<UnaryLayer>(init,
                                                          UnaryOp::kSqrt);
                  }});
    registry.add({op_names::kAbs, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<UnaryLayer>(init,
                                                          UnaryOp::kAbs);
                  }});
    registry.add({op_names::kGlobalMaxPool, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<GlobalMaxPoolLayer>(init);
                  }});
    registry.add({op_names::kArgMax, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<ArgMaxLayer>(init);
                  }});
    registry.add({op_names::kConcat, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<ConcatLayer>(init);
                  }});
    registry.add({op_names::kGemm, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<DenseLayer>(init);
                  }});
    registry.add({op_names::kMatMul, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<MatMulLayer>(init);
                  }});
    registry.add({op_names::kBatchNormalization, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<BatchNormLayer>(init);
                  }});
    registry.add({op_names::kPad, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<PadLayer>(init);
                  }});
    registry.add({op_names::kReduceMean, "reference", 10, nullptr,
                  [](const LayerInit &init) {
                      return std::make_unique<ReduceMeanLayer>(init);
                  }});

    const auto copy_factory = [](const LayerInit &init) {
        return std::make_unique<CopyLayer>(init);
    };
    for (const char *op : {op_names::kFlatten, op_names::kReshape,
                           op_names::kIdentity, op_names::kDropout}) {
        registry.add({op, "reference", 10, nullptr, copy_factory});
    }

    // SIMD GEMM tier for Gemm/MatMul: same packed lowering, vector
    // micro-kernel. Claims nodes only when the engine runs the packed
    // variant (pinned naive/blocked configs stay untouched) and the
    // runtime probe admits the ISA.
    const std::string isa = simd_isa_compiled();
    if (!isa.empty()) {
        const auto simd_gemm_supported = [](const LayerInit &init) {
            return init.config->allow_simd &&
                   init.config->gemm_variant == GemmVariant::kPacked &&
                   gemm_packed_simd_available();
        };
        registry.add({op_names::kGemm, "packed_" + isa, 30,
                      simd_gemm_supported, [](const LayerInit &init) {
                          return std::make_unique<DenseLayer>(
                              init, GemmVariant::kPackedSimd);
                      }});
        registry.add({op_names::kMatMul, "packed_" + isa, 30,
                      simd_gemm_supported, [](const LayerInit &init) {
                          return std::make_unique<MatMulLayer>(
                              init, GemmVariant::kPackedSimd);
                      }});
    }
}

} // namespace orpheus
