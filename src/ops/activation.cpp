#include "ops/activation.hpp"

#include <limits>

namespace orpheus {

const char *
to_string(ActivationKind kind)
{
    switch (kind) {
      case ActivationKind::kNone: return "none";
      case ActivationKind::kRelu: return "relu";
      case ActivationKind::kLeakyRelu: return "leaky_relu";
      case ActivationKind::kClip: return "clip";
      case ActivationKind::kSigmoid: return "sigmoid";
      case ActivationKind::kTanh: return "tanh";
    }
    return "invalid";
}

ActivationSpec
ActivationSpec::from_fused_attrs(const AttributeMap &attrs)
{
    const std::string name = attrs.get_string("fused_activation", "");
    if (name.empty())
        return none();
    if (name == "relu")
        return relu();
    if (name == "leaky_relu")
        return leaky_relu(attrs.get_float("fused_alpha", 0.01f));
    if (name == "clip")
        return clip(attrs.get_float("fused_min",
                                    std::numeric_limits<float>::lowest()),
                    attrs.get_float("fused_max",
                                    std::numeric_limits<float>::max()));
    throw Error("unknown fused activation: " + name);
}

namespace {

/**
 * The bulk form of ActivationSpec::apply(): switches on the kind once
 * per call, then runs a branch-free loop whose body is exactly the
 * scalar expression, so the portable build auto-vectorizes the cheap
 * kinds (none, relu, clip) without changing a single bit. LeakyRelu's
 * conditional multiply and the libm calls stay scalar loops. @p pre
 * maps each input value before the activation (identity, or the conv
 * bias add).
 */
template <typename Pre>
void
activate(const ActivationSpec &spec, const float *input, float *output,
         std::int64_t count, Pre pre)
{
    const float alpha = spec.alpha;
    const float lo = spec.min;
    const float hi = spec.max;
    switch (spec.kind) {
      case ActivationKind::kNone:
        for (std::int64_t i = 0; i < count; ++i)
            output[i] = pre(input[i]);
        return;
      case ActivationKind::kRelu:
        for (std::int64_t i = 0; i < count; ++i) {
            const float v = pre(input[i]);
            output[i] = v > 0.0f ? v : 0.0f;
        }
        return;
      case ActivationKind::kLeakyRelu:
        for (std::int64_t i = 0; i < count; ++i) {
            const float v = pre(input[i]);
            output[i] = v > 0.0f ? v : alpha * v;
        }
        return;
      case ActivationKind::kClip:
        for (std::int64_t i = 0; i < count; ++i)
            output[i] = std::min(std::max(pre(input[i]), lo), hi);
        return;
      case ActivationKind::kSigmoid:
        for (std::int64_t i = 0; i < count; ++i)
            output[i] = 1.0f / (1.0f + std::exp(-pre(input[i])));
        return;
      case ActivationKind::kTanh:
        for (std::int64_t i = 0; i < count; ++i)
            output[i] = std::tanh(pre(input[i]));
        return;
    }
}

constexpr auto unchanged = [](float value) { return value; };

} // namespace

void
ActivationSpec::apply_inplace(float *data, std::int64_t count) const
{
    if (is_identity())
        return;
    activate(*this, data, data, count, unchanged);
}

void
ActivationSpec::apply_bias(const float *input, float bias, float *output,
                           std::int64_t count) const
{
    activate(*this, input, output, count,
             [bias](float value) { return value + bias; });
}

void
activation_forward(const ActivationSpec &spec, const Tensor &input,
                   Tensor &output)
{
    ORPHEUS_CHECK(input.shape() == output.shape(),
                  "activation shape mismatch: " << input.shape() << " vs "
                                                << output.shape());
    activate(spec, input.data<float>(), output.data<float>(), input.numel(),
             unchanged);
}

} // namespace orpheus
