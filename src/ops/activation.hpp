/**
 * @file
 * Elementwise activation functions.
 *
 * ActivationSpec is the runtime form of a (possibly fused) activation:
 * the conv kernels take one so that fuse-conv-activation simplification
 * can apply the nonlinearity while the output tile is still in cache.
 * Standalone activation nodes use the tensor-level helpers below.
 */
#pragma once

#include <algorithm>
#include <cmath>

#include "core/tensor.hpp"
#include "graph/attribute.hpp"

namespace orpheus {

enum class ActivationKind {
    kNone = 0,
    kRelu,
    kLeakyRelu,
    kClip,
    kSigmoid,
    kTanh,
};

const char *to_string(ActivationKind kind);

struct ActivationSpec {
    ActivationKind kind = ActivationKind::kNone;
    float alpha = 0.01f; ///< LeakyRelu slope.
    float min = 0.0f;    ///< Clip lower bound.
    float max = 0.0f;    ///< Clip upper bound.

    static ActivationSpec none() { return {}; }
    static ActivationSpec relu() { return {ActivationKind::kRelu, 0, 0, 0}; }

    static ActivationSpec
    leaky_relu(float alpha)
    {
        return {ActivationKind::kLeakyRelu, alpha, 0, 0};
    }

    static ActivationSpec
    clip(float min, float max)
    {
        return {ActivationKind::kClip, 0, min, max};
    }

    /**
     * Reads the fused_activation/fused_* attributes a
     * FuseConvActivation pass leaves on a Conv node; returns none() when
     * nothing was fused.
     */
    static ActivationSpec from_fused_attrs(const AttributeMap &attrs);

    bool is_identity() const { return kind == ActivationKind::kNone; }

    /**
     * Applies the activation to a single value: the scalar definition
     * of every bulk path below, which must match it bit for bit.
     */
    float
    apply(float value) const
    {
        switch (kind) {
          case ActivationKind::kNone:
            return value;
          case ActivationKind::kRelu:
            return value > 0.0f ? value : 0.0f;
          case ActivationKind::kLeakyRelu:
            return value > 0.0f ? value : alpha * value;
          case ActivationKind::kClip:
            return std::min(std::max(value, min), max);
          case ActivationKind::kSigmoid:
            return 1.0f / (1.0f + std::exp(-value));
          case ActivationKind::kTanh:
            return std::tanh(value);
        }
        return value;
    }

    /** Applies the activation over a contiguous array in place. */
    void apply_inplace(float *data, std::int64_t count) const;

    /**
     * Fused conv epilogue: output[i] = apply(input[i] + bias). The
     * pointers may be equal (in-place over the output tile). The bias is
     * always added, even when zero, exactly as the per-element form
     * would (it turns -0.0 into +0.0).
     */
    void apply_bias(const float *input, float bias, float *output,
                    std::int64_t count) const;
};

/** Elementwise y = activation(x); shapes must match. */
void activation_forward(const ActivationSpec &spec, const Tensor &input,
                        Tensor &output);

} // namespace orpheus
