/**
 * @file
 * Folds inference-mode BatchNormalization into a preceding Conv.
 *
 * With y = gamma * (x - mean) / sqrt(var + eps) + beta and x = W * a + b,
 * the BN collapses into scaled conv weights and a shifted bias:
 *
 *   scale = gamma / sqrt(var + eps)
 *   W'[o, ...] = W[o, ...] * scale[o]
 *   b'[o]      = (b[o] - mean[o]) * scale[o] + beta[o]
 *
 * This removes one full tensor traversal per conv at inference time and
 * is the single most valuable simplification for the paper's networks
 * (every conv in all five models is conv+BN). An imported weight is
 * scaled in place (Graph::take_writable_initializer), so compiling a
 * model never holds two copies of its conv weights.
 */
#include "graph/passes/pass.hpp"

#include <cmath>

namespace orpheus {

namespace {

class FoldBatchNormPass : public GraphPass
{
  public:
    const char *name() const override { return "fold-batchnorm"; }

    bool
    run(Graph &graph) override
    {
        std::vector<std::size_t> doomed;
        for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
            Node &bn = graph.nodes()[i];
            if (bn.op_type() != op_names::kBatchNormalization)
                continue;
            if (!try_fold(graph, i))
                continue;
            doomed.push_back(i);
        }
        graph.remove_nodes(doomed);
        return !doomed.empty();
    }

  private:
    bool
    try_fold(Graph &graph, std::size_t bn_index)
    {
        Node &bn = graph.nodes()[bn_index];

        // All four BN parameters must be constants.
        for (std::size_t operand = 1; operand <= 4; ++operand) {
            if (!graph.has_initializer(bn.input(operand)))
                return false;
        }

        const auto conv_index = graph.producer(bn.input(0));
        if (!conv_index)
            return false;
        Node &conv = graph.nodes()[*conv_index];
        if (conv.op_type() != op_names::kConv)
            return false;
        // The conv output must feed only this BN and must not itself be a
        // graph output (its value disappears).
        if (graph.consumers(conv.output(0)).size() != 1 ||
            graph.is_graph_output(conv.output(0))) {
            return false;
        }
        // Fused activations run *after* BN would have; a conv that already
        // fused one cannot absorb a BN behind the activation.
        if (conv.attrs().has("fused_activation"))
            return false;
        if (!graph.has_initializer(conv.input(1)))
            return false;
        if (conv.has_input(2) && !graph.has_initializer(conv.input(2)))
            return false;

        const Tensor &gamma = graph.initializer(bn.input(1));
        const Tensor &beta = graph.initializer(bn.input(2));
        const Tensor &mean = graph.initializer(bn.input(3));
        const Tensor &var = graph.initializer(bn.input(4));
        const float eps = bn.attrs().get_float("epsilon", 1e-5f);

        const std::int64_t out_channels =
            graph.initializer(conv.input(1)).shape().dim(0);
        if (gamma.numel() != out_channels)
            return false;

        // Scaled in place when the conv is the weight's only reader and
        // nothing else shares its storage; a copy otherwise.
        Tensor new_weight = graph.take_writable_initializer(conv.input(1));
        Tensor new_bias(Shape({out_channels}), DataType::kFloat32);

        const float *g = gamma.data<float>();
        const float *bt = beta.data<float>();
        const float *mu = mean.data<float>();
        const float *vr = var.data<float>();
        float *wp = new_weight.data<float>();
        float *bp = new_bias.data<float>();

        const std::int64_t per_filter = new_weight.numel() / out_channels;
        for (std::int64_t o = 0; o < out_channels; ++o) {
            const float scale = g[o] / std::sqrt(vr[o] + eps);
            for (std::int64_t k = 0; k < per_filter; ++k)
                wp[o * per_filter + k] *= scale;
            const float old_bias =
                conv.has_input(2)
                    ? graph.initializer(conv.input(2)).data<float>()[o]
                    : 0.0f;
            bp[o] = (old_bias - mu[o]) * scale + bt[o];
        }

        const std::string weight_name =
            graph.unique_value_name(conv.input(1) + "_bnfold");
        const std::string bias_name =
            graph.unique_value_name(conv.name() + "_bias_bnfold");
        graph.add_initializer(weight_name, std::move(new_weight));
        graph.add_initializer(bias_name, std::move(new_bias));

        conv.inputs().resize(3);
        conv.inputs()[1] = weight_name;
        conv.inputs()[2] = bias_name;
        // The conv now produces what the BN used to produce.
        conv.outputs()[0] = bn.output(0);
        return true;
    }
};

} // namespace

std::unique_ptr<GraphPass>
make_fold_batchnorm_pass()
{
    return std::make_unique<FoldBatchNormPass>();
}

} // namespace orpheus
