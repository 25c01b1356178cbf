#include "quant/quantizer.hpp"

#include <algorithm>
#include <cmath>

#include "core/logging.hpp"
#include "graph/op_params.hpp"
#include "graph/passes/pass.hpp"
#include "ops/quant/quantize.hpp"

namespace orpheus {

namespace {

/** Seed of the random calibration inputs. */
constexpr std::uint64_t kCalibrationSeed = 0xca1b;

/** Scalar initializer helpers. */
std::string
add_scale(Graph &graph, const std::string &hint, float scale)
{
    const std::string name = graph.unique_value_name(hint + "_scale");
    graph.add_initializer(name, Tensor::scalar(scale));
    return name;
}

std::string
add_zero_point_u8(Graph &graph, const std::string &hint, std::int32_t zp)
{
    const std::string name = graph.unique_value_name(hint + "_zp");
    Tensor tensor(Shape{}, DataType::kUInt8);
    *tensor.data<std::uint8_t>() = static_cast<std::uint8_t>(zp);
    graph.add_initializer(name, std::move(tensor));
    return name;
}

std::string
add_zero_point_i8(Graph &graph, const std::string &hint)
{
    const std::string name = graph.unique_value_name(hint + "_zp");
    Tensor tensor(Shape{}, DataType::kInt8);
    *tensor.data<std::int8_t>() = 0;
    graph.add_initializer(name, std::move(tensor));
    return name;
}

/** True if this conv node can be quantized. */
bool
is_quantizable_conv(const Graph &graph, const Node &node,
                    const RangeTable &ranges)
{
    if (node.op_type() != op_names::kConv)
        return false;
    if (!graph.has_initializer(node.input(1)))
        return false;
    if (node.has_input(2) && !graph.has_initializer(node.input(2)))
        return false;
    // Input range: graph inputs and node outputs are both in the table.
    if (ranges.count(node.input(0)) == 0 ||
        ranges.count(node.output(0)) == 0) {
        return false;
    }
    const std::string fused =
        node.attrs().get_string("fused_activation", "");
    return fused.empty() || fused == "relu" || fused == "clip";
}

/** Rewrites one conv into Quantize -> QLinearConv -> Dequantize. */
void
quantize_conv(Graph &graph, std::size_t node_index,
              const RangeTable &ranges, bool per_channel)
{
    // Copy what we need before mutating the node list.
    const Node node = graph.nodes()[node_index];
    const std::string x_name = node.input(0);
    const std::string y_name = node.output(0);

    // --- Parameters -------------------------------------------------------
    const auto [x_min, x_max] = ranges.at(x_name);
    const auto [y_min, y_max] = ranges.at(y_name);
    const QuantParams x_params = choose_uint8_params(x_min, x_max);
    const QuantParams y_params = choose_uint8_params(y_min, y_max);

    const Tensor &weight = graph.initializer(node.input(1));
    const std::int64_t out_channels = weight.shape().dim(0);
    const std::int64_t per_filter = weight.numel() / out_channels;

    // Per-channel: one symmetric int8 scale per output filter (ONNX
    // 1-D w_scale); per-tensor: a single scalar scale.
    std::vector<float> w_scales(
        static_cast<std::size_t>(per_channel ? out_channels : 1));
    Tensor w_q(weight.shape(), DataType::kInt8);
    if (per_channel) {
        const float *src = weight.data<float>();
        std::int8_t *dst = w_q.data<std::int8_t>();
        for (std::int64_t oc = 0; oc < out_channels; ++oc) {
            float abs_max = 0.0f;
            for (std::int64_t k = 0; k < per_filter; ++k)
                abs_max = std::max(abs_max,
                                   std::fabs(src[oc * per_filter + k]));
            const QuantParams filter_params =
                choose_int8_symmetric_params(abs_max);
            w_scales[static_cast<std::size_t>(oc)] = filter_params.scale;
            for (std::int64_t k = 0; k < per_filter; ++k) {
                const std::int32_t q = static_cast<std::int32_t>(
                    std::lround(src[oc * per_filter + k] /
                                filter_params.scale));
                dst[oc * per_filter + k] = static_cast<std::int8_t>(
                    std::clamp(q, -127, 127));
            }
        }
    } else {
        float w_min, w_max;
        tensor_min_max(weight, w_min, w_max);
        const QuantParams w_params = choose_int8_symmetric_params(
            std::max(std::fabs(w_min), std::fabs(w_max)));
        w_scales[0] = w_params.scale;
        quantize_to_int8(weight, w_params, w_q);
    }

    const std::string w_q_name =
        graph.unique_value_name(node.input(1) + "_q");
    graph.add_initializer(w_q_name, std::move(w_q));

    std::string bias_name;
    if (node.has_input(2)) {
        const Tensor &bias = graph.initializer(node.input(2));
        Tensor bias_q(bias.shape(), DataType::kInt32);
        const float *src = bias.data<float>();
        std::int32_t *dst = bias_q.data<std::int32_t>();
        for (std::int64_t i = 0; i < bias.numel(); ++i) {
            const float w_scale =
                per_channel ? w_scales[static_cast<std::size_t>(i)]
                            : w_scales[0];
            dst[i] = static_cast<std::int32_t>(
                std::lround(src[i] / (x_params.scale * w_scale)));
        }
        bias_name = graph.unique_value_name(node.input(2) + "_q");
        graph.add_initializer(bias_name, std::move(bias_q));
    }

    const std::string xs = add_scale(graph, node.name() + "_x",
                                     x_params.scale);
    const std::string xzp =
        add_zero_point_u8(graph, node.name() + "_x", x_params.zero_point);
    std::string ws;
    if (per_channel) {
        ws = graph.unique_value_name(node.name() + "_w_scale");
        graph.add_initializer(
            ws, Tensor::from_values(
                    Shape({out_channels}),
                    std::vector<float>(w_scales.begin(), w_scales.end())));
    } else {
        ws = add_scale(graph, node.name() + "_w", w_scales[0]);
    }
    const std::string wzp = add_zero_point_i8(graph, node.name() + "_w");
    const std::string ys = add_scale(graph, node.name() + "_y",
                                     y_params.scale);
    const std::string yzp =
        add_zero_point_u8(graph, node.name() + "_y", y_params.zero_point);

    // --- Rewrite ------------------------------------------------------------
    const std::string x_q = graph.unique_value_name(x_name + "_u8");
    const std::string y_q = graph.unique_value_name(y_name + "_u8");

    graph.add_node(op_names::kQuantizeLinear, {x_name, xs, xzp}, {x_q}, {},
                   node.name() + "_quantize_in");

    std::vector<std::string> qconv_inputs{x_q, xs, xzp, w_q_name,
                                          ws,  wzp, ys,  yzp};
    if (!bias_name.empty())
        qconv_inputs.push_back(bias_name);
    graph.add_node(op_names::kQLinearConv, std::move(qconv_inputs), {y_q},
                   node.attrs(), node.name() + "_q");

    graph.add_node(op_names::kDequantizeLinear, {y_q, ys, yzp}, {y_name},
                   {}, node.name() + "_dequantize_out");

    graph.remove_nodes({node_index});
}

/** Scalar fp32 / integer initializer comparison for pair elimination. */
bool
same_scalar(const Graph &graph, const std::string &a, const std::string &b)
{
    if (a == b)
        return true;
    if (!graph.has_initializer(a) || !graph.has_initializer(b))
        return false;
    const Tensor &ta = graph.initializer(a);
    const Tensor &tb = graph.initializer(b);
    if (ta.dtype() != tb.dtype() || ta.numel() != 1 || tb.numel() != 1)
        return false;
    return std::memcmp(ta.raw_data(), tb.raw_data(), ta.byte_size()) == 0;
}

/**
 * Removes Dequantize -> Quantize bridges whose parameters match: the
 * downstream consumer reads the upstream uint8 value directly, keeping
 * conv chains in the integer domain.
 */
int
eliminate_quant_pairs(Graph &graph)
{
    int removed = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
            const Node &quantize = graph.nodes()[i];
            if (quantize.op_type() != op_names::kQuantizeLinear)
                continue;
            const auto producer = graph.producer(quantize.input(0));
            if (!producer)
                continue;
            const Node &dequantize = graph.nodes()[*producer];
            if (dequantize.op_type() != op_names::kDequantizeLinear)
                continue;
            if (!same_scalar(graph, quantize.input(1),
                             dequantize.input(1)) ||
                !same_scalar(graph, quantize.input(2),
                             dequantize.input(2))) {
                continue;
            }

            // Bypass: consumers of the Quantize output read the
            // Dequantize's uint8 input instead.
            graph.replace_all_uses(quantize.output(0),
                                   dequantize.input(0));
            std::vector<std::size_t> doomed{i};
            // The Dequantize disappears too when nothing besides this
            // Quantize reads it.
            const auto dq_consumers =
                graph.consumers(dequantize.output(0));
            const bool dq_dead =
                !graph.is_graph_output(dequantize.output(0)) &&
                dq_consumers.size() == 1 && dq_consumers[0] == i;
            if (dq_dead)
                doomed.push_back(*producer);
            graph.remove_nodes(doomed);
            ++removed;
            changed = true;
            break; // Indices shifted; rescan.
        }
    }
    return removed;
}

} // namespace

Graph
quantize_model(Graph graph, const QuantizationOptions &options,
               QuantizationReport *report)
{
    graph.validate();
    simplify_graph(graph);

    const RangeTable ranges =
        calibrate_ranges(graph, options.calibration_runs, kCalibrationSeed);

    QuantizationReport local_report;

    // Collect conv indices first; quantize_conv mutates the node list,
    // so process one at a time by name.
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
            const Node &node = graph.nodes()[i];
            if (node.op_type() != op_names::kConv)
                continue;
            if (!is_quantizable_conv(graph, node, ranges)) {
                continue;
            }
            quantize_conv(graph, i, ranges,
                          options.per_channel_weights);
            ++local_report.quantized_convs;
            progress = true;
            break;
        }
    }
    for (const Node &node : graph.nodes()) {
        if (node.op_type() == op_names::kConv)
            ++local_report.skipped_convs;
    }

    local_report.removed_quant_pairs = eliminate_quant_pairs(graph);

    // The rewritten convs no longer reference their fp32 weights; drop
    // them (and any orphaned nodes) so the quantized model actually
    // shrinks.
    make_eliminate_dead_nodes_pass()->run(graph);

    graph.validate();
    ORPHEUS_INFO("quantized " << local_report.quantized_convs
                              << " convs, skipped "
                              << local_report.skipped_convs << ", removed "
                              << local_report.removed_quant_pairs
                              << " Q/DQ pairs");
    if (report != nullptr)
        *report = local_report;
    return graph;
}

} // namespace orpheus
