#include "graph/shape_inference.hpp"

#include <mutex>
#include <sstream>

#include "graph/op_params.hpp"

namespace orpheus {

namespace {

std::unordered_map<std::string, ShapeInferenceRule> &
rule_registry()
{
    static std::unordered_map<std::string, ShapeInferenceRule> registry;
    return registry;
}

std::mutex &
registry_mutex()
{
    static std::mutex m;
    return m;
}

// --- Shared helpers ------------------------------------------------------

ValueInfo
same_as(const ValueInfo &input, std::string name = "")
{
    ValueInfo out = input;
    out.name = std::move(name);
    return out;
}

void
require_rank(const ValueInfo &info, std::size_t rank, const Node &node)
{
    ORPHEUS_CHECK(info.shape.rank() == rank,
                  node.op_type() << " node " << node.name() << ": value "
                                 << info.name << " must have rank " << rank
                                 << ", got " << info.shape);
}

/** NumPy-style broadcast of two shapes (used by Add/Mul). */
Shape
broadcast_shapes(const Shape &a, const Shape &b, const Node &node)
{
    const std::size_t rank = std::max(a.rank(), b.rank());
    std::vector<Shape::dim_type> dims(rank, 1);
    for (std::size_t i = 0; i < rank; ++i) {
        const Shape::dim_type da =
            i < rank - a.rank() ? 1 : a.dim(static_cast<int>(i - (rank - a.rank())));
        const Shape::dim_type db =
            i < rank - b.rank() ? 1 : b.dim(static_cast<int>(i - (rank - b.rank())));
        ORPHEUS_CHECK(da == db || da == 1 || db == 1,
                      node.op_type() << " node " << node.name()
                                     << ": cannot broadcast " << a << " with "
                                     << b);
        dims[i] = std::max(da, db);
    }
    return Shape(dims);
}

// --- Per-op rules ---------------------------------------------------------

std::vector<ValueInfo>
infer_conv(const ShapeInferenceContext &ctx)
{
    const ValueInfo &x = ctx.input(0);
    const ValueInfo &w = ctx.input(1);
    require_rank(x, 4, ctx.node);
    require_rank(w, 4, ctx.node);

    const Conv2dParams p = Conv2dParams::from_attrs(ctx.node.attrs(), w.shape);
    const auto in_channels = x.shape.dim(1);
    const auto out_channels = w.shape.dim(0);
    ORPHEUS_CHECK(w.shape.dim(1) * p.group == in_channels,
                  "Conv " << ctx.node.name() << ": weight " << w.shape
                          << " with group " << p.group
                          << " does not match input channels " << in_channels);
    ORPHEUS_CHECK(out_channels % p.group == 0,
                  "Conv " << ctx.node.name() << ": output channels "
                          << out_channels << " not divisible by group "
                          << p.group);
    ORPHEUS_CHECK(w.shape.dim(2) == p.kernel_h && w.shape.dim(3) == p.kernel_w,
                  "Conv " << ctx.node.name() << ": kernel_shape attribute ["
                          << p.kernel_h << ", " << p.kernel_w
                          << "] disagrees with weight " << w.shape);
    if (ctx.node.has_input(2)) {
        const ValueInfo &bias = ctx.input(2);
        require_rank(bias, 1, ctx.node);
        ORPHEUS_CHECK(bias.shape.dim(0) == out_channels,
                      "Conv " << ctx.node.name() << ": bias " << bias.shape
                              << " does not match output channels "
                              << out_channels);
    }

    Shape out({x.shape.dim(0), out_channels, p.out_h(x.shape.dim(2)),
               p.out_w(x.shape.dim(3))});
    return {ValueInfo{"", x.dtype, std::move(out)}};
}

std::vector<ValueInfo>
infer_pool(const ShapeInferenceContext &ctx)
{
    const ValueInfo &x = ctx.input(0);
    require_rank(x, 4, ctx.node);
    const Pool2dParams p = Pool2dParams::from_attrs(ctx.node.attrs());
    Shape out({x.shape.dim(0), x.shape.dim(1), p.out_h(x.shape.dim(2)),
               p.out_w(x.shape.dim(3))});
    return {ValueInfo{"", x.dtype, std::move(out)}};
}

std::vector<ValueInfo>
infer_global_average_pool(const ShapeInferenceContext &ctx)
{
    const ValueInfo &x = ctx.input(0);
    require_rank(x, 4, ctx.node);
    return {ValueInfo{"", x.dtype,
                      Shape({x.shape.dim(0), x.shape.dim(1), 1, 1})}};
}

std::vector<ValueInfo>
infer_elementwise_unary(const ShapeInferenceContext &ctx)
{
    return {same_as(ctx.input(0))};
}

std::vector<ValueInfo>
infer_elementwise_binary(const ShapeInferenceContext &ctx)
{
    const ValueInfo &a = ctx.input(0);
    const ValueInfo &b = ctx.input(1);
    ORPHEUS_CHECK(a.dtype == b.dtype,
                  ctx.node.op_type() << " " << ctx.node.name()
                                     << ": dtype mismatch " << a.dtype
                                     << " vs " << b.dtype);
    return {ValueInfo{"", a.dtype,
                      broadcast_shapes(a.shape, b.shape, ctx.node)}};
}

std::vector<ValueInfo>
infer_concat(const ShapeInferenceContext &ctx)
{
    ORPHEUS_CHECK(!ctx.input_infos.empty(),
                  "Concat " << ctx.node.name() << " has no inputs");
    const ValueInfo &first = ctx.input(0);
    const int axis = first.shape.normalize_axis(
        static_cast<int>(ctx.node.attrs().get_int("axis", 1)));

    Shape::dim_type total = 0;
    for (const ValueInfo &input : ctx.input_infos) {
        ORPHEUS_CHECK(input.shape.rank() == first.shape.rank(),
                      "Concat " << ctx.node.name() << ": rank mismatch");
        for (int d = 0; d < static_cast<int>(first.shape.rank()); ++d) {
            if (d == axis)
                continue;
            ORPHEUS_CHECK(input.shape.dim(d) == first.shape.dim(d),
                          "Concat " << ctx.node.name()
                                    << ": non-axis dimension mismatch "
                                    << input.shape << " vs " << first.shape);
        }
        total += input.shape.dim(axis);
    }

    Shape out = first.shape;
    out.set_dim(axis, total);
    return {ValueInfo{"", first.dtype, std::move(out)}};
}

std::vector<ValueInfo>
infer_gemm(const ShapeInferenceContext &ctx)
{
    const ValueInfo &a = ctx.input(0);
    const ValueInfo &b = ctx.input(1);
    require_rank(a, 2, ctx.node);
    require_rank(b, 2, ctx.node);
    const bool trans_a = ctx.node.attrs().get_int("transA", 0) != 0;
    const bool trans_b = ctx.node.attrs().get_int("transB", 0) != 0;
    const auto m = trans_a ? a.shape.dim(1) : a.shape.dim(0);
    const auto ka = trans_a ? a.shape.dim(0) : a.shape.dim(1);
    const auto kb = trans_b ? b.shape.dim(1) : b.shape.dim(0);
    const auto n = trans_b ? b.shape.dim(0) : b.shape.dim(1);
    ORPHEUS_CHECK(ka == kb, "Gemm " << ctx.node.name()
                                    << ": inner dimensions disagree (" << ka
                                    << " vs " << kb << ")");
    return {ValueInfo{"", a.dtype, Shape({m, n})}};
}

std::vector<ValueInfo>
infer_matmul(const ShapeInferenceContext &ctx)
{
    const ValueInfo &a = ctx.input(0);
    const ValueInfo &b = ctx.input(1);
    require_rank(a, 2, ctx.node);
    require_rank(b, 2, ctx.node);
    ORPHEUS_CHECK(a.shape.dim(1) == b.shape.dim(0),
                  "MatMul " << ctx.node.name() << ": inner dims disagree");
    return {ValueInfo{"", a.dtype, Shape({a.shape.dim(0), b.shape.dim(1)})}};
}

std::vector<ValueInfo>
infer_flatten(const ShapeInferenceContext &ctx)
{
    const ValueInfo &x = ctx.input(0);
    const int axis = static_cast<int>(ctx.node.attrs().get_int("axis", 1));
    const int rank = static_cast<int>(x.shape.rank());
    ORPHEUS_CHECK(axis >= 0 && axis <= rank,
                  "Flatten " << ctx.node.name() << ": axis " << axis
                             << " out of range for rank " << rank);
    Shape::dim_type rows = 1, cols = 1;
    for (int d = 0; d < axis; ++d)
        rows *= x.shape.dim(d);
    for (int d = axis; d < rank; ++d)
        cols *= x.shape.dim(d);
    return {ValueInfo{"", x.dtype, Shape({rows, cols})}};
}

std::vector<ValueInfo>
infer_reshape(const ShapeInferenceContext &ctx)
{
    const ValueInfo &x = ctx.input(0);
    const std::string &shape_value = ctx.node.input(1);
    ORPHEUS_CHECK(ctx.graph.has_initializer(shape_value),
                  "Reshape " << ctx.node.name()
                             << ": shape operand must be a constant "
                                "initializer, got "
                             << shape_value);
    const Tensor &shape_tensor = ctx.graph.initializer(shape_value);
    ORPHEUS_CHECK(shape_tensor.dtype() == DataType::kInt64,
                  "Reshape " << ctx.node.name()
                             << ": shape operand must be int64");

    Shape out;
    resolve_reshape(ctx.node.name(), x.shape,
                    shape_tensor.data<std::int64_t>(),
                    static_cast<std::size_t>(shape_tensor.numel()), out)
        .throw_if_error();
    return {ValueInfo{"", x.dtype, std::move(out)}};
}

std::vector<ValueInfo>
infer_batchnorm(const ShapeInferenceContext &ctx)
{
    const ValueInfo &x = ctx.input(0);
    require_rank(x, 4, ctx.node);
    const auto channels = x.shape.dim(1);
    for (std::size_t i = 1; i <= 4; ++i) {
        const ValueInfo &param = ctx.input(i);
        require_rank(param, 1, ctx.node);
        ORPHEUS_CHECK(param.shape.dim(0) == channels,
                      "BatchNormalization " << ctx.node.name() << ": operand "
                                            << i << " has " << param.shape
                                            << ", expected [" << channels
                                            << "]");
    }
    return {same_as(x)};
}

std::vector<ValueInfo>
infer_pad(const ShapeInferenceContext &ctx)
{
    const ValueInfo &x = ctx.input(0);
    const auto pads = ctx.node.attrs().at("pads").as_ints();
    const std::size_t rank = x.shape.rank();
    ORPHEUS_CHECK(pads.size() == 2 * rank,
                  "Pad " << ctx.node.name() << ": pads must have "
                         << 2 * rank << " entries, got " << pads.size());
    std::vector<Shape::dim_type> dims(rank);
    for (std::size_t d = 0; d < rank; ++d) {
        ORPHEUS_CHECK(pads[d] >= 0 && pads[rank + d] >= 0,
                      "Pad " << ctx.node.name()
                             << ": negative pads are not supported");
        dims[d] = x.shape.dim(static_cast<int>(d)) + pads[d] + pads[rank + d];
    }
    return {ValueInfo{"", x.dtype, Shape(dims)}};
}

std::vector<ValueInfo>
infer_constant(const ShapeInferenceContext &ctx)
{
    const Tensor &value = ctx.node.attrs().at("value").as_tensor();
    return {ValueInfo{"", value.dtype(), value.shape()}};
}

std::vector<ValueInfo>
infer_reduce_mean(const ShapeInferenceContext &ctx)
{
    const ValueInfo &x = ctx.input(0);
    const auto axes = ctx.node.attrs().at("axes").as_ints();
    const bool keepdims = ctx.node.attrs().get_int("keepdims", 1) != 0;

    std::vector<bool> reduced(x.shape.rank(), false);
    for (std::int64_t axis : axes)
        reduced[static_cast<std::size_t>(
            x.shape.normalize_axis(static_cast<int>(axis)))] = true;

    std::vector<Shape::dim_type> dims;
    for (std::size_t d = 0; d < x.shape.rank(); ++d) {
        if (!reduced[d])
            dims.push_back(x.shape.dim(static_cast<int>(d)));
        else if (keepdims)
            dims.push_back(1);
    }
    return {ValueInfo{"", x.dtype, Shape(dims)}};
}

std::vector<ValueInfo>
infer_argmax(const ShapeInferenceContext &ctx)
{
    const ValueInfo &x = ctx.input(0);
    const int axis = x.shape.normalize_axis(
        static_cast<int>(ctx.node.attrs().get_int("axis", 0)));
    const bool keepdims = ctx.node.attrs().get_int("keepdims", 1) != 0;

    std::vector<Shape::dim_type> dims;
    for (int d = 0; d < static_cast<int>(x.shape.rank()); ++d) {
        if (d != axis)
            dims.push_back(x.shape.dim(d));
        else if (keepdims)
            dims.push_back(1);
    }
    return {ValueInfo{"", DataType::kInt64, Shape(dims)}};
}

std::vector<ValueInfo>
infer_dropout(const ShapeInferenceContext &ctx)
{
    // Inference-mode dropout is the identity; the optional mask output is
    // not produced by Orpheus.
    std::vector<ValueInfo> outs(ctx.node.outputs().size(),
                                same_as(ctx.input(0)));
    if (outs.size() > 1)
        outs[1] = ValueInfo{"", DataType::kBool, ctx.input(0).shape};
    return outs;
}

std::vector<ValueInfo>
infer_quantize_linear(const ShapeInferenceContext &ctx)
{
    const ValueInfo &x = ctx.input(0);
    // The output dtype follows the zero-point tensor (ONNX convention);
    // uint8 when the zero point is omitted.
    DataType dtype = DataType::kUInt8;
    if (ctx.node.has_input(2))
        dtype = ctx.input(2).dtype;
    return {ValueInfo{"", dtype, x.shape}};
}

std::vector<ValueInfo>
infer_dequantize_linear(const ShapeInferenceContext &ctx)
{
    return {ValueInfo{"", DataType::kFloat32, ctx.input(0).shape}};
}

std::vector<ValueInfo>
infer_qlinear_conv(const ShapeInferenceContext &ctx)
{
    const ValueInfo &x = ctx.input(0);
    const ValueInfo &w = ctx.input(3);
    require_rank(x, 4, ctx.node);
    require_rank(w, 4, ctx.node);
    ORPHEUS_CHECK(x.dtype == DataType::kUInt8 &&
                      w.dtype == DataType::kInt8,
                  "QLinearConv " << ctx.node.name()
                                 << ": expects uint8 activations and int8 "
                                    "weights, got "
                                 << x.dtype << " / " << w.dtype);
    const Conv2dParams p = Conv2dParams::from_attrs(ctx.node.attrs(), w.shape);
    const auto out_channels = w.shape.dim(0);
    // The int8 conv reads weight rows, groups and bias by these shapes,
    // so a model that breaks one is an invalid argument, not a kernel
    // over-read.
    std::ostringstream bad;
    if (w.shape.dim(1) * p.group != x.shape.dim(1)) {
        bad << "weight/input channel mismatch";
    } else if (out_channels % p.group != 0) {
        bad << "output channels " << out_channels
            << " not divisible by group " << p.group;
    } else if (w.shape.dim(2) != p.kernel_h || w.shape.dim(3) != p.kernel_w) {
        bad << "kernel_shape attribute [" << p.kernel_h << ", "
            << p.kernel_w << "] disagrees with weight " << w.shape;
    } else if (ctx.node.has_input(8)) {
        const ValueInfo &bias = ctx.input(8);
        if (bias.dtype != DataType::kInt32 || bias.shape.rank() != 1 ||
            bias.shape.dim(0) != out_channels)
            bad << "bias " << bias.dtype << " " << bias.shape
                << " is not int32 [" << out_channels << "]";
    }
    if (!bad.str().empty())
        invalid_argument_error("QLinearConv " + ctx.node.name() + ": " +
                               bad.str())
            .throw_if_error();
    Shape out({x.shape.dim(0), out_channels, p.out_h(x.shape.dim(2)),
               p.out_w(x.shape.dim(3))});
    return {ValueInfo{"", DataType::kUInt8, std::move(out)}};
}

std::once_flag g_builtin_rules_once;

void
register_builtin_rules()
{
    auto &registry = rule_registry();
    registry[op_names::kConv] = infer_conv;
    registry[op_names::kMaxPool] = infer_pool;
    registry[op_names::kAveragePool] = infer_pool;
    registry[op_names::kGlobalAveragePool] = infer_global_average_pool;
    registry[op_names::kRelu] = infer_elementwise_unary;
    registry[op_names::kLeakyRelu] = infer_elementwise_unary;
    registry[op_names::kSigmoid] = infer_elementwise_unary;
    registry[op_names::kTanh] = infer_elementwise_unary;
    registry[op_names::kClip] = infer_elementwise_unary;
    registry[op_names::kSoftmax] = infer_elementwise_unary;
    registry[op_names::kIdentity] = infer_elementwise_unary;
    registry[op_names::kAdd] = infer_elementwise_binary;
    registry[op_names::kSub] = infer_elementwise_binary;
    registry[op_names::kMul] = infer_elementwise_binary;
    registry[op_names::kDiv] = infer_elementwise_binary;
    registry[op_names::kNeg] = infer_elementwise_unary;
    registry[op_names::kExp] = infer_elementwise_unary;
    registry[op_names::kSqrt] = infer_elementwise_unary;
    registry[op_names::kAbs] = infer_elementwise_unary;
    registry[op_names::kGlobalMaxPool] = infer_global_average_pool;
    registry[op_names::kArgMax] = infer_argmax;
    registry[op_names::kConcat] = infer_concat;
    registry[op_names::kGemm] = infer_gemm;
    registry[op_names::kMatMul] = infer_matmul;
    registry[op_names::kFlatten] = infer_flatten;
    registry[op_names::kReshape] = infer_reshape;
    registry[op_names::kBatchNormalization] = infer_batchnorm;
    registry[op_names::kPad] = infer_pad;
    registry[op_names::kConstant] = infer_constant;
    registry[op_names::kReduceMean] = infer_reduce_mean;
    registry[op_names::kDropout] = infer_dropout;
    registry[op_names::kQuantizeLinear] = infer_quantize_linear;
    registry[op_names::kDequantizeLinear] = infer_dequantize_linear;
    registry[op_names::kQLinearConv] = infer_qlinear_conv;
}

} // namespace

void
register_shape_inference_rule(const std::string &op_type,
                              ShapeInferenceRule rule)
{
    std::call_once(g_builtin_rules_once, register_builtin_rules);
    std::lock_guard<std::mutex> lock(registry_mutex());
    rule_registry()[op_type] = std::move(rule);
}

bool
has_shape_inference_rule(const std::string &op_type)
{
    std::call_once(g_builtin_rules_once, register_builtin_rules);
    std::lock_guard<std::mutex> lock(registry_mutex());
    return rule_registry().count(op_type) > 0;
}

ValueInfoMap
infer_shapes(const Graph &graph)
{
    std::call_once(g_builtin_rules_once, register_builtin_rules);
    graph.validate();

    ValueInfoMap infos;
    for (const ValueInfo &input : graph.inputs()) {
        ORPHEUS_CHECK(input.shape.is_fully_defined(),
                      "graph input " << input.name
                                     << " has undefined shape "
                                     << input.shape);
        infos[input.name] = input;
    }
    for (const auto &[name, tensor] : graph.initializers())
        infos[name] = ValueInfo{name, tensor.dtype(), tensor.shape()};

    for (std::size_t index : graph.topological_order()) {
        const Node &node = graph.nodes()[index];

        ShapeInferenceRule rule;
        {
            std::lock_guard<std::mutex> lock(registry_mutex());
            auto it = rule_registry().find(node.op_type());
            ORPHEUS_CHECK(it != rule_registry().end(),
                          "no shape inference rule for op "
                              << node.op_type() << " (node " << node.name()
                              << ")");
            rule = it->second;
        }

        ShapeInferenceContext ctx{node, {}, graph};
        ctx.input_infos.reserve(node.inputs().size());
        for (const std::string &in : node.inputs()) {
            if (in.empty()) {
                ctx.input_infos.push_back(ValueInfo{});
                continue;
            }
            auto it = infos.find(in);
            ORPHEUS_ASSERT(it != infos.end(),
                           "topological order produced unknown value " << in);
            ctx.input_infos.push_back(it->second);
        }

        std::vector<ValueInfo> outs = rule(ctx);
        ORPHEUS_CHECK(outs.size() == node.outputs().size(),
                      "rule for " << node.op_type() << " returned "
                                  << outs.size() << " outputs, node has "
                                  << node.outputs().size());
        for (std::size_t i = 0; i < outs.size(); ++i) {
            outs[i].name = node.outputs()[i];
            infos[outs[i].name] = outs[i];
        }
    }
    return infos;
}

} // namespace orpheus
