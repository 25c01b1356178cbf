/** @file Tests for the quantization subsystem: parameter selection,
 *  quantized kernels, calibration and whole-model PTQ. */
#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "models/builder.hpp"
#include "models/model_zoo.hpp"
#include "onnx/exporter.hpp"
#include "onnx/importer.hpp"
#include "ops/conv/conv.hpp"
#include "ops/quant/qconv.hpp"
#include "ops/quant/qgemm.hpp"
#include "ops/quant/quantize.hpp"
#include "quant/quantizer.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::make_random;

std::size_t
count_ops(const Graph &graph, const std::string &op_type)
{
    std::size_t count = 0;
    for (const Node &node : graph.nodes())
        count += node.op_type() == op_type ? 1 : 0;
    return count;
}

// --- Parameter selection -----------------------------------------------

TEST(QuantParams, Uint8CoversRangeAndRepresentsZero)
{
    const QuantParams p = choose_uint8_params(-2.0f, 6.0f);
    EXPECT_NEAR(p.scale, 8.0f / 255.0f, 1e-6f);
    // Zero must quantize exactly to the zero point.
    EXPECT_EQ(p.quantize(0.0f), p.zero_point);
    EXPECT_NEAR(p.dequantize(p.zero_point), 0.0f, 1e-7f);
    // Range endpoints land inside [0, 255].
    EXPECT_GE(p.quantize(-2.0f), 0);
    EXPECT_LE(p.quantize(6.0f), 255);
}

TEST(QuantParams, AllPositiveRangeWidenedToZero)
{
    const QuantParams p = choose_uint8_params(1.0f, 5.0f);
    EXPECT_EQ(p.zero_point, 0);
    EXPECT_NEAR(p.scale, 5.0f / 255.0f, 1e-6f);
}

TEST(QuantParams, DegenerateRangeHandled)
{
    const QuantParams p = choose_uint8_params(0.0f, 0.0f);
    EXPECT_GT(p.scale, 0.0f);
}

TEST(QuantParams, SymmetricInt8)
{
    const QuantParams p = choose_int8_symmetric_params(3.0f);
    EXPECT_EQ(p.zero_point, 0);
    EXPECT_NEAR(p.scale, 3.0f / 127.0f, 1e-6f);
}

/**
 * The closed-form symmetric int8 quantiser of MXNet's quantize test:
 * q = sign(x) * min(|x| * 127 / abs_max + 0.5, 127), truncated toward
 * zero, i.e. scale 127 / max|x|, round half away from zero and clamp to
 * +-127. Evaluated in double.
 */
std::int32_t
int8_closed_form(float x, float abs_max)
{
    const double q =
        std::min(std::fabs(static_cast<double>(x)) * 127.0 / abs_max + 0.5,
                 127.0);
    return static_cast<std::int32_t>(q) * (x < 0.0f ? -1 : 1);
}

std::vector<std::int32_t>
quantize_int8_values(const std::vector<float> &values, float abs_max)
{
    const Tensor input = Tensor::from_values(
        Shape({static_cast<std::int64_t>(values.size())}), values);
    Tensor output(input.shape(), DataType::kInt8);
    quantize_to_int8(input, choose_int8_symmetric_params(abs_max), output);
    return std::vector<std::int32_t>(
        output.data<std::int8_t>(),
        output.data<std::int8_t>() + output.numel());
}

TEST(Quantize, Int8SymmetricMatchesClosedFormOnTies)
{
    // abs_max 127 and 63.5 make the scale exactly 1 and 0.5, so these
    // values scale to exact .5 ties; values past abs_max clamp.
    const std::vector<std::pair<float, std::vector<float>>> cases = {
        {127.0f,
         {0.5f, -0.5f, 1.5f, -1.5f, 2.5f, -2.5f, 126.5f, -126.5f, 0.0f,
          -0.0f, 0.49f, -0.49f, 127.0f, -127.0f, 200.0f, -200.0f}},
        {63.5f, {0.25f, -0.25f, 0.75f, -0.75f, 1.25f, -1.25f, 63.25f,
                 -63.25f, 63.5f, -63.5f, 64.0f, -1e6f}},
    };
    for (const auto &[abs_max, values] : cases) {
        const std::vector<std::int32_t> got =
            quantize_int8_values(values, abs_max);
        for (std::size_t i = 0; i < values.size(); ++i) {
            EXPECT_EQ(got[i], int8_closed_form(values[i], abs_max))
                << "x = " << values[i] << ", abs_max = " << abs_max;
        }
    }
    EXPECT_EQ(quantize_int8_values({2.5f, -2.5f, 200.0f, -200.0f}, 127.0f),
              (std::vector<std::int32_t>{3, -3, 127, -127}));
}

TEST(Quantize, Int8SymmetricMatchesClosedFormOnRandomValues)
{
    const Tensor values = make_random(Shape({4096}), 0x9a2, -2.7f, 2.7f);
    float lo, hi;
    tensor_min_max(values, lo, hi);
    const float abs_max = std::max(std::fabs(lo), std::fabs(hi));
    const QuantParams params = choose_int8_symmetric_params(abs_max);
    EXPECT_EQ(params.zero_point, 0);
    EXPECT_EQ(params.scale, abs_max / 127.0f);

    const float *x = values.data<float>();
    const std::vector<std::int32_t> got = quantize_int8_values(
        std::vector<float>(x, x + values.numel()), abs_max);
    std::int64_t compared = 0;
    for (std::int64_t i = 0; i < values.numel(); ++i) {
        // Within float rounding of a tie the fp32 kernel may round
        // either way; everywhere else it must match the closed form.
        const double scaled = std::fabs(static_cast<double>(x[i])) *
                              127.0 / abs_max;
        if (std::fabs(scaled - std::floor(scaled) - 0.5) < 1e-4)
            continue;
        ++compared;
        EXPECT_EQ(got[static_cast<std::size_t>(i)],
                  int8_closed_form(x[i], abs_max))
            << "x = " << x[i];
    }
    EXPECT_GT(compared, 4000);
}

// --- Tensor round trips ---------------------------------------------------

TEST(Quantize, RoundTripErrorBoundedByHalfScale)
{
    Tensor values = make_random(Shape({1000}), 0x9a0, -3.0f, 3.0f);
    float lo, hi;
    tensor_min_max(values, lo, hi);
    const QuantParams params = choose_uint8_params(lo, hi);

    Tensor quantized(values.shape(), DataType::kUInt8);
    quantize_to_uint8(values, params, quantized);
    Tensor restored(values.shape());
    dequantize_to_float(quantized, params, restored);

    for (std::int64_t i = 0; i < values.numel(); ++i) {
        EXPECT_LE(std::fabs(restored.data<float>()[i] -
                            values.data<float>()[i]),
                  params.scale * 0.5f + 1e-6f)
            << "element " << i;
    }
}

TEST(Quantize, Int8SymmetricRoundTrip)
{
    Tensor values = make_random(Shape({256}), 0x9a1, -1.5f, 1.5f);
    float lo, hi;
    tensor_min_max(values, lo, hi);
    const QuantParams params = choose_int8_symmetric_params(
        std::max(std::fabs(lo), std::fabs(hi)));

    Tensor quantized(values.shape(), DataType::kInt8);
    quantize_to_int8(values, params, quantized);
    Tensor restored(values.shape());
    dequantize_to_float(quantized, params, restored);
    EXPECT_LE(max_abs_diff(restored, values), params.scale * 0.5f + 1e-6f);
}

TEST(Quantize, MinMaxHelper)
{
    Tensor t = Tensor::from_values(Shape({4}), {-2, 7, 0, 3});
    float lo, hi;
    tensor_min_max(t, lo, hi);
    EXPECT_EQ(lo, -2.0f);
    EXPECT_EQ(hi, 7.0f);
}

// --- Quantized GEMM ---------------------------------------------------------

/** Random [rows x cols] matrix of @p T drawn from [lo, hi]. */
template <typename T>
std::vector<T>
random_matrix(Rng &rng, std::int64_t rows, std::int64_t cols, int lo, int hi)
{
    std::vector<T> values(static_cast<std::size_t>(rows * cols));
    for (auto &value : values)
        value = static_cast<T>(rng.uniform_int(lo, hi));
    return values;
}

TEST(QGemm, MatchesNaiveReference)
{
    // n straddles two 32-column tiles and k is odd, so both the partial
    // tile and the unpaired last row are exercised; zero weights take
    // the skip.
    Rng rng(0x9a2);
    const std::int64_t m = 7, n = 45, k = 21;
    auto w = random_matrix<std::int8_t>(rng, m, k, -128, 127);
    const auto b = random_matrix<std::uint8_t>(rng, k, n, 0, 255);
    w[5] = 0;

    std::vector<std::int32_t> expected(static_cast<std::size_t>(m * n));
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            for (std::int64_t p = 0; p < k; ++p)
                expected[i * n + j] += w[i * k + p] * b[p * n + j];

    std::vector<std::int32_t> actual(expected.size(), -1);
    qgemm_w8a8(m, n, k, w.data(), k, QWindow::row_major(b.data(), n),
               actual.data(), n);
    EXPECT_EQ(actual, expected);
}

TEST(QGemm, AgreesWithFloatArithmetic)
{
    // Integer GEMM on quantized data must equal float GEMM on the
    // dequantized data (exactly, since both are sums of exact products),
    // once the activation zero point comes off through the weight row
    // sums as qconv2d takes it off.
    Rng rng(0x9a3);
    const std::int64_t m = 4, n = 6, k = 9;
    const QuantParams w_params{0.01f, 0};
    const QuantParams b_params{0.02f, 128};
    const auto w = random_matrix<std::int8_t>(rng, m, k, -127, 127);
    const auto b = random_matrix<std::uint8_t>(rng, k, n, 0, 255);

    std::vector<std::int32_t> acc(static_cast<std::size_t>(m * n));
    qgemm_w8a8(m, n, k, w.data(), k, QWindow::row_major(b.data(), n),
               acc.data(), n);

    for (std::int64_t i = 0; i < m; ++i) {
        std::int32_t w_sum = 0;
        for (std::int64_t p = 0; p < k; ++p)
            w_sum += w[i * k + p];
        for (std::int64_t j = 0; j < n; ++j) {
            float expected = 0.0f;
            for (std::int64_t p = 0; p < k; ++p)
                expected += w_params.dequantize(w[i * k + p]) *
                            b_params.dequantize(b[p * n + j]);
            const float actual =
                static_cast<float>(acc[i * n + j] -
                                   b_params.zero_point * w_sum) *
                w_params.scale * b_params.scale;
            EXPECT_NEAR(actual, expected, 1e-3f);
        }
    }
}

// --- Quantized convolution ---------------------------------------------------

TEST(QConv, MatchesFakeQuantFloatConv)
{
    // qconv on quantized data == float conv on dequantized data, up to
    // output requantization (half an output scale).
    Rng rng(0x9a4);
    Tensor x_f32 = make_random(Shape({1, 3, 10, 10}), 0x9a5, -1.0f, 1.0f);
    Tensor w_f32 = make_random(Shape({8, 3, 3, 3}), 0x9a6, -0.5f, 0.5f);

    const QuantParams x_params = choose_uint8_params(-1.0f, 1.0f);
    const QuantParams w_params = choose_int8_symmetric_params(0.5f);

    Tensor x_q(x_f32.shape(), DataType::kUInt8);
    quantize_to_uint8(x_f32, x_params, x_q);
    Tensor w_q(w_f32.shape(), DataType::kInt8);
    quantize_to_int8(w_f32, w_params, w_q);

    // "Fake quant" reference: float conv over the dequantized tensors.
    Tensor x_dq(x_f32.shape()), w_dq(w_f32.shape());
    dequantize_to_float(x_q, x_params, x_dq);
    dequantize_to_float(w_q, w_params, w_dq);

    Conv2dParams p;
    p.kernel_h = p.kernel_w = 3;
    p.pad_top = p.pad_left = p.pad_bottom = p.pad_right = 1;

    Tensor reference(Shape({1, 8, 10, 10}));
    conv2d(ConvAlgo::kDirect, x_dq, w_dq, nullptr, p,
           ActivationSpec::none(), reference);

    float y_min, y_max;
    tensor_min_max(reference, y_min, y_max);
    const QuantParams y_params = choose_uint8_params(y_min, y_max);

    QConv2dArgs args;
    Tensor y_q(Shape({1, 8, 10, 10}), DataType::kUInt8);
    args.input = &x_q;
    args.input_params = x_params;
    args.weight = &w_q;
    args.weight_params = w_params;
    args.output = &y_q;
    args.output_params = y_params;
    args.params = p;
    qconv2d(args);

    Tensor y_dq(reference.shape());
    dequantize_to_float(y_q, y_params, y_dq);
    EXPECT_LE(max_abs_diff(y_dq, reference), y_params.scale * 0.51f + 1e-5f);
}

TEST(QConv, FusedReluClampsAtZero)
{
    Tensor x_q(Shape({1, 1, 4, 4}), DataType::kUInt8);
    Tensor w_q(Shape({1, 1, 1, 1}), DataType::kInt8);
    *w_q.data<std::int8_t>() = -100; // Strongly negative weight.
    for (std::int64_t i = 0; i < 16; ++i)
        x_q.data<std::uint8_t>()[i] = 200;

    QConv2dArgs args;
    Tensor y_q(Shape({1, 1, 4, 4}), DataType::kUInt8);
    args.input = &x_q;
    args.input_params = {0.1f, 0};
    args.weight = &w_q;
    args.weight_params = {0.1f, 0};
    args.output = &y_q;
    args.output_params = {0.1f, 10};
    args.params = Conv2dParams{};
    args.activation = ActivationSpec::relu();
    qconv2d(args);

    // All outputs are negative pre-activation; relu clamps to y_zp.
    for (std::int64_t i = 0; i < 16; ++i)
        EXPECT_EQ(y_q.data<std::uint8_t>()[i], 10);
}

TEST(QConv, ZeroExtentKernelReadsNothing)
{
    // A 0x0 kernel reduces over nothing: every output is the requantized
    // (absent) bias, the output zero point, through either body.
    Tensor x_q(Shape({1, 2, 3, 3}), DataType::kUInt8);
    Tensor w_q(Shape({4, 2, 0, 0}), DataType::kInt8);
    QConv2dArgs args;
    args.input = &x_q;
    args.input_params = {0.1f, 3};
    args.weight = &w_q;
    args.weight_params = {0.1f, 0};
    args.output_params = {0.1f, 5};
    args.params.kernel_h = args.params.kernel_w = 0;
    Tensor y_q(Shape({1, 4, args.params.out_h(3), args.params.out_w(3)}),
               DataType::kUInt8);
    args.output = &y_q;
    for (const bool simd : {false, true}) {
        args.simd = simd;
        qconv2d(args);
        for (std::int64_t i = 0; i < y_q.numel(); ++i)
            ASSERT_EQ(y_q.data<std::uint8_t>()[i], 5) << "simd=" << simd;
    }
}

TEST(QConv, RejectsAsymmetricWeights)
{
    Tensor x_q(Shape({1, 1, 2, 2}), DataType::kUInt8);
    Tensor w_q(Shape({1, 1, 1, 1}), DataType::kInt8);
    Tensor y_q(Shape({1, 1, 2, 2}), DataType::kUInt8);
    QConv2dArgs args;
    args.input = &x_q;
    args.weight = &w_q;
    args.output = &y_q;
    args.weight_params = {0.1f, 5};
    EXPECT_THROW(qconv2d(args), Error);
}

// --- Shape inference for the quant ops --------------------------------------

TEST(QuantShapes, RulesProduceQuantizedSignatures)
{
    Graph graph("q");
    graph.add_input("x", Shape({1, 3, 8, 8}));
    graph.add_initializer("xs", Tensor::scalar(0.1f));
    Tensor zp(Shape{}, DataType::kUInt8);
    graph.add_initializer("xzp", zp.clone());
    graph.add_node(op_names::kQuantizeLinear, {"x", "xs", "xzp"}, {"xq"});
    graph.add_node(op_names::kDequantizeLinear, {"xq", "xs", "xzp"},
                   {"xf"});
    graph.add_output("xf");

    const auto infos = infer_shapes(graph);
    EXPECT_EQ(infos.at("xq").dtype, DataType::kUInt8);
    EXPECT_EQ(infos.at("xq").shape, Shape({1, 3, 8, 8}));
    EXPECT_EQ(infos.at("xf").dtype, DataType::kFloat32);
}

// --- Whole-model PTQ -----------------------------------------------------

TEST(Quantizer, TinyCnnEndToEnd)
{
    const Graph float_graph = models::tiny_cnn();

    QuantizationReport report;
    QuantizationOptions options;
    options.calibration_runs = 2;
    Graph quantized = quantize_model(Graph(float_graph), options, &report);

    EXPECT_EQ(report.quantized_convs, 2);
    EXPECT_EQ(report.skipped_convs, 0);
    EXPECT_GE(report.removed_quant_pairs, 0);
    EXPECT_EQ(count_ops(quantized, op_names::kConv), 0u);
    EXPECT_EQ(count_ops(quantized, op_names::kQLinearConv), 2u);

    // Numerics: the quantized model tracks the float model closely.
    Engine float_engine{Graph(float_graph)};
    Engine quant_engine(std::move(quantized));
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0x9a7, -1.0f, 1.0f);
    const Tensor expected = float_engine.run(input);
    const Tensor actual = quant_engine.run(input);
    EXPECT_LE(max_abs_diff(actual, expected), 0.05f)
        << "quantized class probabilities drifted too far";

    // The predicted class survives quantization.
    const auto argmax = [](const Tensor &t) {
        int best = 0;
        for (int i = 1; i < t.numel(); ++i) {
            if (t.data<float>()[i] > t.data<float>()[best])
                best = i;
        }
        return best;
    };
    EXPECT_EQ(argmax(actual), argmax(expected));
}

TEST(Quantizer, ConsecutiveConvsStayInIntegerDomain)
{
    GraphBuilder b("chain", 0x9a8);
    std::string x = b.input("input", Shape({1, 3, 12, 12}));
    x = b.conv_k(x, 8, 3, 1, 1, 1, true);
    x = b.relu(x);
    x = b.conv_k(x, 8, 3, 1, 1, 1, true);
    x = b.relu(x);
    b.output(x);

    QuantizationReport report;
    Graph quantized = quantize_model(b.take(), {}, &report);
    EXPECT_EQ(report.quantized_convs, 2);
    EXPECT_GE(report.removed_quant_pairs, 1)
        << "the DQ->Q bridge between the convs must be eliminated";
    // One Quantize at the front, one Dequantize at the back.
    EXPECT_EQ(count_ops(quantized, op_names::kQuantizeLinear), 1u);
    EXPECT_EQ(count_ops(quantized, op_names::kDequantizeLinear), 1u);
}

TEST(Quantizer, QuantizedGraphSurvivesOnnxRoundTrip)
{
    Graph quantized = quantize_model(models::tiny_cnn());
    const std::vector<std::uint8_t> bytes = export_onnx(quantized);

    Graph imported;
    ASSERT_TRUE(import_onnx(bytes, imported).is_ok());
    EXPECT_EQ(imported.nodes().size(), quantized.nodes().size());

    Engine engine_a(std::move(quantized));
    Engine engine_b(std::move(imported));
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0x9a9);
    EXPECT_EQ(max_abs_diff(engine_a.run(input), engine_b.run(input)), 0.0f);
}

TEST(Quantizer, WrnQuantizesEveryConv)
{
    QuantizationReport report;
    QuantizationOptions options;
    options.calibration_runs = 1;
    Graph quantized =
        quantize_model(models::wrn_40_2(), options, &report);
    EXPECT_GE(report.quantized_convs, 40);
    EXPECT_EQ(report.skipped_convs, 0);

    // It still runs and produces a distribution.
    Engine engine(std::move(quantized));
    const Tensor output =
        engine.run(make_random(Shape({1, 3, 32, 32}), 0x9aa));
    double sum = 0.0;
    for (int i = 0; i < 10; ++i)
        sum += output.data<float>()[i];
    EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Quantizer, PerChannelBeatsPerTensorOnSkewedFilters)
{
    // A conv whose filters differ in magnitude by 100x: a single tensor
    // scale wastes most of the int8 range on the small filters. Measure
    // the weight reconstruction error of each mode directly.
    GraphBuilder b("skew", 0x9ac);
    std::string x = b.input("input", Shape({1, 3, 10, 10}));
    x = b.conv_k(x, 8, 3, 1, 1, 1, /*bias=*/true);
    b.output(x);
    Graph graph = b.take();

    // Scale half of the filters down by 100x and keep a copy.
    Tensor original;
    for (const Node &node : graph.nodes()) {
        if (node.op_type() != op_names::kConv)
            continue;
        Tensor &weight =
            const_cast<Tensor &>(graph.initializer(node.input(1)));
        float *w = weight.data<float>();
        const std::int64_t per_filter = weight.numel() / 8;
        for (std::int64_t oc = 4; oc < 8; ++oc) {
            for (std::int64_t k = 0; k < per_filter; ++k)
                w[oc * per_filter + k] *= 0.01f;
        }
        original = weight.clone();
    }

    // Reconstructs the fp32 weights from a quantized graph and returns
    // the max error over the *small* filters (oc >= 4).
    const auto small_filter_error = [&](bool per_channel) {
        QuantizationOptions options;
        options.calibration_runs = 1;
        options.per_channel_weights = per_channel;
        Graph quantized = quantize_model(Graph(graph), options);
        for (const Node &node : quantized.nodes()) {
            if (node.op_type() != op_names::kQLinearConv)
                continue;
            const Tensor &w_q = quantized.initializer(node.input(3));
            const Tensor &scales = quantized.initializer(node.input(4));
            const std::int8_t *q = w_q.data<std::int8_t>();
            const float *s = scales.data<float>();
            const std::int64_t per_filter = w_q.numel() / 8;
            float worst = 0.0f;
            for (std::int64_t oc = 4; oc < 8; ++oc) {
                const float scale = scales.numel() == 1
                                        ? s[0]
                                        : s[oc];
                for (std::int64_t k = 0; k < per_filter; ++k) {
                    const float restored = scale * q[oc * per_filter + k];
                    worst = std::max(
                        worst,
                        std::fabs(restored -
                                  original.data<float>()[oc * per_filter +
                                                         k]));
                }
            }
            return worst;
        }
        return -1.0f;
    };

    const float per_tensor_error = small_filter_error(false);
    const float per_channel_error = small_filter_error(true);
    ASSERT_GE(per_tensor_error, 0.0f);
    ASSERT_GE(per_channel_error, 0.0f);
    EXPECT_LT(per_channel_error, per_tensor_error * 0.1f)
        << "per-channel scales must recover the small filters "
        << "(per-tensor " << per_tensor_error << ", per-channel "
        << per_channel_error << ")";
}

TEST(Quantizer, PerChannelGraphHas1dWeightScales)
{
    QuantizationOptions options;
    options.calibration_runs = 1;
    options.per_channel_weights = true;
    Graph quantized = quantize_model(models::tiny_cnn(), options);

    bool saw_vector_scale = false;
    for (const Node &node : quantized.nodes()) {
        if (node.op_type() != op_names::kQLinearConv)
            continue;
        const Tensor &w_scale = quantized.initializer(node.input(4));
        saw_vector_scale |= w_scale.shape().rank() == 1 &&
                            w_scale.numel() > 1;
    }
    EXPECT_TRUE(saw_vector_scale);
}

TEST(Calibration, TableCoversEveryFloatValue)
{
    Graph graph = models::tiny_mlp();
    simplify_graph(graph);
    const RangeTable table = calibrate_ranges(graph, 2, 0x9ab);

    EXPECT_GT(table.count("input"), 0u);
    for (const Node &node : graph.nodes()) {
        for (const std::string &out : node.outputs())
            EXPECT_GT(table.count(out), 0u) << out;
    }
    for (const auto &[name, range] : table)
        EXPECT_LE(range.first, range.second) << name;
}

} // namespace
} // namespace orpheus
