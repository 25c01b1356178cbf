/** @file Unit tests for pooling, softmax, eltwise, concat, pad,
 *  batchnorm, dense, reduce and standalone activations. */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ops/activation.hpp"
#include "ops/batchnorm.hpp"
#include "ops/concat.hpp"
#include "ops/dense.hpp"
#include "ops/eltwise.hpp"
#include "ops/pad.hpp"
#include "ops/pool.hpp"
#include "ops/reduce.hpp"
#include "ops/softmax.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::expect_close;
using testing::make_random;

// --- Pooling ---------------------------------------------------------------

TEST(MaxPool, KnownValues)
{
    Tensor input = Tensor::from_values(
        Shape({1, 1, 4, 4}),
        {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
    Pool2dParams p;
    p.kernel_h = p.kernel_w = 2;
    p.stride_h = p.stride_w = 2;
    Tensor output(Shape({1, 1, 2, 2}));
    maxpool2d(input, p, output);
    EXPECT_EQ(output.data<float>()[0], 6.0f);
    EXPECT_EQ(output.data<float>()[1], 8.0f);
    EXPECT_EQ(output.data<float>()[2], 14.0f);
    EXPECT_EQ(output.data<float>()[3], 16.0f);
}

TEST(MaxPool, PaddingNeverWins)
{
    // All-negative input with padding: zeros from padding must not leak.
    Tensor input(Shape({1, 1, 2, 2}));
    input.fill(-5.0f);
    Pool2dParams p;
    p.kernel_h = p.kernel_w = 3;
    p.stride_h = p.stride_w = 1;
    p.pad_top = p.pad_left = p.pad_bottom = p.pad_right = 1;
    Tensor output(Shape({1, 1, 2, 2}));
    maxpool2d(input, p, output);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(output.data<float>()[i], -5.0f);
}

TEST(MaxPool, InteriorMatchesBoundsCheckedWindowsBitwise)
{
    // Every output against a per-tap bounds-checked max in the same tap
    // order: the unchecked interior must give the same bits, NaN inputs
    // (ignored by std::max) included.
    struct Case {
        std::int64_t h, w, kernel, stride, pad_lo, pad_hi;
        bool ceil_mode;
    };
    const Case cases[] = {
        {112, 112, 3, 2, 1, 1, false}, // ResNet stem pool.
        {13, 11, 3, 2, 0, 0, true},
        {9, 10, 2, 2, 0, 1, false},
        {7, 7, 5, 1, 2, 2, false},
        {4, 5, 3, 3, 1, 0, true},
        {3, 3, 3, 1, 0, 0, false},
    };
    for (const Case &c : cases) {
        Pool2dParams p;
        p.kernel_h = p.kernel_w = c.kernel;
        p.stride_h = p.stride_w = c.stride;
        p.pad_top = p.pad_left = c.pad_lo;
        p.pad_bottom = p.pad_right = c.pad_hi;
        p.ceil_mode = c.ceil_mode;
        Tensor input = make_random(Shape({2, 3, c.h, c.w}), 0x9e);
        float *x = input.data<float>();
        for (std::int64_t i = 0; i < input.numel(); i += 7)
            x[i] = std::numeric_limits<float>::quiet_NaN();
        const std::int64_t out_h = p.out_h(c.h), out_w = p.out_w(c.w);
        Tensor output(Shape({2, 3, out_h, out_w}));
        maxpool2d(input, p, output);

        std::vector<float> expected;
        for (std::int64_t nc = 0; nc < 6; ++nc) {
            for (std::int64_t oh = 0; oh < out_h; ++oh) {
                for (std::int64_t ow = 0; ow < out_w; ++ow) {
                    float best = -std::numeric_limits<float>::infinity();
                    for (std::int64_t kh = 0; kh < c.kernel; ++kh) {
                        for (std::int64_t kw = 0; kw < c.kernel; ++kw) {
                            const std::int64_t ih =
                                oh * c.stride - c.pad_lo + kh;
                            const std::int64_t iw =
                                ow * c.stride - c.pad_lo + kw;
                            if (ih >= 0 && ih < c.h && iw >= 0 && iw < c.w)
                                best = std::max(
                                    best, x[(nc * c.h + ih) * c.w + iw]);
                        }
                    }
                    expected.push_back(best);
                }
            }
        }
        ASSERT_EQ(static_cast<std::int64_t>(expected.size()),
                  output.numel());
        EXPECT_EQ(std::memcmp(expected.data(), output.data<float>(),
                              expected.size() * sizeof(float)),
                  0)
            << c.h << "x" << c.w << " k" << c.kernel << " s" << c.stride;
    }
}

TEST(AvgPool, CountIncludePadSemantics)
{
    Tensor input(Shape({1, 1, 2, 2}));
    input.fill(4.0f);
    Pool2dParams p;
    p.kernel_h = p.kernel_w = 2;
    p.stride_h = p.stride_w = 2;
    p.pad_top = p.pad_left = 1;
    p.pad_bottom = p.pad_right = 1;

    // Window at (0,0) covers 1 real element with exclude-pad...
    Tensor output(Shape({1, 1, 2, 2}));
    p.count_include_pad = false;
    avgpool2d(input, p, output);
    EXPECT_FLOAT_EQ(output.data<float>()[0], 4.0f);

    // ...and divides by 4 with include-pad.
    p.count_include_pad = true;
    avgpool2d(input, p, output);
    EXPECT_FLOAT_EQ(output.data<float>()[0], 1.0f);
}

TEST(GlobalAveragePool, AveragesPlane)
{
    Tensor input = Tensor::from_values(Shape({1, 2, 2, 2}),
                                       {1, 2, 3, 4, 10, 20, 30, 40});
    Tensor output(Shape({1, 2, 1, 1}));
    global_average_pool(input, output);
    EXPECT_FLOAT_EQ(output.data<float>()[0], 2.5f);
    EXPECT_FLOAT_EQ(output.data<float>()[1], 25.0f);
}

// --- Softmax ---------------------------------------------------------------

TEST(Softmax, RowsSumToOne)
{
    Tensor input = make_random(Shape({4, 10}), 0x50, -5.0f, 5.0f);
    Tensor output(Shape({4, 10}));
    softmax(input, output, -1);
    for (int row = 0; row < 4; ++row) {
        double sum = 0.0;
        for (int col = 0; col < 10; ++col) {
            const float value = output.data<float>()[row * 10 + col];
            EXPECT_GE(value, 0.0f);
            sum += value;
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Softmax, StableUnderLargeInputs)
{
    Tensor input = Tensor::from_values(Shape({1, 3}), {1000, 1001, 1002});
    Tensor output(Shape({1, 3}));
    softmax(input, output);
    EXPECT_FALSE(std::isnan(output.data<float>()[0]));
    // exp(0)/sum, exp(1)/sum, exp(2)/sum after shift.
    EXPECT_NEAR(output.data<float>()[2], 0.66524f, 1e-4f);
}

TEST(Softmax, AxisSelection)
{
    Tensor input = Tensor::from_values(Shape({2, 2}), {0, 0, 1, 1});
    Tensor output(Shape({2, 2}));
    softmax(input, output, 0); // Columns sum to 1.
    EXPECT_NEAR(output.data<float>()[0] + output.data<float>()[2], 1.0f,
                1e-5f);
    EXPECT_NEAR(output.data<float>()[0], 1.0f / (1.0f + std::exp(1.0f)),
                1e-5f);
}

// --- Eltwise ---------------------------------------------------------------

TEST(Eltwise, SameShapeAddAndMul)
{
    Tensor a = Tensor::from_values(Shape({2, 2}), {1, 2, 3, 4});
    Tensor b = Tensor::from_values(Shape({2, 2}), {10, 20, 30, 40});
    Tensor out(Shape({2, 2}));
    eltwise(EltwiseOp::kAdd, a, b, out);
    EXPECT_EQ(out.data<float>()[3], 44.0f);
    eltwise(EltwiseOp::kMul, a, b, out);
    EXPECT_EQ(out.data<float>()[2], 90.0f);
}

TEST(Eltwise, BroadcastScalar)
{
    Tensor a = make_random(Shape({2, 3, 4}), 0x51);
    Tensor b = Tensor::scalar(2.0f);
    Tensor out(Shape({2, 3, 4}));
    eltwise(EltwiseOp::kMul, a, b, out);
    for (std::int64_t i = 0; i < a.numel(); ++i)
        EXPECT_FLOAT_EQ(out.data<float>()[i], a.data<float>()[i] * 2.0f);
}

TEST(Eltwise, BroadcastPerChannelBias)
{
    // NCHW + [1, C, 1, 1] — the classic bias broadcast.
    Tensor a = make_random(Shape({1, 3, 2, 2}), 0x52);
    Tensor b = Tensor::from_values(Shape({1, 3, 1, 1}), {10, 20, 30});
    Tensor out(Shape({1, 3, 2, 2}));
    eltwise(EltwiseOp::kAdd, a, b, out);
    for (int c = 0; c < 3; ++c) {
        for (int i = 0; i < 4; ++i) {
            EXPECT_FLOAT_EQ(out.data<float>()[c * 4 + i],
                            a.data<float>()[c * 4 + i] +
                                10.0f * static_cast<float>(c + 1));
        }
    }
}

TEST(Eltwise, BroadcastDifferentRanks)
{
    Tensor a = make_random(Shape({2, 3}), 0x53);
    Tensor b = Tensor::from_values(Shape({3}), {1, 2, 3});
    Tensor out(Shape({2, 3}));
    eltwise(EltwiseOp::kAdd, a, b, out);
    EXPECT_FLOAT_EQ(out.data<float>()[4],
                    a.data<float>()[4] + 2.0f);
}

TEST(Eltwise, IncompatibleShapesRejected)
{
    EXPECT_THROW(broadcast_result_shape(Shape({2, 3}), Shape({4})), Error);
    EXPECT_EQ(broadcast_result_shape(Shape({2, 1, 4}), Shape({3, 1})),
              Shape({2, 3, 4}));
}

// --- Concat ----------------------------------------------------------------

TEST(Concat, ChannelAxis)
{
    Tensor a = make_random(Shape({1, 2, 2, 2}), 0x54);
    Tensor b = make_random(Shape({1, 3, 2, 2}), 0x55);
    Tensor out(Shape({1, 5, 2, 2}));
    concat({&a, &b}, 1, out);
    EXPECT_FLOAT_EQ(out.data<float>()[0], a.data<float>()[0]);
    EXPECT_FLOAT_EQ(out.data<float>()[8], b.data<float>()[0]);
}

TEST(Concat, LastAxis)
{
    Tensor a = Tensor::from_values(Shape({2, 2}), {1, 2, 3, 4});
    Tensor b = Tensor::from_values(Shape({2, 1}), {9, 8});
    Tensor out(Shape({2, 3}));
    concat({&a, &b}, -1, out);
    const float expected[] = {1, 2, 9, 3, 4, 8};
    for (int i = 0; i < 6; ++i)
        EXPECT_FLOAT_EQ(out.data<float>()[i], expected[i]);
}

TEST(Concat, SingleInputIsCopy)
{
    Tensor a = make_random(Shape({2, 3}), 0x56);
    Tensor out(Shape({2, 3}));
    concat({&a}, 0, out);
    expect_close(out, a, 0, 0);
}

TEST(Concat, CoverageMismatchRejected)
{
    Tensor a = make_random(Shape({2, 2}));
    Tensor out(Shape({2, 5}));
    EXPECT_THROW(concat({&a}, 1, out), Error);
}

// --- Pad ---------------------------------------------------------------

TEST(Pad, Basic2d)
{
    Tensor input = Tensor::from_values(Shape({2, 2}), {1, 2, 3, 4});
    Tensor output(Shape({4, 5}));
    pad_constant(input, {1, 2, 1, 1}, -1.0f, output);
    // Row 0 all padding.
    for (int j = 0; j < 5; ++j)
        EXPECT_FLOAT_EQ(output.data<float>()[j], -1.0f);
    // Row 1: [-1, -1, 1, 2, -1]
    EXPECT_FLOAT_EQ(output.data<float>()[5 + 2], 1.0f);
    EXPECT_FLOAT_EQ(output.data<float>()[5 + 3], 2.0f);
    EXPECT_FLOAT_EQ(output.data<float>()[5 + 4], -1.0f);
    // Row 2: [-1, -1, 3, 4, -1]
    EXPECT_FLOAT_EQ(output.data<float>()[10 + 2], 3.0f);
}

TEST(Pad, Nchw4d)
{
    Tensor input = make_random(Shape({1, 2, 3, 3}), 0x57);
    Tensor output(Shape({1, 2, 5, 5}));
    pad_constant(input, {0, 0, 1, 1, 0, 0, 1, 1}, 0.0f, output);
    EXPECT_FLOAT_EQ(output.at(0, 0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(output.at(0, 1, 1, 1), input.at(0, 1, 0, 0));
    EXPECT_FLOAT_EQ(output.at(0, 1, 3, 3), input.at(0, 1, 2, 2));
    EXPECT_FLOAT_EQ(output.at(0, 1, 4, 4), 0.0f);
}

TEST(Pad, WrongPadCountRejected)
{
    Tensor input = make_random(Shape({2, 2}));
    Tensor output(Shape({3, 3}));
    EXPECT_THROW(pad_constant(input, {1, 0, 0}, 0.0f, output), Error);
}

// --- BatchNorm -------------------------------------------------------------

TEST(BatchNorm, MatchesManualFormula)
{
    const std::int64_t channels = 3;
    Tensor input = make_random(Shape({2, channels, 4, 4}), 0x58);
    Tensor gamma = Tensor::from_values(Shape({3}), {1.0f, 2.0f, 0.5f});
    Tensor beta = Tensor::from_values(Shape({3}), {0.0f, 1.0f, -1.0f});
    Tensor mean = Tensor::from_values(Shape({3}), {0.1f, -0.2f, 0.0f});
    Tensor var = Tensor::from_values(Shape({3}), {1.0f, 0.5f, 2.0f});
    const float eps = 1e-5f;

    Tensor output(input.shape());
    batchnorm_inference(input, gamma, beta, mean, var, eps, output);

    for (std::int64_t n = 0; n < 2; ++n) {
        for (std::int64_t c = 0; c < channels; ++c) {
            const float g = gamma.data<float>()[c];
            const float b = beta.data<float>()[c];
            const float m = mean.data<float>()[c];
            const float v = var.data<float>()[c];
            const float expected =
                g * (input.at(n, c, 1, 2) - m) / std::sqrt(v + eps) + b;
            EXPECT_NEAR(output.at(n, c, 1, 2), expected, 1e-5f);
        }
    }
}

TEST(BatchNorm, ParameterLengthChecked)
{
    Tensor input = make_random(Shape({1, 4, 2, 2}));
    Tensor short_param = make_random(Shape({3}));
    Tensor ok = make_random(Shape({4}));
    Tensor output(input.shape());
    EXPECT_THROW(batchnorm_inference(input, short_param, ok, ok, ok, 1e-5f,
                                     output),
                 Error);
}

// --- Dense -----------------------------------------------------------------

TEST(Dense, MatchesManualSmallCase)
{
    Tensor a = Tensor::from_values(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
    Tensor b = Tensor::from_values(Shape({3, 2}), {7, 8, 9, 10, 11, 12});
    Tensor out(Shape({2, 2}));
    dense(a, b, nullptr, false, false, 1.0f, 0.0f, out);
    EXPECT_FLOAT_EQ(out.data<float>()[0], 58.0f);
    EXPECT_FLOAT_EQ(out.data<float>()[1], 64.0f);
    EXPECT_FLOAT_EQ(out.data<float>()[2], 139.0f);
    EXPECT_FLOAT_EQ(out.data<float>()[3], 154.0f);
}

TEST(Dense, TransBWithBiasVector)
{
    // The FC-layer configuration: Y = X * W^T + b.
    Tensor x = make_random(Shape({2, 4}), 0x59);
    Tensor w = make_random(Shape({3, 4}), 0x5a);
    Tensor bias = Tensor::from_values(Shape({3}), {1, 2, 3});
    Tensor out(Shape({2, 3}));
    dense(x, w, &bias, false, true, 1.0f, 1.0f, out);

    for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 3; ++j) {
            float expected = bias.data<float>()[j];
            for (int k = 0; k < 4; ++k)
                expected += x.data<float>()[i * 4 + k] *
                            w.data<float>()[j * 4 + k];
            EXPECT_NEAR(out.data<float>()[i * 3 + j], expected, 1e-4f);
        }
    }
}

TEST(Dense, ScalarAndMatrixBiasBroadcast)
{
    Tensor a = Tensor::from_values(Shape({1, 2}), {1, 1});
    Tensor b = Tensor::from_values(Shape({2, 2}), {1, 0, 0, 1});
    Tensor scalar_bias = Tensor::scalar(5.0f);
    Tensor out(Shape({1, 2}));
    dense(a, b, &scalar_bias, false, false, 1.0f, 2.0f, out);
    EXPECT_FLOAT_EQ(out.data<float>()[0], 11.0f);

    Tensor row_bias = Tensor::from_values(Shape({1, 2}), {1, 2});
    dense(a, b, &row_bias, false, false, 1.0f, 1.0f, out);
    EXPECT_FLOAT_EQ(out.data<float>()[1], 3.0f);
}

TEST(Dense, InnerDimMismatchRejected)
{
    Tensor a = make_random(Shape({2, 3}));
    Tensor b = make_random(Shape({4, 2}));
    Tensor out(Shape({2, 2}));
    EXPECT_THROW(dense(a, b, nullptr, false, false, 1, 0, out), Error);
}

// --- ReduceMean -------------------------------------------------------------

TEST(ReduceMean, SpatialAxes)
{
    Tensor input = Tensor::from_values(Shape({1, 2, 2, 2}),
                                       {1, 2, 3, 4, 10, 20, 30, 40});
    Tensor output(Shape({1, 2, 1, 1}));
    reduce_mean(input, {2, 3}, output);
    EXPECT_FLOAT_EQ(output.data<float>()[0], 2.5f);
    EXPECT_FLOAT_EQ(output.data<float>()[1], 25.0f);
}

TEST(ReduceMean, NegativeAxesAndMiddleAxis)
{
    Tensor input = Tensor::from_values(Shape({2, 2, 2}),
                                       {1, 2, 3, 4, 5, 6, 7, 8});
    Tensor output(Shape({2, 2}));
    reduce_mean(input, {-2}, output);
    EXPECT_FLOAT_EQ(output.data<float>()[0], 2.0f); // mean(1, 3)
    EXPECT_FLOAT_EQ(output.data<float>()[3], 7.0f); // mean(6, 8)
}

TEST(ReduceMean, DuplicateAxisRejected)
{
    Tensor input = make_random(Shape({2, 2}));
    Tensor output(Shape({2}));
    EXPECT_THROW(reduce_mean(input, {1, -1}, output), Error);
}

// --- Activations -------------------------------------------------------------

TEST(Activation, AllKindsPointwise)
{
    EXPECT_FLOAT_EQ(ActivationSpec::relu().apply(-2.0f), 0.0f);
    EXPECT_FLOAT_EQ(ActivationSpec::relu().apply(3.0f), 3.0f);
    EXPECT_FLOAT_EQ(ActivationSpec::leaky_relu(0.1f).apply(-2.0f), -0.2f);
    EXPECT_FLOAT_EQ(ActivationSpec::clip(0.0f, 6.0f).apply(7.0f), 6.0f);
    EXPECT_FLOAT_EQ(ActivationSpec::clip(0.0f, 6.0f).apply(-1.0f), 0.0f);
    const ActivationSpec sigmoid{ActivationKind::kSigmoid, 0, 0, 0};
    EXPECT_NEAR(sigmoid.apply(0.0f), 0.5f, 1e-6f);
    const ActivationSpec tanh_spec{ActivationKind::kTanh, 0, 0, 0};
    EXPECT_NEAR(tanh_spec.apply(100.0f), 1.0f, 1e-6f);
    EXPECT_FLOAT_EQ(ActivationSpec::none().apply(-42.0f), -42.0f);
}

TEST(Activation, TensorForwardAndInplace)
{
    Tensor input = Tensor::from_values(Shape({4}), {-2, -1, 1, 2});
    Tensor output(Shape({4}));
    activation_forward(ActivationSpec::relu(), input, output);
    EXPECT_FLOAT_EQ(output.data<float>()[0], 0.0f);
    EXPECT_FLOAT_EQ(output.data<float>()[3], 2.0f);

    float data[3] = {-1.0f, 0.5f, 2.0f};
    ActivationSpec::clip(0.0f, 1.0f).apply_inplace(data, 3);
    EXPECT_FLOAT_EQ(data[0], 0.0f);
    EXPECT_FLOAT_EQ(data[1], 0.5f);
    EXPECT_FLOAT_EQ(data[2], 1.0f);
}

// --- Bulk paths vs the scalar oracle, bit for bit ---------------------------

std::uint32_t
bits(float value)
{
    std::uint32_t pattern;
    std::memcpy(&pattern, &value, sizeof(pattern));
    return pattern;
}

/** Signed zeros, NaNs, infinities, denormals and random values. */
std::vector<float>
edge_values()
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float denorm = std::numeric_limits<float>::denorm_min();
    std::vector<float> values = {0.0f,    -0.0f,   nan,    -nan,
                                 inf,     -inf,    denorm, -denorm,
                                 1e-39f,  -1e-39f, 6.0f,   -1.0f};
    const Tensor random = make_random(Shape({21}), 0x5a, -8.0f, 8.0f);
    values.insert(values.end(), random.data<float>(),
                  random.data<float>() + random.numel());
    return values;
}

/** Every window of @p length over the edge values (wrapping), so each
 *  special value lands in every vector lane and in the scalar tail. */
template <typename Check>
void
for_each_window(std::int64_t length, Check check)
{
    const std::vector<float> values = edge_values();
    for (std::size_t start = 0; start < values.size(); ++start) {
        std::vector<float> window(static_cast<std::size_t>(length));
        for (std::size_t i = 0; i < window.size(); ++i)
            window[i] = values[(start + i) % values.size()];
        check(window);
    }
}

TEST(Activation, BulkPathsMatchScalarOracleBitwise)
{
    const std::vector<ActivationSpec> specs = {
        ActivationSpec::none(),
        ActivationSpec::relu(),
        ActivationSpec::leaky_relu(0.1f),
        ActivationSpec::clip(-1.0f, 6.0f),
        {ActivationKind::kSigmoid, 0, 0, 0},
        {ActivationKind::kTanh, 0, 0, 0},
    };
    for (const ActivationSpec &spec : specs) {
        for (const std::int64_t length : {1, 7, 33}) {
            for_each_window(length, [&](const std::vector<float> &x) {
                const std::string where = std::string(to_string(spec.kind)) +
                                          " length " +
                                          std::to_string(length);

                std::vector<float> inplace = x;
                spec.apply_inplace(inplace.data(), length);

                Tensor input(Shape({length}));
                std::copy(x.begin(), x.end(), input.data<float>());
                Tensor forward(Shape({length}));
                activation_forward(spec, input, forward);

                for (std::int64_t i = 0; i < length; ++i) {
                    const std::uint32_t expected = bits(spec.apply(x[i]));
                    ASSERT_EQ(bits(inplace[i]), expected)
                        << where << " apply_inplace at " << i;
                    ASSERT_EQ(bits(forward.data<float>()[i]), expected)
                        << where << " activation_forward at " << i;
                }

                for (const float bias : {0.0f, -0.0f, 0.75f}) {
                    std::vector<float> out(x.size());
                    spec.apply_bias(x.data(), bias, out.data(), length);
                    std::vector<float> aliased = x;
                    spec.apply_bias(aliased.data(), bias, aliased.data(),
                                    length);
                    for (std::int64_t i = 0; i < length; ++i) {
                        const std::uint32_t expected =
                            bits(spec.apply(x[i] + bias));
                        ASSERT_EQ(bits(out[i]), expected)
                            << where << " apply_bias " << bias << " at "
                            << i;
                        ASSERT_EQ(bits(aliased[i]), expected)
                            << where << " in-place apply_bias " << bias
                            << " at " << i;
                    }
                }
            });
        }
    }
}

TEST(Eltwise, SameShapePathMatchesScalarBitwise)
{
    const auto scalar = [](EltwiseOp op, float x, float y) {
        switch (op) {
          case EltwiseOp::kAdd: return x + y;
          case EltwiseOp::kSub: return x - y;
          case EltwiseOp::kMul: return x * y;
          case EltwiseOp::kDiv: return x / y;
        }
        return 0.0f;
    };
    const std::vector<float> others = edge_values();
    for (const EltwiseOp op : {EltwiseOp::kAdd, EltwiseOp::kSub,
                               EltwiseOp::kMul, EltwiseOp::kDiv}) {
        for (const std::int64_t length : {1, 7, 33}) {
            for_each_window(length, [&](const std::vector<float> &x) {
                Tensor a(Shape({length})), b(Shape({length}));
                Tensor out(Shape({length}));
                for (std::int64_t i = 0; i < length; ++i) {
                    a.data<float>()[i] = x[i];
                    // A different pairing than a's window.
                    b.data<float>()[i] =
                        others[(others.size() - 1 - i) % others.size()];
                }
                eltwise(op, a, b, out);
                for (std::int64_t i = 0; i < length; ++i) {
                    const float x = a.data<float>()[i];
                    const float y = b.data<float>()[i];
                    const float got = out.data<float>()[i];
                    // With two NaN operands IEEE 754 leaves open which
                    // payload survives, and the compiler may commute +
                    // and *: only NaN-ness is defined there.
                    if (std::isnan(x) && std::isnan(y)) {
                        ASSERT_TRUE(std::isnan(got));
                        continue;
                    }
                    ASSERT_EQ(bits(got), bits(scalar(op, x, y)))
                        << "op " << static_cast<int>(op) << " length "
                        << length << " at " << i;
                }
            });
        }
    }
}

TEST(Activation, FusedAttrsRoundTrip)
{
    AttributeMap attrs;
    attrs.set("fused_activation", "leaky_relu");
    attrs.set("fused_alpha", 0.3f);
    const ActivationSpec spec = ActivationSpec::from_fused_attrs(attrs);
    EXPECT_EQ(spec.kind, ActivationKind::kLeakyRelu);
    EXPECT_FLOAT_EQ(spec.alpha, 0.3f);

    AttributeMap empty;
    EXPECT_TRUE(ActivationSpec::from_fused_attrs(empty).is_identity());

    AttributeMap bogus;
    bogus.set("fused_activation", "gelu");
    EXPECT_THROW(ActivationSpec::from_fused_attrs(bogus), Error);
}

} // namespace
} // namespace orpheus
