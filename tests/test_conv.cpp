/** @file Parameterized conv-algorithm correctness tests vs the direct
 *  reference kernel. */
#include "ops/conv/conv.hpp"

#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "ops/conv/im2col.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::expect_close;
using testing::make_random;

struct ConvCase {
    std::string label;
    std::int64_t batch, in_c, hw, out_c;
    std::int64_t kernel_h, kernel_w, stride, pad;
    std::int64_t dilation = 1;
    std::int64_t group = 1;
    bool bias = true;
};

Conv2dParams
params_of(const ConvCase &c)
{
    Conv2dParams p;
    p.kernel_h = c.kernel_h;
    p.kernel_w = c.kernel_w;
    p.stride_h = p.stride_w = c.stride;
    p.pad_top = p.pad_left = p.pad_bottom = p.pad_right = c.pad;
    p.dilation_h = p.dilation_w = c.dilation;
    p.group = c.group;
    return p;
}

/** Runs @p algo and the direct reference on the same data. */
void
run_case(const ConvCase &c, ConvAlgo algo,
         const ActivationSpec &activation = ActivationSpec::none())
{
    const Conv2dParams p = params_of(c);
    Tensor input = make_random(Shape({c.batch, c.in_c, c.hw, c.hw}), 0xc0);
    Tensor weight = make_random(
        Shape({c.out_c, c.in_c / c.group, c.kernel_h, c.kernel_w}), 0xc1);
    Tensor bias = make_random(Shape({c.out_c}), 0xc2);
    const Tensor *bias_ptr = c.bias ? &bias : nullptr;

    const Shape out_shape(
        {c.batch, c.out_c, p.out_h(c.hw), p.out_w(c.hw)});
    Tensor expected(out_shape), actual(out_shape);
    conv2d(ConvAlgo::kDirect, input, weight, bias_ptr, p, activation,
           expected);
    conv2d(algo, input, weight, bias_ptr, p, activation, actual);
    expect_close(actual, expected, 1e-3f, 1e-3f);
}

const ConvCase kCases[] = {
    {"basic3x3", 1, 4, 8, 8, 3, 3, 1, 1},
    {"stride2", 1, 4, 9, 6, 3, 3, 2, 1},
    {"nopad", 1, 3, 8, 5, 3, 3, 1, 0},
    {"kernel5", 1, 2, 12, 4, 5, 5, 1, 2},
    {"pointwise", 2, 8, 7, 16, 1, 1, 1, 0},
    {"nonsquare1x7", 1, 3, 9, 4, 1, 7, 1, 0},
    {"nonsquare7x1", 1, 3, 9, 4, 7, 1, 1, 0},
    {"grouped2", 1, 8, 8, 12, 3, 3, 1, 1, 1, 2},
    {"grouped4", 1, 8, 6, 8, 3, 3, 1, 1, 1, 4},
    {"batch3", 3, 4, 6, 5, 3, 3, 1, 1},
    {"nobias", 1, 4, 8, 8, 3, 3, 1, 1, 1, 1, false},
    {"bigpad", 1, 2, 5, 3, 3, 3, 1, 2},
};

class ConvAlgoVsDirect
    : public ::testing::TestWithParam<std::tuple<ConvCase, ConvAlgo>>
{
};

TEST_P(ConvAlgoVsDirect, Matches)
{
    const auto &[c, algo] = GetParam();
    run_case(c, algo);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvAlgoVsDirect,
    ::testing::Combine(::testing::ValuesIn(kCases),
                       ::testing::Values(ConvAlgo::kIm2colGemm,
                                         ConvAlgo::kSpatialPack)),
    [](const ::testing::TestParamInfo<std::tuple<ConvCase, ConvAlgo>>
           &info) {
        return std::get<0>(info.param).label +
               std::string("_") + to_string(std::get<1>(info.param));
    });

TEST(ConvDilated, Im2colGemmMatchesDirect)
{
    ConvCase c{"dilated", 1, 3, 10, 4, 3, 3, 1, 2, /*dilation=*/2};
    run_case(c, ConvAlgo::kIm2colGemm);
}

TEST(ConvDilated, SpatialPackMatchesDirect)
{
    ConvCase c{"dilated", 1, 3, 10, 4, 3, 3, 1, 2, /*dilation=*/2};
    run_case(c, ConvAlgo::kSpatialPack);
}

TEST(ConvFusedActivation, ReluAppliedByEveryAlgo)
{
    const ConvCase c{"fused", 1, 4, 8, 8, 3, 3, 1, 1};
    for (ConvAlgo algo : {ConvAlgo::kIm2colGemm, ConvAlgo::kSpatialPack})
        run_case(c, algo, ActivationSpec::relu());
}

TEST(ConvFusedActivation, ClipAppliedByEveryAlgo)
{
    const ConvCase c{"fusedclip", 1, 4, 8, 8, 3, 3, 1, 1};
    for (ConvAlgo algo : {ConvAlgo::kIm2colGemm, ConvAlgo::kSpatialPack})
        run_case(c, algo, ActivationSpec::clip(-0.2f, 0.3f));
}

TEST(ConvGemmVariants, AllVariantsAgree)
{
    const ConvCase c{"variants", 1, 6, 10, 8, 3, 3, 1, 1};
    const Conv2dParams p = params_of(c);
    Tensor input = make_random(Shape({1, 6, 10, 10}), 0xc3);
    Tensor weight = make_random(Shape({8, 6, 3, 3}), 0xc4);

    const Shape out_shape({1, 8, 10, 10});
    Tensor naive_out(out_shape), blocked_out(out_shape),
        packed_out(out_shape);
    conv2d(ConvAlgo::kIm2colGemm, input, weight, nullptr, p,
           ActivationSpec::none(), naive_out, GemmVariant::kNaive);
    conv2d(ConvAlgo::kIm2colGemm, input, weight, nullptr, p,
           ActivationSpec::none(), blocked_out, GemmVariant::kBlocked);
    conv2d(ConvAlgo::kIm2colGemm, input, weight, nullptr, p,
           ActivationSpec::none(), packed_out, GemmVariant::kPacked);
    expect_close(blocked_out, naive_out, 1e-3f, 1e-3f);
    expect_close(packed_out, naive_out, 1e-3f, 1e-3f);
}

// --- Window packing: the packed variants never build the column matrix ----

struct WindowCase {
    std::string label;
    std::int64_t batch, in_c, in_h, in_w, out_c;
    std::int64_t kernel_h, kernel_w, stride_h, stride_w;
    std::int64_t pad_top, pad_left, pad_bottom, pad_right;
    std::int64_t dilation = 1;
    std::int64_t group = 1;
};

void
PrintTo(const WindowCase &c, std::ostream *os)
{
    *os << c.label;
}

Conv2dParams
params_of(const WindowCase &c)
{
    Conv2dParams p;
    p.kernel_h = c.kernel_h;
    p.kernel_w = c.kernel_w;
    p.stride_h = c.stride_h;
    p.stride_w = c.stride_w;
    p.pad_top = c.pad_top;
    p.pad_left = c.pad_left;
    p.pad_bottom = c.pad_bottom;
    p.pad_right = c.pad_right;
    p.dilation_h = p.dilation_w = c.dilation;
    p.group = c.group;
    return p;
}

/** The explicit lowering: im2col() into a column matrix, then the same
 *  packed kernel on it, per (image, group). */
void
conv_via_column_matrix(const WindowCase &c, const Tensor &input,
                       const Tensor &weight, GemmVariant variant,
                       Tensor &output)
{
    const Conv2dParams p = params_of(c);
    const std::int64_t out_h = p.out_h(c.in_h), out_w = p.out_w(c.in_w);
    const std::int64_t group_in_c = c.in_c / c.group;
    const std::int64_t m = c.out_c / c.group;
    const std::int64_t k = group_in_c * c.kernel_h * c.kernel_w;
    const std::int64_t n = out_h * out_w;
    std::vector<float> col(static_cast<std::size_t>(k * n));
    for (std::int64_t b = 0; b < c.batch; ++b) {
        for (std::int64_t g = 0; g < c.group; ++g) {
            im2col(input.data<float>() +
                       (b * c.in_c + g * group_in_c) * c.in_h * c.in_w,
                   group_in_c, c.in_h, c.in_w, p, out_h, out_w, col.data());
            const float *a = weight.data<float>() + g * m * k;
            float *out = output.data<float>() + (b * c.out_c + g * m) * n;
            if (variant == GemmVariant::kPackedSimd)
                gemm_packed_simd(m, n, k, a, k, col.data(), n, out, n);
            else
                gemm_packed(m, n, k, a, k, col.data(), n, out, n);
        }
    }
}

bool
same_bits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data<float>(), b.data<float>(),
                       static_cast<std::size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

// out_c / group <= 6 runs the AVX2 body on x86, larger M the AVX-512
// one where the host has it, so both gathers are covered.
const WindowCase kWindowCases[] = {
    {"stride1", 1, 8, 10, 12, 8, 3, 3, 1, 1, 1, 1, 1, 1},
    {"stride2_asym_pads", 1, 5, 13, 11, 4, 3, 3, 2, 2, 0, 1, 2, 1},
    {"stride3_asym_pads", 1, 4, 17, 16, 12, 3, 3, 3, 3, 2, 0, 1, 2},
    {"dilation2", 1, 3, 12, 12, 7, 3, 3, 1, 1, 2, 2, 2, 2, 2},
    {"group2_batch2", 2, 8, 9, 9, 10, 3, 3, 1, 1, 1, 1, 1, 1, 1, 2},
    {"kernel1x3", 1, 6, 8, 9, 8, 1, 3, 1, 1, 0, 1, 0, 1},
    {"kernel3x1", 1, 6, 9, 8, 5, 3, 1, 1, 1, 1, 0, 1, 0},
    {"kernel5x5", 1, 4, 14, 14, 9, 5, 5, 1, 1, 2, 2, 2, 2},
    {"kernel7x7_stride2", 1, 3, 40, 40, 16, 7, 7, 2, 2, 3, 3, 3, 3},
    {"kernel11x11_stride4", 1, 3, 35, 35, 8, 11, 11, 4, 4, 2, 2, 2, 2},
    {"pointwise_stride2", 1, 16, 9, 9, 12, 1, 1, 2, 2, 0, 0, 0, 0},
    // N = 1369: two column blocks, the second ragged.
    {"n_over_1024", 1, 2, 37, 37, 7, 3, 3, 1, 1, 1, 1, 1, 1},
    // K = 360 and 392: the second K block starts mid-tap (256 % 9 = 4,
    // 256 % 49 = 11).
    {"k_over_256_3x3", 1, 40, 7, 7, 13, 3, 3, 1, 1, 1, 1, 1, 1},
    {"k_over_256_7x7", 1, 8, 10, 10, 9, 7, 7, 1, 1, 3, 3, 3, 3},
};

class ConvWindowPacking
    : public ::testing::TestWithParam<std::tuple<WindowCase, GemmVariant>>
{
};

TEST_P(ConvWindowPacking, MatchesExplicitIm2colBitwise)
{
    const auto &[c, variant] = GetParam();
    const Conv2dParams p = params_of(c);
    const Tensor input =
        make_random(Shape({c.batch, c.in_c, c.in_h, c.in_w}), 0xd1);
    const Tensor weight = make_random(
        Shape({c.out_c, c.in_c / c.group, c.kernel_h, c.kernel_w}), 0xd2);
    const Shape out_shape(
        {c.batch, c.out_c, p.out_h(c.in_h), p.out_w(c.in_w)});

    Tensor expected(out_shape);
    conv_via_column_matrix(c, input, weight, variant, expected);

    Tensor unprepared(out_shape);
    conv2d(ConvAlgo::kIm2colGemm, input, weight, nullptr, p,
           ActivationSpec::none(), unprepared, variant);
    EXPECT_TRUE(same_bits(unprepared, expected));

    // Prepared: the packed-B block comes from caller scratch (poisoned,
    // so a panel slot the packer skips would show) and no column matrix
    // is offered.
    Conv2dArgs shape_args;
    shape_args.in_c = c.in_c;
    shape_args.out_h = out_shape.dim(2);
    shape_args.out_w = out_shape.dim(3);
    shape_args.params = p;
    shape_args.gemm_variant = variant;
    EXPECT_EQ(conv2d_im2col_col_floats(shape_args), 0u);
    Tensor b_pack(Shape({static_cast<std::int64_t>(
        gemm_packed_b_pack_floats())}));
    std::fill_n(b_pack.data<float>(), b_pack.numel(),
                std::numeric_limits<float>::quiet_NaN());
    Conv2dScratch scratch;
    scratch.gemm.b_pack = b_pack.data<float>();
    Tensor prepared(out_shape);
    conv2d(ConvAlgo::kIm2colGemm, input, weight, nullptr, p,
           ActivationSpec::none(), prepared, variant, &scratch);
    EXPECT_TRUE(same_bits(prepared, expected));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvWindowPacking,
    ::testing::Combine(::testing::ValuesIn(kWindowCases),
                       ::testing::Values(GemmVariant::kPacked,
                                         GemmVariant::kPackedSimd)),
    [](const ::testing::TestParamInfo<std::tuple<WindowCase, GemmVariant>>
           &info) {
        return std::get<0>(info.param).label +
               (std::get<1>(info.param) == GemmVariant::kPackedSimd
                    ? "_packed_simd"
                    : "_packed");
    });

TEST(ConvWindowPacking, UnpackedVariantsStillLowerIntoColumns)
{
    Conv2dArgs args;
    args.in_c = 4;
    args.out_h = args.out_w = 6;
    args.params.kernel_h = args.params.kernel_w = 3;
    args.gemm_variant = GemmVariant::kBlocked;
    EXPECT_EQ(conv2d_im2col_col_floats(args), 4u * 9 * 36);
    args.gemm_variant = GemmVariant::kPackedSimd;
    EXPECT_EQ(conv2d_im2col_col_floats(args), 0u);
}

TEST(Conv, ShapeValidationErrors)
{
    Tensor input = make_random(Shape({1, 4, 8, 8}));
    Tensor weight = make_random(Shape({8, 4, 3, 3}));
    Conv2dParams p;
    p.kernel_h = p.kernel_w = 3;
    p.pad_top = p.pad_left = p.pad_bottom = p.pad_right = 1;

    Tensor wrong_output(Shape({1, 8, 7, 7}));
    EXPECT_THROW(conv2d(ConvAlgo::kDirect, input, weight, nullptr, p,
                        ActivationSpec::none(), wrong_output),
                 Error);

    Tensor weight_mismatch = make_random(Shape({8, 3, 3, 3}));
    Tensor output(Shape({1, 8, 8, 8}));
    EXPECT_THROW(conv2d(ConvAlgo::kDirect, input, weight_mismatch, nullptr,
                        p, ActivationSpec::none(), output),
                 Error);
}

TEST(ConvAlgoNames, ParseAndFormat)
{
    EXPECT_EQ(parse_conv_algo("direct"), ConvAlgo::kDirect);
    EXPECT_EQ(parse_conv_algo("im2col_gemm"), ConvAlgo::kIm2colGemm);
    EXPECT_EQ(parse_conv_algo("spatial_pack"), ConvAlgo::kSpatialPack);
    EXPECT_EQ(parse_conv_algo("winograd"), ConvAlgo::kWinograd);
    EXPECT_EQ(parse_conv_algo("depthwise_direct"),
              ConvAlgo::kDepthwiseDirect);
    EXPECT_THROW(parse_conv_algo("fft"), Error);
    EXPECT_STREQ(to_string(ConvAlgo::kSpatialPack), "spatial_pack");
}

} // namespace
} // namespace orpheus
