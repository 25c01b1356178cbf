/** @file Parameterized correctness tests for the GEMM kernels. */
#include "ops/gemm/gemm.hpp"

#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/cpu_features.hpp"
#include "core/rng.hpp"
#include "core/threadpool.hpp"

namespace orpheus {
namespace {

std::vector<float>
random_matrix(std::int64_t rows, std::int64_t cols, Rng &rng)
{
    std::vector<float> data(static_cast<std::size_t>(rows * cols));
    for (float &value : data)
        value = rng.uniform(-1.0f, 1.0f);
    return data;
}

void
expect_matrices_close(const std::vector<float> &actual,
                      const std::vector<float> &expected, float tolerance)
{
    ASSERT_EQ(actual.size(), expected.size());
    float worst = 0.0f;
    for (std::size_t i = 0; i < actual.size(); ++i)
        worst = std::max(worst, std::abs(actual[i] - expected[i]));
    EXPECT_LE(worst, tolerance) << "max |diff| = " << worst;
}

/** (variant, M, N, K) — sweep includes degenerate and odd sizes that
 *  stress micro-kernel edge handling. */
using GemmCase = std::tuple<GemmVariant, std::int64_t, std::int64_t,
                            std::int64_t>;

class GemmVsNaive : public ::testing::TestWithParam<GemmCase>
{
};

TEST_P(GemmVsNaive, MatchesReference)
{
    const auto [variant, m, n, k] = GetParam();
    Rng rng(0x6e44 + static_cast<std::uint64_t>(m * 131 + n * 17 + k));
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);

    std::vector<float> expected(static_cast<std::size_t>(m * n), -1.0f);
    gemm_naive(m, n, k, a.data(), k, b.data(), n, expected.data(), n);

    std::vector<float> actual(static_cast<std::size_t>(m * n), -1.0f);
    gemm(variant, m, n, k, a.data(), k, b.data(), n, actual.data(), n);

    const float tolerance = 1e-4f * static_cast<float>(std::max<std::int64_t>(k, 1));
    expect_matrices_close(actual, expected, tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    SizeSweep, GemmVsNaive,
    ::testing::Combine(
        ::testing::Values(GemmVariant::kBlocked, GemmVariant::kPacked),
        ::testing::Values<std::int64_t>(1, 3, 4, 17, 64),
        ::testing::Values<std::int64_t>(1, 15, 16, 100),
        ::testing::Values<std::int64_t>(1, 8, 129)),
    [](const ::testing::TestParamInfo<GemmCase> &info) {
        return std::string(to_string(std::get<0>(info.param))) + "_m" +
               std::to_string(std::get<1>(info.param)) + "_n" +
               std::to_string(std::get<2>(info.param)) + "_k" +
               std::to_string(std::get<3>(info.param));
    });

TEST(Gemm, LeadingDimensionsRespected)
{
    // Compute into a 2x2 window of a larger 4x4 C with lda/ldb offsets.
    Rng rng(0x1d);
    const auto a = random_matrix(2, 8, rng); // lda = 8, use k = 3
    const auto b = random_matrix(8, 8, rng); // ldb = 8, use n = 2

    std::vector<float> expected(16, 0.0f), actual(16, 0.0f);
    gemm_naive(2, 2, 3, a.data(), 8, b.data(), 8, expected.data(), 4);
    gemm_packed(2, 2, 3, a.data(), 8, b.data(), 8, actual.data(), 4);
    expect_matrices_close(actual, expected, 1e-4f);
    // Untouched elements must stay zero in both.
    EXPECT_EQ(expected[2], 0.0f);
    EXPECT_EQ(actual[2], 0.0f);
}

TEST(Gemm, PackedOverwritesStaleOutput)
{
    Rng rng(0x2d);
    const auto a = random_matrix(4, 4, rng);
    const auto b = random_matrix(4, 4, rng);
    std::vector<float> expected(16), stale(16, 1e9f);
    gemm_naive(4, 4, 4, a.data(), 4, b.data(), 4, expected.data(), 4);
    gemm_packed(4, 4, 4, a.data(), 4, b.data(), 4, stale.data(), 4);
    expect_matrices_close(stale, expected, 1e-4f);
}

TEST(Gemm, PackedMatchesNaiveWithThreads)
{
    set_global_num_threads(4);
    Rng rng(0x3d);
    const std::int64_t m = 67, n = 45, k = 33;
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    std::vector<float> expected(static_cast<std::size_t>(m * n));
    std::vector<float> actual(static_cast<std::size_t>(m * n));
    gemm_naive(m, n, k, a.data(), k, b.data(), n, expected.data(), n);
    gemm_packed(m, n, k, a.data(), k, b.data(), n, actual.data(), n);
    set_global_num_threads(1);
    expect_matrices_close(actual, expected, 1e-3f);
}

TEST(GemmGeneral, TransposeA)
{
    Rng rng(0x4d);
    const std::int64_t m = 5, n = 7, k = 3;
    const auto a_t = random_matrix(k, m, rng); // stored transposed
    const auto b = random_matrix(k, n, rng);

    // Reference: transpose manually then multiply.
    std::vector<float> a(static_cast<std::size_t>(m * k));
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t p = 0; p < k; ++p)
            a[static_cast<std::size_t>(i * k + p)] =
                a_t[static_cast<std::size_t>(p * m + i)];
    }
    std::vector<float> expected(static_cast<std::size_t>(m * n));
    gemm_naive(m, n, k, a.data(), k, b.data(), n, expected.data(), n);

    std::vector<float> actual(static_cast<std::size_t>(m * n));
    gemm_general(GemmVariant::kPacked, /*trans_a=*/true, false, m, n, k,
                 1.0f, a_t.data(), m, PackedB{b.data(), n}, 0.0f,
                 actual.data(), n);
    expect_matrices_close(actual, expected, 1e-4f);
}

TEST(GemmGeneral, TransposeB)
{
    Rng rng(0x5d);
    const std::int64_t m = 4, n = 6, k = 5;
    const auto a = random_matrix(m, k, rng);
    const auto b_t = random_matrix(n, k, rng);

    std::vector<float> b(static_cast<std::size_t>(k * n));
    for (std::int64_t p = 0; p < k; ++p) {
        for (std::int64_t j = 0; j < n; ++j)
            b[static_cast<std::size_t>(p * n + j)] =
                b_t[static_cast<std::size_t>(j * k + p)];
    }
    std::vector<float> expected(static_cast<std::size_t>(m * n));
    gemm_naive(m, n, k, a.data(), k, b.data(), n, expected.data(), n);

    std::vector<float> actual(static_cast<std::size_t>(m * n));
    gemm_general(GemmVariant::kNaive, false, /*trans_b=*/true, m, n, k,
                 1.0f, a.data(), k, PackedB{b_t.data(), k}, 0.0f,
                 actual.data(), n);
    expect_matrices_close(actual, expected, 1e-4f);
}

TEST(GemmGeneral, AlphaBetaBlend)
{
    Rng rng(0x6d);
    const std::int64_t m = 3, n = 3, k = 3;
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    std::vector<float> product(static_cast<std::size_t>(m * n));
    gemm_naive(m, n, k, a.data(), k, b.data(), n, product.data(), n);

    std::vector<float> c(static_cast<std::size_t>(m * n), 2.0f);
    gemm_general(GemmVariant::kBlocked, false, false, m, n, k, 0.5f,
                 a.data(), k, PackedB{b.data(), n}, 3.0f, c.data(), n);
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_NEAR(c[i], 0.5f * product[i] + 3.0f * 2.0f, 1e-4f);
}

TEST(GemmVariantNames, ParseAndFormat)
{
    EXPECT_EQ(parse_gemm_variant("naive"), GemmVariant::kNaive);
    EXPECT_EQ(parse_gemm_variant("blocked"), GemmVariant::kBlocked);
    EXPECT_EQ(parse_gemm_variant("packed"), GemmVariant::kPacked);
    EXPECT_THROW(parse_gemm_variant("magic"), Error);
    EXPECT_STREQ(to_string(GemmVariant::kPacked), "packed");
}

// --- Plan-time panels -------------------------------------------------------

bool
bitwise_equal(const std::vector<float> &x, const std::vector<float> &y)
{
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/** Runs one (m, n, k) problem through @p variant four ways: both
 *  operands packed per call, A prepacked, B prepacked (from B and from
 *  its transpose), and both prepacked. All must agree bit for bit, and
 *  each panel set must unpack to its operand exactly. */
void
expect_prepacked_matches_per_call(GemmVariant variant, std::int64_t m,
                                  std::int64_t n, std::int64_t k)
{
    Rng rng(static_cast<std::uint64_t>(m * 1000003 + n * 1009 + k));
    const std::vector<float> a = random_matrix(m, k, rng);
    const std::vector<float> b = random_matrix(k, n, rng);
    std::vector<float> b_t(b.size());
    for (std::int64_t p = 0; p < k; ++p)
        for (std::int64_t j = 0; j < n; ++j)
            b_t[static_cast<std::size_t>(j * k + p)] =
                b[static_cast<std::size_t>(p * n + j)];

    const int mr = gemm_packed_mr(variant, m, n);
    // Panels hold exactly the operand's floats.
    std::vector<float> a_panels(a.size());
    pack_gemm_a(a.data(), k, m, k, mr, a_panels.data());
    // B panels are read with aligned vector loads: 64-byte storage.
    const std::size_t b_floats = b.size();
    const auto b_storage = Buffer::allocate(b_floats * sizeof(float));
    const auto b_t_storage = Buffer::allocate(b_floats * sizeof(float));
    float *b_panels = static_cast<float *>(b_storage->data());
    float *b_t_panels = static_cast<float *>(b_t_storage->data());
    pack_gemm_b(b.data(), n, false, k, n, b_panels);
    pack_gemm_b(b_t.data(), k, true, k, n, b_t_panels);
    EXPECT_EQ(std::memcmp(b_panels, b_t_panels, b_floats * sizeof(float)),
              0);

    std::vector<float> a_back(a.size()), b_back(b.size());
    unpack_gemm_a(a_panels.data(), m, k, mr, a_back.data());
    unpack_gemm_b(b_panels, k, n, false, b_back.data());
    EXPECT_TRUE(bitwise_equal(a_back, a));
    EXPECT_TRUE(bitwise_equal(b_back, b));

    const PackedA rows{a.data(), k};
    const PackedA panels_a{nullptr, 0, a_panels.data(), mr};
    const PackedB matrix{b.data(), n};
    const PackedB panels_b{nullptr, 0, nullptr, b_panels};
    const auto run = [&](const PackedA &lhs, const PackedB &rhs) {
        std::vector<float> c(static_cast<std::size_t>(m * n), -3.0f);
        gemm_packed_operands(variant, m, n, k, lhs, rhs, c.data(), n);
        return c;
    };
    const std::vector<float> expected = run(rows, matrix);
    EXPECT_TRUE(bitwise_equal(run(panels_a, matrix), expected));
    EXPECT_TRUE(bitwise_equal(run(rows, panels_b), expected));
    EXPECT_TRUE(bitwise_equal(run(panels_a, panels_b), expected));
}

TEST(GemmPanels, PrepackedMatchesPerCallPackingBitwise)
{
    set_global_num_threads(1);
    for (const bool simd_off : {false, true}) {
        force_disable_simd(simd_off);
        for (const GemmVariant variant :
             {GemmVariant::kPacked, GemmVariant::kPackedSimd})
            for (const std::int64_t m : {1, 2, 3, 6, 7, 12, 13})
                for (const std::int64_t n : {1, 10, 16, 17, 49, 1025})
                    for (const std::int64_t k : {1, 27, 256, 257, 600}) {
                        SCOPED_TRACE(::testing::Message()
                                     << to_string(variant) << " m=" << m
                                     << " n=" << n << " k=" << k
                                     << (simd_off ? " simd off" : ""));
                        expect_prepacked_matches_per_call(variant, m, n, k);
                    }
    }
    force_disable_simd(false);
}

TEST(GemmPanels, WeightTensorsRoundTripExactly)
{
    Rng rng(0x9a);
    // A conv weight [M, C/g, kh, kw] in two groups, and a Gemm weight in
    // both orientations.
    Tensor conv(Shape({10, 3, 3, 3}));
    for (std::int64_t i = 0; i < conv.numel(); ++i)
        conv.data<float>()[i] = rng.uniform(-1.0f, 1.0f);
    TensorLayout a_layout;
    a_layout.kind = TensorLayout::Kind::kPanelA;
    a_layout.mr = 6;
    a_layout.groups = 2;
    const Tensor a_panels = pack_weight(conv, a_layout);
    EXPECT_EQ(a_panels.layout(), a_layout);
    EXPECT_EQ(a_panels.shape(), conv.shape());
    EXPECT_EQ(a_panels.buffer()->size(), conv.byte_size());
    const Tensor a_back = unpack_weight(a_panels);
    EXPECT_FALSE(a_back.layout().packed());
    EXPECT_EQ(std::memcmp(a_back.raw_data(), conv.raw_data(),
                          conv.byte_size()),
              0);

    for (const bool transposed : {false, true}) {
        Tensor dense(transposed ? Shape({20, 7}) : Shape({7, 20}));
        for (std::int64_t i = 0; i < dense.numel(); ++i)
            dense.data<float>()[i] = rng.uniform(-1.0f, 1.0f);
        TensorLayout b_layout;
        b_layout.kind = TensorLayout::Kind::kPanelB;
        b_layout.transposed = transposed;
        const Tensor b_panels = pack_weight(dense, b_layout);
        EXPECT_EQ(b_panels.buffer()->size(), dense.byte_size());
        const Tensor b_back = unpack_weight(b_panels);
        EXPECT_EQ(std::memcmp(b_back.raw_data(), dense.raw_data(),
                              dense.byte_size()),
                  0);
        // clone() keeps the layout.
        const Tensor copy = b_panels.clone();
        EXPECT_EQ(copy.layout(), b_layout);
        EXPECT_EQ(std::memcmp(copy.raw_data(), b_panels.raw_data(),
                              b_panels.byte_size()),
                  0);
    }
}

} // namespace
} // namespace orpheus
