/** @file Randomized property tests: invariants that must hold over the
 *  whole configuration space, not just hand-picked cases. */
#include <cmath>

#include <gtest/gtest.h>

#include "graph/passes/pass.hpp"
#include "models/builder.hpp"
#include "ops/conv/conv.hpp"
#include "ops/eltwise.hpp"
#include "ops/quant/quantize.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::expect_close;

/** Property: every conv algorithm computes the same function as the
 *  direct reference on arbitrary valid configurations. */
TEST(PropertyConv, AllAlgorithmsAgreeOnRandomConfigs)
{
    Rng rng(0x99e0);
    for (int trial = 0; trial < 40; ++trial) {
        Conv2dParams p;
        p.kernel_h = rng.uniform_int(1, 5);
        p.kernel_w = rng.uniform_int(1, 5);
        p.stride_h = rng.uniform_int(1, 2);
        p.stride_w = rng.uniform_int(1, 2);
        p.pad_top = rng.uniform_int(0, 2);
        p.pad_left = rng.uniform_int(0, 2);
        p.pad_bottom = rng.uniform_int(0, 2);
        p.pad_right = rng.uniform_int(0, 2);
        p.dilation_h = rng.uniform_int(1, 2);
        p.dilation_w = rng.uniform_int(1, 2);

        const std::int64_t batch = rng.uniform_int(1, 2);
        std::int64_t in_c = rng.uniform_int(1, 12);
        std::int64_t out_c = rng.uniform_int(1, 12);
        // Group: random common divisor of in_c and out_c.
        std::vector<std::int64_t> divisors;
        for (std::int64_t g = 1; g <= std::min(in_c, out_c); ++g) {
            if (in_c % g == 0 && out_c % g == 0)
                divisors.push_back(g);
        }
        p.group = divisors[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(divisors.size()) - 1))];

        // Input large enough for the dilated kernel.
        const std::int64_t min_h =
            p.dilated_kernel_h() - p.pad_top - p.pad_bottom;
        const std::int64_t min_w =
            p.dilated_kernel_w() - p.pad_left - p.pad_right;
        const std::int64_t in_h =
            std::max<std::int64_t>(min_h, 1) + rng.uniform_int(0, 9);
        const std::int64_t in_w =
            std::max<std::int64_t>(min_w, 1) + rng.uniform_int(0, 9);

        Tensor input{Shape({batch, in_c, in_h, in_w})};
        fill_uniform(input, rng);
        Tensor weight{
            Shape({out_c, in_c / p.group, p.kernel_h, p.kernel_w})};
        fill_uniform(weight, rng);
        Tensor bias{Shape({out_c})};
        fill_uniform(bias, rng);

        const Shape out_shape(
            {batch, out_c, p.out_h(in_h), p.out_w(in_w)});
        Tensor reference(out_shape);
        conv2d(ConvAlgo::kDirect, input, weight, &bias, p,
               ActivationSpec::relu(), reference);

        SCOPED_TRACE("trial " + std::to_string(trial) + ": k=" +
                     std::to_string(p.kernel_h) + "x" +
                     std::to_string(p.kernel_w) + " s=" +
                     std::to_string(p.stride_h) + "/" +
                     std::to_string(p.stride_w) + " g=" +
                     std::to_string(p.group) + " c=" +
                     std::to_string(in_c) + "->" + std::to_string(out_c) +
                     " hw=" + std::to_string(in_h) + "x" +
                     std::to_string(in_w));

        Tensor candidate(out_shape);
        conv2d(ConvAlgo::kIm2colGemm, input, weight, &bias, p,
               ActivationSpec::relu(), candidate);
        expect_close(candidate, reference, 1e-3f, 1e-3f);

        conv2d(ConvAlgo::kSpatialPack, input, weight, &bias, p,
               ActivationSpec::relu(), candidate);
        expect_close(candidate, reference, 1e-3f, 1e-3f);

        Conv2dArgs probe;
        probe.params = p;
        probe.in_c = in_c;
        probe.out_c = out_c;
        if (conv2d_winograd_supported(probe)) {
            conv2d(ConvAlgo::kWinograd, input, weight, &bias, p,
                   ActivationSpec::relu(), candidate);
            expect_close(candidate, reference, 2e-3f, 2e-3f);
        }
        if (conv2d_is_depthwise(probe)) {
            conv2d(ConvAlgo::kDepthwiseDirect, input, weight, &bias, p,
                   ActivationSpec::relu(), candidate);
            expect_close(candidate, reference, 1e-3f, 1e-3f);
        }
    }
}

/** Property: the SIMD depthwise kernel computes the scalar depthwise
 *  kernel's function on random 3x3, dilation-1 configurations (the
 *  shapes its row-blocked path covers), under every fused activation. */
TEST(PropertyConv, DepthwiseSimdAgreesOnRandom3x3)
{
    Rng rng(0x99e2);
    const ActivationSpec activations[] = {
        ActivationSpec::none(),
        ActivationSpec::relu(),
        ActivationSpec::leaky_relu(0.1f),
        ActivationSpec::clip(-0.5f, 0.5f),
        ActivationSpec{ActivationKind::kSigmoid, 0, 0, 0},
        ActivationSpec{ActivationKind::kTanh, 0, 0, 0},
    };
    for (int trial = 0; trial < 60; ++trial) {
        Conv2dParams p;
        p.kernel_h = p.kernel_w = 3;
        p.stride_h = rng.uniform_int(1, 2);
        p.stride_w = rng.uniform_int(1, 2);
        p.pad_top = rng.uniform_int(0, 2);
        p.pad_left = rng.uniform_int(0, 2);
        p.pad_bottom = rng.uniform_int(0, 2);
        p.pad_right = rng.uniform_int(0, 2);
        const std::int64_t batch = rng.uniform_int(1, 2);
        const std::int64_t in_c = rng.uniform_int(2, 6);
        const std::int64_t out_c = in_c * rng.uniform_int(1, 2);
        p.group = in_c;
        // At least one output row and column.
        const std::int64_t in_h = std::max(rng.uniform_int(1, 40),
                                           3 - p.pad_top - p.pad_bottom);
        const std::int64_t in_w = std::max(rng.uniform_int(1, 40),
                                           3 - p.pad_left - p.pad_right);
        const ActivationSpec &activation =
            activations[rng.uniform_int(0, 5)];

        Tensor input{Shape({batch, in_c, in_h, in_w})};
        fill_uniform(input, rng);
        Tensor weight{Shape({out_c, 1, 3, 3})};
        fill_uniform(weight, rng);
        Tensor bias{Shape({out_c})};
        fill_uniform(bias, rng);

        SCOPED_TRACE("trial " + std::to_string(trial) + ": s=" +
                     std::to_string(p.stride_h) + "/" +
                     std::to_string(p.stride_w) + " c=" +
                     std::to_string(in_c) + "->" + std::to_string(out_c) +
                     " n=" + std::to_string(batch) + " hw=" +
                     std::to_string(in_h) + "x" + std::to_string(in_w) +
                     " act=" + to_string(activation.kind));

        const Shape out_shape(
            {batch, out_c, p.out_h(in_h), p.out_w(in_w)});
        Tensor reference(out_shape), candidate(out_shape);
        conv2d(ConvAlgo::kDepthwiseDirect, input, weight, &bias, p,
               activation, reference);
        conv2d(ConvAlgo::kDepthwiseSimd, input, weight, &bias, p,
               activation, candidate);
        expect_close(candidate, reference, 1e-5f, 1e-5f);
    }
}

/** Builds a random conv/pool/activation/residual network. */
Graph
random_network(Rng &rng, int trial)
{
    GraphBuilder b("random" + std::to_string(trial), rng.next_u64());
    const std::int64_t channels = rng.uniform_int(2, 6);
    std::string x =
        b.input("input", Shape({1, channels, 16, 16}));

    // Values eligible as residual partners, keyed by tracked shape.
    std::vector<std::string> history{x};
    const int layers = static_cast<int>(rng.uniform_int(3, 9));
    for (int layer = 0; layer < layers; ++layer) {
        switch (rng.uniform_int(0, 4)) {
          case 0:
            x = b.cbr(x, rng.uniform_int(2, 8), 3, 1, 1);
            break;
          case 1:
            x = b.conv_k(x, rng.uniform_int(2, 8), 1, 1, 0, 1,
                         /*bias=*/true);
            break;
          case 2:
            x = b.relu(b.batchnorm(x));
            break;
          case 3: {
            // Residual add with any earlier same-shape value.
            std::vector<std::string> candidates;
            for (const std::string &value : history) {
                if (b.shape_of(value) == b.shape_of(x) && value != x)
                    candidates.push_back(value);
            }
            if (!candidates.empty()) {
                x = b.add(x, candidates[static_cast<std::size_t>(
                                 rng.uniform_int(
                                     0, static_cast<std::int64_t>(
                                            candidates.size()) -
                                            1))]);
            } else {
                x = b.relu(x);
            }
            break;
          }
          default:
            x = b.relu(x);
            break;
        }
        history.push_back(x);
    }
    x = b.global_average_pool(x);
    x = b.flatten(x);
    x = b.dense(x, 5);
    b.output(b.softmax(x));
    return b.take();
}

/** Property: the simplification pipeline never changes results, on
 *  arbitrary generated networks. */
TEST(PropertyPasses, SimplificationPreservesSemanticsOnRandomNetworks)
{
    Rng rng(0x99e1);
    for (int trial = 0; trial < 15; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        Graph graph = random_network(rng, trial);

        EngineOptions raw_options;
        raw_options.apply_simplifications = false;
        Engine raw{Graph(graph), raw_options};
        Engine simplified{std::move(graph)};

        Tensor input{raw.graph().inputs().front().shape};
        fill_uniform(input, rng);
        expect_close(simplified.run(input), raw.run(input), 1e-3f, 1e-3f);
    }
}

/** Property: the planner-off and planner-on engines agree on random
 *  networks (arena aliasing never corrupts live data). */
TEST(PropertyPlanner, ArenaReuseNeverCorruptsRandomNetworks)
{
    Rng rng(0x99e2);
    for (int trial = 0; trial < 10; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        Graph graph = random_network(rng, 100 + trial);

        EngineOptions no_planner;
        no_planner.use_memory_planner = false;
        Engine unplanned{Graph(graph), no_planner};
        Engine planned{std::move(graph)};

        Tensor input{planned.graph().inputs().front().shape};
        fill_uniform(input, rng);
        expect_close(planned.run(input), unplanned.run(input), 1e-6f,
                     1e-6f);
    }
}

/** Property: quantization parameters always represent zero exactly and
 *  bound the round-trip error by half a scale step. */
TEST(PropertyQuant, ParamsInvariantsOverRandomRanges)
{
    Rng rng(0x99e3);
    for (int trial = 0; trial < 200; ++trial) {
        const float a = rng.uniform(-100.0f, 100.0f);
        const float b = rng.uniform(-100.0f, 100.0f);
        const float lo = std::min(a, b);
        const float hi = std::max(a, b);
        const QuantParams params = choose_uint8_params(lo, hi);

        SCOPED_TRACE("range [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
        EXPECT_GT(params.scale, 0.0f);
        EXPECT_GE(params.zero_point, 0);
        EXPECT_LE(params.zero_point, 255);
        EXPECT_NEAR(params.dequantize(params.zero_point), 0.0f,
                    params.scale * 0.5f);

        // Random values inside the (zero-widened) range round-trip
        // within half a step.
        const float wlo = std::min(lo, 0.0f), whi = std::max(hi, 0.0f);
        for (int i = 0; i < 10; ++i) {
            const float value = rng.uniform(wlo, whi);
            const std::int32_t q = std::clamp(params.quantize(value), 0,
                                              255);
            EXPECT_NEAR(params.dequantize(q), value,
                        params.scale * 0.5f + 1e-5f);
        }
    }
}

/** Property: eltwise broadcasting matches a brute-force reference on
 *  random shape pairs. */
TEST(PropertyEltwise, BroadcastMatchesBruteForce)
{
    Rng rng(0x99e4);
    for (int trial = 0; trial < 50; ++trial) {
        // Build two broadcast-compatible shapes.
        const std::size_t rank =
            static_cast<std::size_t>(rng.uniform_int(1, 4));
        std::vector<Shape::dim_type> dims_a, dims_b;
        for (std::size_t d = 0; d < rank; ++d) {
            const Shape::dim_type extent = rng.uniform_int(1, 4);
            const int mode = static_cast<int>(rng.uniform_int(0, 2));
            dims_a.push_back(mode == 1 ? 1 : extent);
            dims_b.push_back(mode == 2 ? 1 : extent);
        }
        // Possibly drop leading dims of b (rank broadcast).
        const std::size_t drop =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(rank)));
        dims_b.erase(dims_b.begin(),
                     dims_b.begin() + static_cast<std::ptrdiff_t>(drop));

        Tensor a{Shape(dims_a)};
        fill_uniform(a, rng);
        Tensor b{Shape(dims_b)};
        fill_uniform(b, rng, 0.5f, 2.0f); // Away from zero for kDiv.

        const Shape result = broadcast_result_shape(a.shape(), b.shape());
        Tensor out(result);
        eltwise(EltwiseOp::kDiv, a, b, out);

        SCOPED_TRACE("a=" + a.shape().to_string() +
                     " b=" + b.shape().to_string());

        // Brute force via coordinate arithmetic.
        std::vector<Shape::dim_type> index(result.rank(), 0);
        for (std::int64_t flat = 0; flat < result.numel(); ++flat) {
            const auto element_of = [&](const Tensor &t) {
                const std::size_t offset = result.rank() - t.shape().rank();
                std::int64_t linear = 0;
                for (std::size_t d = 0; d < t.shape().rank(); ++d) {
                    const Shape::dim_type extent =
                        t.shape().dim(static_cast<int>(d));
                    const Shape::dim_type coordinate =
                        extent == 1 ? 0 : index[offset + d];
                    linear = linear * extent + coordinate;
                }
                return t.data<float>()[linear];
            };
            ASSERT_NEAR(out.data<float>()[flat],
                        element_of(a) / element_of(b), 1e-5f)
                << "flat index " << flat;

            for (std::size_t d = result.rank(); d-- > 0;) {
                if (++index[d] < result.dim(static_cast<int>(d)))
                    break;
                index[d] = 0;
            }
        }
    }
}

} // namespace
} // namespace orpheus
