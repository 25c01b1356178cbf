/** @file Tests for the evaluation infrastructure: statistics, the
 *  experiment runner, framework personalities and per-layer profiling. */
#include <cmath>

#include <gtest/gtest.h>

#include "eval/experiment.hpp"
#include "eval/layer_bench.hpp"
#include "eval/personalities.hpp"
#include "eval/statistics.hpp"
#include "models/model_zoo.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

TEST(Statistics, KnownValues)
{
    const RunStats stats = compute_stats({4.0, 2.0, 6.0, 8.0});
    EXPECT_EQ(stats.count, 4u);
    EXPECT_DOUBLE_EQ(stats.min, 2.0);
    EXPECT_DOUBLE_EQ(stats.max, 8.0);
    EXPECT_DOUBLE_EQ(stats.mean, 5.0);
    EXPECT_DOUBLE_EQ(stats.median, 5.0);
    EXPECT_NEAR(stats.stddev, std::sqrt(5.0), 1e-12);
}

TEST(Statistics, OddCountMedianAndEmpty)
{
    EXPECT_DOUBLE_EQ(compute_stats({3.0, 1.0, 2.0}).median, 2.0);
    const RunStats empty = compute_stats({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.mean, 0.0);
}

TEST(Statistics, GeometricMean)
{
    EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geometric_mean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_THROW(geometric_mean({}), Error);
    EXPECT_THROW(geometric_mean({1.0, 0.0}), Error);
}

TEST(Statistics, ToStringMentionsMoments)
{
    const std::string text = compute_stats({1.0, 2.0}).to_string();
    EXPECT_NE(text.find("median"), std::string::npos);
    EXPECT_NE(text.find("n=2"), std::string::npos);
}

TEST(Experiment, TimeCallableRunsExactCounts)
{
    int calls = 0;
    ExperimentConfig config;
    config.warmup_runs = 2;
    config.timed_runs = 3;
    const ExperimentResult result =
        time_callable("counter", [&] { ++calls; }, config);
    EXPECT_EQ(calls, 5);
    EXPECT_EQ(result.samples_ms.size(), 3u);
    EXPECT_EQ(result.stats.count, 3u);
    EXPECT_EQ(result.name, "counter");
}

TEST(Experiment, TimeInferenceOnTinyModel)
{
    Engine engine(models::tiny_cnn());
    ExperimentConfig config;
    config.warmup_runs = 1;
    config.timed_runs = 2;
    const ExperimentResult result = time_inference(engine, config);
    EXPECT_EQ(result.stats.count, 2u);
    EXPECT_GT(result.stats.mean, 0.0);
}

TEST(Experiment, CsvHasHeaderAndRows)
{
    ExperimentResult result;
    result.name = "model-a";
    result.samples_ms = {1.0, 2.0};
    result.stats = compute_stats(result.samples_ms);
    const std::string csv = results_to_csv({result});
    EXPECT_NE(csv.find("name,mean_ms"), std::string::npos);
    EXPECT_NE(csv.find("model-a,1.5"), std::string::npos);
}

TEST(Personalities, AllFiveConstructible)
{
    for (const char *name :
         {"orpheus", "tvm", "pytorch", "darknet", "tflite"}) {
        const FrameworkPersonality p = personality_by_name(name);
        EXPECT_FALSE(p.name.empty());
        EXPECT_FALSE(p.notes.empty());
    }
    EXPECT_THROW(personality_by_name("caffe"), Error);
}

TEST(Personalities, ConfigurationsMatchTheirFramework)
{
    const FrameworkPersonality tvm = tvm_like_personality();
    EXPECT_EQ(tvm.options.backend.forced_impl.at(op_names::kConv),
              "spatial_pack");

    const FrameworkPersonality pytorch = pytorch_like_personality();
    EXPECT_EQ(pytorch.options.backend.forced_impl.at(op_names::kConv),
              "im2col_gemm");
    EXPECT_FALSE(pytorch.options.backend.allow_depthwise_specialization);
    EXPECT_EQ(pytorch.options.backend.gemm_variant, GemmVariant::kBlocked);

    const FrameworkPersonality darknet = darknet_like_personality();
    EXPECT_EQ(darknet.options.backend.gemm_variant, GemmVariant::kNaive);

    const FrameworkPersonality orpheus = orpheus_personality();
    EXPECT_TRUE(orpheus.options.backend.forced_impl.empty());
    EXPECT_EQ(orpheus.options.backend.gemm_variant, GemmVariant::kPacked);
}

TEST(Personalities, TfliteIgnoresThreadRequest)
{
    const FrameworkPersonality tflite = tflite_like_personality();
    EXPECT_TRUE(tflite.ignores_thread_request);
    EXPECT_GE(tflite.effective_threads(1), 1);

    const FrameworkPersonality orpheus = orpheus_personality();
    EXPECT_EQ(orpheus.effective_threads(1), 1);
    EXPECT_EQ(orpheus.effective_threads(4), 4);
}

TEST(Personalities, Figure2SetIsTheComparisonSet)
{
    const auto set = figure2_personalities();
    ASSERT_EQ(set.size(), 4u);
    EXPECT_EQ(set[0].name, "Orpheus");
    EXPECT_EQ(set[1].name, "TVM-like");
    EXPECT_EQ(set[2].name, "PyTorch-like");
    EXPECT_EQ(set[3].name, "DarkNet-like");
}

TEST(LayerBench, SharesSumToOne)
{
    EngineOptions options;
    Engine engine(models::tiny_cnn(), options);
    const auto timings = profile_layers(engine, /*repetitions=*/2);
    ASSERT_EQ(timings.size(), engine.steps().size());

    double total_share = 0.0;
    for (const LayerTiming &timing : timings) {
        EXPECT_GE(timing.share, 0.0);
        total_share += timing.share;
    }
    EXPECT_NEAR(total_share, 1.0, 1e-9);

    // Sorted by share descending.
    for (std::size_t i = 1; i < timings.size(); ++i)
        EXPECT_GE(timings[i - 1].share, timings[i].share);
}

/** Both harnesses build their input from the per-request signature,
 *  not from the batch-scaled graph a batch-capable engine compiled. */
TEST(LayerBench, HarnessesRunOnBatchCapableEngine)
{
    EngineOptions options;
    options.max_batch = 4;
    Engine engine(models::tiny_cnn(), options);
    ASSERT_EQ(engine.batch_capacity(), 4);

    const auto timings = profile_layers(engine, /*repetitions=*/2);
    ASSERT_EQ(timings.size(), engine.steps().size());
    for (const LayerTiming &timing : timings)
        EXPECT_EQ(timing.calls, 2);

    ExperimentConfig config;
    config.warmup_runs = 1;
    config.timed_runs = 2;
    EXPECT_EQ(time_inference(engine, config).stats.count, 2u);
}

TEST(LayerBench, ReportsRenderable)
{
    EngineOptions options;
    Engine engine(models::tiny_mlp(), options);
    const auto timings = profile_layers(engine, 1);
    const std::string table = layer_timings_to_string(timings);
    EXPECT_NE(table.find("impl"), std::string::npos);
    const std::string csv = layer_timings_to_csv(timings);
    EXPECT_NE(csv.find("node,op,impl"), std::string::npos);
    // max_rows limits output.
    const std::string limited = layer_timings_to_string(timings, 1);
    EXPECT_LT(limited.size(), table.size());
}

} // namespace
} // namespace orpheus
