/** @file Integration tests for the inference engine. */
#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "eval/layer_bench.hpp"
#include "models/builder.hpp"
#include "models/model_zoo.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::expect_close;
using testing::make_random;

TEST(Engine, TinyCnnProducesValidDistribution)
{
    Engine engine(models::tiny_cnn());
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xe10);
    const Tensor output = engine.run(input);
    ASSERT_EQ(output.shape(), Shape({1, 10}));
    double sum = 0.0;
    for (int i = 0; i < 10; ++i) {
        EXPECT_GE(output.data<float>()[i], 0.0f);
        sum += output.data<float>()[i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Engine, RunIsDeterministic)
{
    Engine engine(models::tiny_cnn());
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xe11);
    const Tensor first = engine.run(input);
    const Tensor second = engine.run(input);
    EXPECT_EQ(max_abs_diff(first, second), 0.0f);
}

TEST(Engine, TwoEnginesOfSameModelAgree)
{
    Engine a(models::tiny_cnn());
    Engine b(models::tiny_cnn());
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xe12);
    expect_close(a.run(input), b.run(input), 1e-6f, 1e-6f);
}

TEST(Engine, MissingInputRejected)
{
    Engine engine(models::tiny_cnn());
    EXPECT_THROW(engine.run(std::map<std::string, Tensor>{}), Error);
}

TEST(Engine, WrongInputShapeRejected)
{
    Engine engine(models::tiny_cnn());
    Tensor wrong = make_random(Shape({1, 3, 9, 9}));
    EXPECT_THROW(engine.run(wrong), Error);
}

TEST(Engine, MultiOutputGraph)
{
    Graph graph("multi");
    graph.add_input("x", Shape({1, 4}));
    graph.add_node(op_names::kRelu, {"x"}, {"pos"});
    graph.add_node(op_names::kSoftmax, {"x"}, {"probs"});
    graph.add_output("pos");
    graph.add_output("probs");

    Engine engine(std::move(graph));
    Tensor input = Tensor::from_values(Shape({1, 4}), {-1, 0, 1, 2});
    const auto outputs = engine.run({{"x", input}});
    ASSERT_EQ(outputs.size(), 2u);
    EXPECT_FLOAT_EQ(outputs.at("pos").data<float>()[0], 0.0f);
    EXPECT_FLOAT_EQ(outputs.at("pos").data<float>()[3], 2.0f);
    EXPECT_GT(outputs.at("probs").data<float>()[3], 0.5f);
}

TEST(Engine, SingleTensorRunRequiresSingleIo)
{
    Graph graph("multi");
    graph.add_input("x", Shape({1, 2}));
    graph.add_input("y", Shape({1, 2}));
    graph.add_node(op_names::kAdd, {"x", "y"}, {"z"});
    graph.add_output("z");
    Engine engine(std::move(graph));
    EXPECT_THROW(engine.run(make_random(Shape({1, 2}))), Error);

    const auto outputs =
        engine.run({{"x", Tensor::from_values(Shape({1, 2}), {1, 2})},
                    {"y", Tensor::from_values(Shape({1, 2}), {10, 20})}});
    EXPECT_FLOAT_EQ(outputs.at("z").data<float>()[1], 22.0f);
}

TEST(Engine, SimplificationsReducePlanSize)
{
    EngineOptions raw;
    raw.apply_simplifications = false;
    Engine unsimplified(models::tiny_cnn(), raw);
    Engine simplified(models::tiny_cnn());
    EXPECT_LT(simplified.steps().size(), unsimplified.steps().size());
    EXPECT_TRUE(simplified.simplification_report().changed());

    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xe13);
    expect_close(simplified.run(input), unsimplified.run(input), 1e-4f,
                 1e-3f);
}

TEST(Engine, StepTimerRecordsEveryStep)
{
    Engine engine(models::tiny_cnn());
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xe14);
    (void)engine.run(input);
    (void)engine.run(input);

    const std::vector<LayerTiming> timings = layer_timings(engine);
    ASSERT_EQ(timings.size(), engine.steps().size());
    double total_ms = 0.0;
    for (const LayerTiming &timing : timings) {
        EXPECT_EQ(timing.calls, 2);
        total_ms += timing.total_ms;
    }
    EXPECT_GT(total_ms, 0.0);
    EXPECT_NE(layer_timings_to_string(timings).find("mean ms"),
              std::string::npos);
    EXPECT_EQ(layer_timings_to_csv(timings).rfind(
                  "node,op,impl,output_shape,calls,total_ms,mean_ms\n", 0),
              0u);

    // profile_layers excludes its warm-up: two repetitions on a fresh
    // engine report two calls per step, not three.
    Engine fresh(models::tiny_cnn());
    for (const LayerTiming &timing : profile_layers(fresh, 2))
        EXPECT_EQ(timing.calls, 2);
}

/** A step's timing row names the kernel that runs now: the reference
 *  after a demotion, the plan-time kernel again after a restore. */
TEST(Engine, StepTimingFollowsTheRunningKernel)
{
    Engine engine(models::tiny_cnn());
    std::size_t index = 0;
    while (index < engine.steps().size() &&
           engine.steps()[index].reference_impl.empty())
        ++index;
    ASSERT_LT(index, engine.steps().size());
    const PlanStep &step = engine.steps()[index];

    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xe16);
    (void)engine.run(input);
    (void)engine.run(input);
    engine.demote_step(index, "test demotion");
    (void)engine.run(input);
    LayerTiming row = layer_timings(engine).at(index);
    EXPECT_EQ(row.impl_name, step.reference_impl);
    EXPECT_EQ(row.calls, 3);

    engine.restore_step(index);
    row = layer_timings(engine).at(index);
    EXPECT_EQ(row.impl_name, step.selected_impl);
    EXPECT_EQ(row.calls, 3);
}

TEST(Engine, PlanSummaryListsEveryStep)
{
    Engine engine(models::tiny_mlp());
    const std::string summary = engine.plan_summary();
    EXPECT_NE(summary.find("Gemm"), std::string::npos);
    EXPECT_NE(summary.find("Softmax"), std::string::npos);
    EXPECT_NE(summary.find("#0"), std::string::npos);
}

TEST(Engine, RunStepExecutesInPlace)
{
    Engine engine(models::tiny_mlp());
    Tensor input = make_random(Shape({1, 32}), 0xe15);
    (void)engine.run(input); // Populate inputs.
    EXPECT_NO_THROW(engine.run_step(0));
    EXPECT_THROW(engine.run_step(engine.steps().size()), Error);
}

TEST(Engine, GraphOutputFedDirectlyByInput)
{
    // Degenerate but legal: the graph output IS a node output that is
    // also consumed, plus an output that comes straight from an
    // initializer.
    Graph graph("degenerate");
    graph.add_input("x", Shape({1, 2}));
    graph.add_initializer("const_out",
                          Tensor::from_values(Shape({2}), {5, 6}));
    graph.add_node(op_names::kRelu, {"x"}, {"y"});
    graph.add_output("y");
    graph.add_output("const_out");

    Engine engine(std::move(graph));
    const auto outputs =
        engine.run({{"x", Tensor::from_values(Shape({1, 2}), {-1, 3})}});
    EXPECT_FLOAT_EQ(outputs.at("y").data<float>()[1], 3.0f);
    EXPECT_FLOAT_EQ(outputs.at("const_out").data<float>()[0], 5.0f);
}

/** True when @p a and @p b have the same shape, dtype and bytes. */
bool
same_bytes(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() && a.dtype() == b.dtype() &&
           std::memcmp(a.raw_data(), b.raw_data(), a.byte_size()) == 0;
}

TEST(Engine, SingleRequestEntryPointsAgreeBytewise)
{
    // Every entry point is a batch of one over the same path, so all
    // five return the same bytes at max_batch = 1.
    Engine engine(models::tiny_cnn());
    ASSERT_EQ(engine.batch_capacity(), 1);
    const std::string in = engine.request_inputs().front().name;
    const std::string out = engine.request_outputs().front().name;
    const std::map<std::string, Tensor> request{
        {in, make_random(Shape({1, 3, 8, 8}), 0xe17)}};

    const Tensor expected = engine.run(request).at(out);
    EXPECT_TRUE(same_bytes(engine.run(request.at(in)), expected));

    std::map<std::string, Tensor> tried;
    ASSERT_TRUE(engine.try_run(request, tried).is_ok());
    EXPECT_TRUE(same_bytes(tried.at(out), expected));

    const auto batched = engine.run_batch({&request});
    ASSERT_EQ(batched.size(), 1u);
    EXPECT_TRUE(same_bytes(batched.front().at(out), expected));

    std::vector<std::map<std::string, Tensor>> tried_batch;
    ASSERT_TRUE(engine.try_run_batch({&request}, tried_batch).is_ok());
    ASSERT_EQ(tried_batch.size(), 1u);
    EXPECT_TRUE(same_bytes(tried_batch.front().at(out), expected));
}

TEST(Engine, OutputsAliasingInputsAndInitializersAtEveryCapacity)
{
    // A graph output may be a graph input or an initializer outright;
    // both come back as private copies, at capacity 1 and when fused.
    for (const int max_batch : {1, 3}) {
        Graph graph("aliases");
        graph.add_input("x", Shape({1, 2}));
        graph.add_initializer("c", Tensor::from_values(Shape({2}), {5, 6}));
        graph.add_node(op_names::kRelu, {"x"}, {"y"});
        graph.add_output("y");
        graph.add_output("x");
        graph.add_output("c");
        EngineOptions options;
        options.max_batch = max_batch;
        Engine engine(std::move(graph), options);
        ASSERT_EQ(engine.batch_capacity(), max_batch)
            << engine.batch_fallback_reason();

        const std::map<std::string, Tensor> first{
            {"x", Tensor::from_values(Shape({1, 2}), {-1, 3})}};
        const std::map<std::string, Tensor> second{
            {"x", Tensor::from_values(Shape({1, 2}), {4, -2})}};
        std::vector<const std::map<std::string, Tensor> *> requests{&first};
        if (max_batch > 1)
            requests.push_back(&second);
        const auto results = engine.run_batch(requests);
        ASSERT_EQ(results.size(), requests.size());
        for (std::size_t r = 0; r < requests.size(); ++r) {
            const Tensor &x = requests[r]->at("x");
            EXPECT_TRUE(same_bytes(results[r].at("x"), x));
            EXPECT_NE(results[r].at("x").raw_data(), x.raw_data());
            EXPECT_FLOAT_EQ(results[r].at("y").data<float>()[0],
                            std::max(0.0f, x.data<float>()[0]));
            EXPECT_EQ(results[r].at("c").shape(), Shape({2}));
            EXPECT_FLOAT_EQ(results[r].at("c").data<float>()[1], 6.0f);
        }
        EXPECT_TRUE(same_bytes(engine.run(first).at("x"), first.at("x")));
    }
}

TEST(Engine, BadRequestListsAreInvalidArgument)
{
    // Caller errors in the request list are the caller's, not an
    // internal inference failure.
    EngineOptions options;
    options.max_batch = 2;
    Engine engine(models::tiny_cnn(), options);
    ASSERT_EQ(engine.batch_capacity(), 2);
    const std::map<std::string, Tensor> request{
        {"input", make_random(Shape({1, 3, 8, 8}), 0xe18)}};

    std::vector<std::map<std::string, Tensor>> outputs;
    const std::vector<std::vector<const std::map<std::string, Tensor> *>>
        bad = {{}, {&request, nullptr}, {&request, &request, &request}};
    for (const auto &requests : bad) {
        const Status status = engine.try_run_batch(requests, outputs);
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
            << requests.size() << " requests: " << status.to_string();
        EXPECT_TRUE(outputs.empty());
        EXPECT_THROW(engine.run_batch(requests), Error);
    }
    ASSERT_TRUE(engine.try_run_batch({&request, &request}, outputs).is_ok());
    EXPECT_EQ(outputs.size(), 2u);
}

TEST(Engine, UnsupportedOpFailsAtCompileTime)
{
    Graph graph("bad");
    graph.add_input("x", Shape({1, 2}));
    graph.add_node(op_names::kIdentity, {"x"}, {"y"}); // keep type known
    graph.add_output("y");
    // Sanity: this compiles fine.
    EXPECT_NO_THROW(Engine(std::move(graph)));

    Graph graph2("bad2");
    graph2.add_input("x", Shape({1, 2}));
    graph2.add_node("TotallyUnknownOp", {"x"}, {"y"});
    graph2.add_output("y");
    EXPECT_THROW(Engine(std::move(graph2)), Error);
}

TEST(Engine, ArenaAccountingExposed)
{
    Engine engine(models::tiny_cnn());
    EXPECT_GT(engine.arena_bytes(), 0u);
    EXPECT_GE(engine.naive_arena_bytes(), engine.arena_bytes());
}

TEST(Engine, MlpThroughDensePath)
{
    Engine engine(models::tiny_mlp());
    Tensor input = make_random(Shape({1, 32}), 0xe16);
    const Tensor output = engine.run(input);
    ASSERT_EQ(output.shape(), Shape({1, 10}));
    double sum = 0.0;
    for (int i = 0; i < 10; ++i)
        sum += output.data<float>()[i];
    EXPECT_NEAR(sum, 1.0, 1e-4);
}

} // namespace
} // namespace orpheus
