/** @file Unit + equivalence tests for the graph simplification passes. */
#include "graph/passes/pass.hpp"

#include <cmath>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "models/builder.hpp"
#include "models/model_zoo.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::expect_close;
using testing::make_random;

/** Counts nodes of @p op_type. */
std::size_t
count_ops(const Graph &graph, const std::string &op_type)
{
    std::size_t count = 0;
    for (const Node &node : graph.nodes())
        count += node.op_type() == op_type ? 1 : 0;
    return count;
}

/** Runs @p graph before/after simplification and checks equal results. */
void
expect_equivalent_after_simplification(Graph graph, float atol = 1e-4f)
{
    EngineOptions raw_options;
    raw_options.apply_simplifications = false;
    Graph raw_graph = graph; // Copy before simplification mutates it.
    Engine raw(std::move(raw_graph), raw_options);

    EngineOptions simplified_options;
    simplified_options.apply_simplifications = true;
    Engine simplified(std::move(graph), simplified_options);

    Tensor input = make_random(raw.graph().inputs().front().shape, 0xe1);
    expect_close(simplified.run(input), raw.run(input), atol, 1e-3f);
}

TEST(EliminateIdentity, RemovesIdentityChain)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 4}));
    graph.add_node(op_names::kIdentity, {"x"}, {"a"});
    graph.add_node(op_names::kIdentity, {"a"}, {"b"});
    graph.add_node(op_names::kRelu, {"b"}, {"y"});
    graph.add_output("y");

    auto pass = make_eliminate_identity_pass();
    EXPECT_TRUE(pass->run(graph));
    EXPECT_EQ(graph.nodes().size(), 1u);
    EXPECT_EQ(graph.nodes()[0].input(0), "x");
    EXPECT_NO_THROW(graph.validate());
    EXPECT_FALSE(pass->run(graph)) << "second run must be a no-op";
}

TEST(EliminateIdentity, RemovesInferenceDropout)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 4}));
    graph.add_node(op_names::kDropout, {"x"}, {"a"});
    graph.add_node(op_names::kRelu, {"a"}, {"y"});
    graph.add_output("y");

    EXPECT_TRUE(make_eliminate_identity_pass()->run(graph));
    EXPECT_EQ(count_ops(graph, op_names::kDropout), 0u);
}

TEST(EliminateIdentity, IdentityFeedingGraphOutput)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 4}));
    graph.add_node(op_names::kRelu, {"x"}, {"a"});
    graph.add_node(op_names::kIdentity, {"a"}, {"y"});
    graph.add_output("y");

    EXPECT_TRUE(make_eliminate_identity_pass()->run(graph));
    // The graph output was rewired to the relu's value.
    EXPECT_TRUE(graph.is_graph_output("a"));
    EXPECT_NO_THROW(graph.validate());
}

TEST(FoldBatchNorm, FoldsIntoConvAndPreservesNumerics)
{
    GraphBuilder b("g", 0xb1);
    std::string x = b.input("input", Shape({1, 3, 8, 8}));
    x = b.batchnorm(b.conv_k(x, 8, 3, 1, 1));
    b.output(x);
    Graph graph = b.take();

    Graph folded = graph;
    auto pass = make_fold_batchnorm_pass();
    EXPECT_TRUE(pass->run(folded));
    EXPECT_EQ(count_ops(folded, op_names::kBatchNormalization), 0u);
    // The conv gained a bias input.
    for (const Node &node : folded.nodes()) {
        if (node.op_type() == op_names::kConv)
            EXPECT_TRUE(node.has_input(2));
    }

    expect_equivalent_after_simplification(std::move(graph));
}

/** A conv+BN graph whose initializers each own their storage alone. */
Graph
conv_bn_graph(std::uint64_t seed)
{
    GraphBuilder b("g", seed);
    std::string x = b.input("input", Shape({1, 3, 8, 8}));
    b.output(b.batchnorm(b.conv_k(x, 8, 3, 1, 1)));
    return b.take();
}

/** Weight of the first Conv node in @p graph. */
const Tensor &
conv_weight(const Graph &graph)
{
    for (const Node &node : graph.nodes()) {
        if (node.op_type() == op_names::kConv)
            return graph.initializer(node.input(1));
    }
    throw Error("graph has no Conv");
}

bool
same_bytes(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() && a.dtype() == b.dtype() &&
           std::memcmp(a.raw_data(), b.raw_data(), a.byte_size()) == 0;
}

TEST(FoldBatchNorm, SoleOwnedWeightIsScaledInPlace)
{
    Graph graph = conv_bn_graph(0xf01);
    const void *imported = conv_weight(graph).raw_data();
    const Tensor original = conv_weight(graph).clone();

    // The copy shares every buffer, so folding it must clone the weight
    // and leave this graph's bytes alone.
    Graph shared = graph;
    simplify_graph(shared);
    EXPECT_NE(conv_weight(shared).raw_data(), imported);
    EXPECT_TRUE(same_bytes(conv_weight(graph), original));

    // The folded copy dropped its reference: now the weight is sole-owned.
    simplify_graph(graph);
    EXPECT_EQ(conv_weight(graph).raw_data(), imported);
    EXPECT_TRUE(same_bytes(conv_weight(graph), conv_weight(shared)))
        << "in-place and cloned folds must agree bit for bit";
}

TEST(FoldBatchNorm, NeverWritesThroughAWrappedWeight)
{
    Graph graph = conv_bn_graph(0xf02);
    const std::string name = graph.nodes().front().input(1);
    const Tensor original = graph.initializer(name).clone();
    std::vector<float> caller_memory(
        original.data<float>(), original.data<float>() + original.numel());
    graph.remove_initializer(name);
    graph.add_initializer(
        name, Tensor(original.shape(), DataType::kFloat32,
                     Buffer::wrap(caller_memory.data(),
                                  caller_memory.size() * sizeof(float))));

    Graph owned = conv_bn_graph(0xf02);
    simplify_graph(owned);
    simplify_graph(graph);
    EXPECT_NE(conv_weight(graph).raw_data(), caller_memory.data());
    EXPECT_EQ(std::memcmp(caller_memory.data(), original.raw_data(),
                          original.byte_size()),
              0);
    EXPECT_TRUE(same_bytes(conv_weight(graph), conv_weight(owned)));
}

TEST(FoldBatchNorm, WeightReadByTwoConvsIsNotScaledTwice)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 2, 6, 6}));
    graph.add_initializer("w", make_random(Shape({4, 2, 3, 3}), 0xf03));
    for (const char *branch : {"1", "2"}) {
        const std::string b = branch;
        const std::uint64_t seed = 0xf10 + static_cast<std::uint64_t>(b[0]);
        graph.add_initializer("gamma" + b, make_random(Shape({4}), seed));
        graph.add_initializer("beta" + b,
                              make_random(Shape({4}), seed + 1));
        graph.add_initializer("mean" + b,
                              make_random(Shape({4}), seed + 2));
        graph.add_initializer("var" + b,
                              make_random(Shape({4}), seed + 3, 0.5f, 2.0f));
        AttributeMap conv_attrs;
        conv_attrs.set("kernel_shape", std::vector<std::int64_t>{3, 3});
        graph.add_node(op_names::kConv, {"x", "w"}, {"c" + b},
                       std::move(conv_attrs));
        graph.add_node(op_names::kBatchNormalization,
                       {"c" + b, "gamma" + b, "beta" + b, "mean" + b,
                        "var" + b},
                       {"y" + b});
        graph.add_output("y" + b);
    }
    const Tensor original = graph.initializer("w").clone();
    const void *storage = graph.initializer("w").raw_data();

    EXPECT_TRUE(make_fold_batchnorm_pass()->run(graph));
    EXPECT_EQ(count_ops(graph, op_names::kBatchNormalization), 0u);
    for (const Node &conv : graph.nodes()) {
        const std::string b = conv.output(0).substr(1);
        const Tensor &gamma = graph.initializer("gamma" + b);
        const Tensor &var = graph.initializer("var" + b);
        Tensor expected = original.clone();
        float *e = expected.data<float>();
        for (std::int64_t o = 0; o < 4; ++o) {
            const float scale = gamma.data<float>()[o] /
                                std::sqrt(var.data<float>()[o] + 1e-5f);
            for (std::int64_t k = 0; k < 18; ++k)
                e[o * 18 + k] *= scale;
        }
        EXPECT_TRUE(same_bytes(graph.initializer(conv.input(1)), expected))
            << "branch " << b;
    }
    // The first fold cloned the shared weight; the second, by then its
    // only reader, scaled the original in place.
    EXPECT_FALSE(graph.has_initializer("w"));
    EXPECT_EQ(graph.initializer(graph.nodes()[1].input(1)).raw_data(),
              storage);
}

TEST(FoldBatchNorm, ResNet50FoldsWithoutNewWeightStorage)
{
    Graph graph = models::resnet50();
    const auto distinct_bytes = [](const Graph &g) {
        std::set<const Buffer *> seen;
        std::size_t bytes = 0;
        for (const auto &[name, tensor] : g.initializers()) {
            (void)name;
            if (seen.insert(tensor.buffer().get()).second)
                bytes += tensor.buffer()->size();
        }
        return bytes;
    };
    std::set<const void *> imported;
    for (const auto &[name, tensor] : graph.initializers()) {
        (void)name;
        imported.insert(tensor.raw_data());
    }
    const std::size_t before = distinct_bytes(graph);

    simplify_graph(graph);
    EXPECT_EQ(count_ops(graph, op_names::kBatchNormalization), 0u);
    EXPECT_LE(distinct_bytes(graph), before);
    for (const Node &node : graph.nodes()) {
        if (node.op_type() != op_names::kConv)
            continue;
        EXPECT_EQ(imported.count(graph.initializer(node.input(1)).raw_data()),
                  1u)
            << node.name() << " folded into new storage";
    }
}

TEST(FoldBatchNorm, LeavesBnWithMultipleConsumersOfConv)
{
    GraphBuilder b("g", 0xbb);
    std::string x = b.input("input", Shape({1, 3, 8, 8}));
    std::string conv = b.conv_k(x, 3, 3, 1, 1);
    std::string bn = b.batchnorm(conv);
    std::string merged = b.add(bn, conv); // conv has 2 consumers
    b.output(merged);
    Graph graph = b.take();

    EXPECT_FALSE(make_fold_batchnorm_pass()->run(graph));
    EXPECT_EQ(count_ops(graph, op_names::kBatchNormalization), 1u);
}

TEST(FoldBatchNorm, StandaloneBnUntouched)
{
    GraphBuilder b("g", 0xbc);
    std::string x = b.input("input", Shape({1, 4, 6, 6}));
    b.output(b.batchnorm(x));
    Graph graph = b.take();
    EXPECT_FALSE(make_fold_batchnorm_pass()->run(graph));
}

TEST(FuseConvActivation, FusesReluIntoConv)
{
    GraphBuilder b("g", 0xfa);
    std::string x = b.input("input", Shape({1, 3, 8, 8}));
    x = b.relu(b.conv_k(x, 8, 3, 1, 1));
    b.output(x);
    Graph graph = b.take();

    Graph fused = graph;
    EXPECT_TRUE(make_fuse_conv_activation_pass()->run(fused));
    EXPECT_EQ(count_ops(fused, op_names::kRelu), 0u);
    for (const Node &node : fused.nodes()) {
        if (node.op_type() == op_names::kConv)
            EXPECT_EQ(node.attrs().get_string("fused_activation", ""),
                      "relu");
    }

    expect_equivalent_after_simplification(std::move(graph));
}

TEST(FuseConvActivation, FusesLeakyReluWithAlpha)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 2, 6, 6}));
    graph.add_initializer("w", Tensor(Shape({4, 2, 3, 3})));
    AttributeMap conv_attrs;
    conv_attrs.set("kernel_shape", std::vector<std::int64_t>{3, 3});
    conv_attrs.set("pads", std::vector<std::int64_t>{1, 1, 1, 1});
    graph.add_node(op_names::kConv, {"x", "w"}, {"c"},
                   std::move(conv_attrs));
    AttributeMap leaky_attrs;
    leaky_attrs.set("alpha", 0.2f);
    graph.add_node(op_names::kLeakyRelu, {"c"}, {"y"},
                   std::move(leaky_attrs));
    graph.add_output("y");

    EXPECT_TRUE(make_fuse_conv_activation_pass()->run(graph));
    const Node &conv = graph.nodes()[0];
    EXPECT_EQ(conv.attrs().get_string("fused_activation", ""),
              "leaky_relu");
    EXPECT_FLOAT_EQ(conv.attrs().get_float("fused_alpha", 0), 0.2f);
}

TEST(FuseConvActivation, DoesNotFuseWhenConvHasOtherConsumers)
{
    GraphBuilder b("g", 0xfb);
    std::string x = b.input("input", Shape({1, 3, 8, 8}));
    std::string conv = b.conv_k(x, 3, 3, 1, 1);
    std::string act = b.relu(conv);
    b.output(b.add(act, conv));
    Graph graph = b.take();
    EXPECT_FALSE(make_fuse_conv_activation_pass()->run(graph));
}

TEST(FoldPad, MergesZeroPadIntoConv)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 2, 8, 8}));
    AttributeMap pad_attrs;
    pad_attrs.set("pads",
                  std::vector<std::int64_t>{0, 0, 1, 2, 0, 0, 3, 4});
    graph.add_node(op_names::kPad, {"x"}, {"p"}, std::move(pad_attrs));
    graph.add_initializer("w", Tensor(Shape({4, 2, 3, 3})));
    AttributeMap conv_attrs;
    conv_attrs.set("kernel_shape", std::vector<std::int64_t>{3, 3});
    conv_attrs.set("pads", std::vector<std::int64_t>{1, 1, 1, 1});
    graph.add_node(op_names::kConv, {"p", "w"}, {"y"},
                   std::move(conv_attrs));
    graph.add_output("y");

    EXPECT_TRUE(make_fold_pad_pass()->run(graph));
    EXPECT_EQ(count_ops(graph, op_names::kPad), 0u);
    const Node &conv = graph.nodes()[0];
    const auto pads = conv.attrs().get_ints("pads", {});
    ASSERT_EQ(pads.size(), 4u);
    EXPECT_EQ(pads[0], 2); // top: 1 + 1
    EXPECT_EQ(pads[1], 3); // left: 2 + 1
    EXPECT_EQ(pads[2], 4); // bottom: 3 + 1
    EXPECT_EQ(pads[3], 5); // right: 4 + 1
}

TEST(FoldPad, LeavesNonZeroValuePad)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 2, 8, 8}));
    AttributeMap pad_attrs;
    pad_attrs.set("pads",
                  std::vector<std::int64_t>{0, 0, 1, 1, 0, 0, 1, 1});
    pad_attrs.set("value", 1.0f);
    graph.add_node(op_names::kPad, {"x"}, {"p"}, std::move(pad_attrs));
    graph.add_initializer("w", Tensor(Shape({4, 2, 3, 3})));
    AttributeMap conv_attrs;
    conv_attrs.set("kernel_shape", std::vector<std::int64_t>{3, 3});
    graph.add_node(op_names::kConv, {"p", "w"}, {"y"},
                   std::move(conv_attrs));
    graph.add_output("y");

    EXPECT_FALSE(make_fold_pad_pass()->run(graph));
}

TEST(ConstantFolding, ConstantNodeBecomesInitializer)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 2}));
    AttributeMap attrs;
    attrs.set("value", Tensor::from_values(Shape({1, 2}), {1, 2}));
    graph.add_node(op_names::kConstant, {}, {"c"}, std::move(attrs));
    graph.add_node(op_names::kAdd, {"x", "c"}, {"y"});
    graph.add_output("y");

    EXPECT_TRUE(make_constant_folding_pass()->run(graph));
    EXPECT_EQ(count_ops(graph, op_names::kConstant), 0u);
    EXPECT_TRUE(graph.has_initializer("c"));
    EXPECT_NO_THROW(graph.validate());
}

TEST(ConstantFolding, ReshapeOfInitializerFolds)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 6}));
    graph.add_initializer("w",
                          Tensor::from_values(Shape({2, 3}),
                                              {1, 2, 3, 4, 5, 6}));
    graph.add_initializer("spec", Tensor::from_int64s({1, 6}));
    graph.add_node(op_names::kReshape, {"w", "spec"}, {"wr"});
    graph.add_node(op_names::kAdd, {"x", "wr"}, {"y"});
    graph.add_output("y");

    EXPECT_TRUE(make_constant_folding_pass()->run(graph));
    EXPECT_EQ(count_ops(graph, op_names::kReshape), 0u);
    ASSERT_TRUE(graph.has_initializer("wr"));
    EXPECT_EQ(graph.initializer("wr").shape(), Shape({1, 6}));
    EXPECT_EQ(graph.initializer("wr").data<float>()[5], 6.0f);
}

/** Reshape and Flatten of two initializers feeding one Add chain. */
Graph
reshape_flatten_graph()
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 6}));
    graph.add_initializer("w", make_random(Shape({2, 3}), 0xc1));
    graph.add_initializer("spec", Tensor::from_int64s({1, -1}));
    graph.add_initializer("v", make_random(Shape({1, 2, 3}), 0xc2));
    graph.add_node(op_names::kReshape, {"w", "spec"}, {"wr"});
    graph.add_node(op_names::kFlatten, {"v"}, {"vf"});
    graph.add_node(op_names::kAdd, {"x", "wr"}, {"a"});
    graph.add_node(op_names::kAdd, {"a", "vf"}, {"y"});
    graph.add_output("y");
    return graph;
}

TEST(ConstantFolding, SoleOwnedReshapeAndFlattenKeepTheirStorage)
{
    Graph graph = reshape_flatten_graph();
    const void *w = graph.initializer("w").raw_data();
    const void *v = graph.initializer("v").raw_data();

    EXPECT_TRUE(make_constant_folding_pass()->run(graph));
    EXPECT_EQ(graph.initializer("wr").shape(), Shape({1, 6}));
    EXPECT_EQ(graph.initializer("vf").shape(), Shape({1, 6}));
    EXPECT_EQ(graph.initializer("wr").raw_data(), w);
    EXPECT_EQ(graph.initializer("vf").raw_data(), v);
    EXPECT_FALSE(graph.has_initializer("w"));
    EXPECT_FALSE(graph.has_initializer("v"));
    EXPECT_NO_THROW(graph.validate());
}

TEST(ConstantFolding, SharedReshapeSourceIsCopied)
{
    Graph graph = reshape_flatten_graph();
    const Graph shared = graph;

    EXPECT_TRUE(make_constant_folding_pass()->run(graph));
    EXPECT_NE(graph.initializer("wr").raw_data(),
              shared.initializer("w").raw_data());
    EXPECT_NE(graph.initializer("vf").raw_data(),
              shared.initializer("v").raw_data());
    EXPECT_EQ(std::memcmp(graph.initializer("wr").raw_data(),
                          shared.initializer("w").raw_data(),
                          shared.initializer("w").byte_size()),
              0);
}

TEST(EliminateDeadNodes, RemovesUnreachableAndGcsInitializers)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 4}));
    graph.add_initializer("unused", Tensor(Shape({2})));
    graph.add_node(op_names::kRelu, {"x"}, {"y"});
    graph.add_node(op_names::kRelu, {"x"}, {"dead"});
    graph.add_output("y");

    EXPECT_TRUE(make_eliminate_dead_nodes_pass()->run(graph));
    EXPECT_EQ(graph.nodes().size(), 1u);
    EXPECT_FALSE(graph.has_initializer("unused"));
    EXPECT_NO_THROW(graph.validate());
}

TEST(PassManager, PipelineConvergesAndReports)
{
    GraphBuilder b("g", 0xcafe);
    std::string x = b.input("input", Shape({1, 3, 16, 16}));
    x = b.cbr(x, 8, 3, 1, 1);
    x = b.cbr(x, 8, 3, 1, 1);
    b.output(x);
    Graph graph = b.take();

    const std::size_t nodes_before = graph.nodes().size();
    const PassManagerReport report = simplify_graph(graph);
    EXPECT_TRUE(report.changed());
    EXPECT_GE(report.iterations, 2);
    EXPECT_LT(graph.nodes().size(), nodes_before);
    // conv+bn+relu stacks collapse to two fused convs.
    EXPECT_EQ(graph.nodes().size(), 2u);
    EXPECT_EQ(count_ops(graph, op_names::kBatchNormalization), 0u);
    EXPECT_EQ(count_ops(graph, op_names::kRelu), 0u);
}

TEST(PassManager, FullPipelinePreservesResNetStyleBlockNumerics)
{
    GraphBuilder b("g", 0x1e5);
    std::string x = b.input("input", Shape({1, 3, 16, 16}));
    std::string trunk = b.cbr(x, 8, 3, 1, 1);
    std::string path = b.cbr(trunk, 8, 3, 1, 1);
    path = b.batchnorm(b.conv_k(path, 8, 3, 1, 1));
    std::string merged = b.relu(b.add(path, trunk));
    merged = b.global_average_pool(merged);
    merged = b.flatten(merged);
    merged = b.dense(merged, 10);
    b.output(b.softmax(merged));

    expect_equivalent_after_simplification(b.take());
}

} // namespace
} // namespace orpheus
