/** @file Unit tests for the Graph IR. */
#include "graph/graph.hpp"

#include <gtest/gtest.h>

namespace orpheus {
namespace {

Graph
linear_graph()
{
    Graph graph("linear");
    graph.add_input("x", Shape({1, 4}));
    graph.add_node(op_names::kRelu, {"x"}, {"a"});
    graph.add_node(op_names::kRelu, {"a"}, {"b"});
    graph.add_output("b", Shape({1, 4}));
    return graph;
}

TEST(Graph, BasicConstruction)
{
    Graph graph = linear_graph();
    EXPECT_EQ(graph.inputs().size(), 1u);
    EXPECT_EQ(graph.outputs().size(), 1u);
    EXPECT_EQ(graph.nodes().size(), 2u);
    EXPECT_NO_THROW(graph.validate());
    EXPECT_TRUE(graph.is_graph_input("x"));
    EXPECT_FALSE(graph.is_graph_input("a"));
    EXPECT_TRUE(graph.is_graph_output("b"));
}

TEST(Graph, AutoNamesAreUnique)
{
    Graph graph("g");
    graph.add_input("x", Shape({1}));
    Node &n1 = graph.add_node(op_names::kRelu, {"x"}, {"a"});
    const std::string name1 = n1.name();
    Node &n2 = graph.add_node(op_names::kRelu, {"a"}, {"b"});
    EXPECT_NE(name1, n2.name());
}

TEST(Graph, DuplicateNamesRejected)
{
    Graph graph("g");
    graph.add_input("x", Shape({1}));
    EXPECT_THROW(graph.add_input("x", Shape({2})), Error);
    graph.add_initializer("w", Tensor(Shape({1})));
    EXPECT_THROW(graph.add_initializer("w", Tensor(Shape({1}))), Error);
    graph.add_output("y");
    EXPECT_THROW(graph.add_output("y"), Error);
}

TEST(Graph, InitializerAccess)
{
    Graph graph("g");
    graph.add_initializer("w", Tensor::from_values(Shape({2}), {1, 2}));
    EXPECT_TRUE(graph.has_initializer("w"));
    EXPECT_EQ(graph.initializer("w").numel(), 2);
    EXPECT_THROW(graph.initializer("v"), Error);
    graph.remove_initializer("w");
    EXPECT_FALSE(graph.has_initializer("w"));
}

TEST(Graph, TakeWritableInitializerCopiesWhatOthersCanSee)
{
    Graph graph("g");
    graph.add_input("x", Shape({2}));
    graph.add_initializer("sole", Tensor::from_values(Shape({2}), {1, 2}));
    graph.add_initializer("twice", Tensor::from_values(Shape({2}), {3, 4}));
    graph.add_initializer("out", Tensor::from_values(Shape({2}), {5, 6}));
    graph.add_node(op_names::kAdd, {"x", "sole"}, {"a"});
    graph.add_node(op_names::kAdd, {"a", "twice"}, {"b"});
    graph.add_node(op_names::kAdd, {"b", "twice"}, {"c"});
    graph.add_node(op_names::kAdd, {"c", "out"}, {"y"});
    graph.add_output("y");
    graph.add_output("out");

    // One reader, one owner: the stored tensor itself, taken out.
    const void *sole = graph.initializer("sole").raw_data();
    EXPECT_EQ(graph.take_writable_initializer("sole").raw_data(), sole);
    EXPECT_FALSE(graph.has_initializer("sole"));

    // Two readers, or a graph output: a copy, and the name stays.
    for (const char *name : {"twice", "out"}) {
        const void *stored = graph.initializer(name).raw_data();
        Tensor taken = graph.take_writable_initializer(name);
        EXPECT_NE(taken.raw_data(), stored) << name;
        taken.fill(0.0f);
        ASSERT_TRUE(graph.has_initializer(name)) << name;
        EXPECT_NE(graph.initializer(name).data<float>()[0], 0.0f) << name;
    }
    EXPECT_THROW(graph.take_writable_initializer("missing"), Error);
}

TEST(Graph, ProducerAndConsumers)
{
    Graph graph = linear_graph();
    auto producer_a = graph.producer("a");
    ASSERT_TRUE(producer_a.has_value());
    EXPECT_EQ(*producer_a, 0u);
    EXPECT_FALSE(graph.producer("x").has_value());

    const auto consumers_a = graph.consumers("a");
    ASSERT_EQ(consumers_a.size(), 1u);
    EXPECT_EQ(consumers_a[0], 1u);
    EXPECT_TRUE(graph.consumers("b").empty());
}

TEST(Graph, TopologicalOrderOnDiamond)
{
    // x -> a; a -> l, a -> r; (l, r) -> out. Insert in scrambled order.
    Graph graph("diamond");
    graph.add_input("x", Shape({1}));
    graph.add_node(op_names::kAdd, {"l", "r"}, {"out"}, {}, "join");
    graph.add_node(op_names::kRelu, {"a"}, {"l"}, {}, "left");
    graph.add_node(op_names::kRelu, {"x"}, {"a"}, {}, "head");
    graph.add_node(op_names::kRelu, {"a"}, {"r"}, {}, "right");
    graph.add_output("out");

    const auto order = graph.topological_order();
    ASSERT_EQ(order.size(), 4u);
    std::vector<std::size_t> position(4);
    for (std::size_t i = 0; i < order.size(); ++i)
        position[order[i]] = i;
    // head(2) before left(1)/right(3), both before join(0).
    EXPECT_LT(position[2], position[1]);
    EXPECT_LT(position[2], position[3]);
    EXPECT_LT(position[1], position[0]);
    EXPECT_LT(position[3], position[0]);
}

TEST(Graph, CycleDetected)
{
    Graph graph("cycle");
    graph.add_input("x", Shape({1}));
    graph.add_node(op_names::kAdd, {"x", "b"}, {"a"});
    graph.add_node(op_names::kRelu, {"a"}, {"b"});
    graph.add_output("b");
    EXPECT_THROW(graph.topological_order(), Error);
    EXPECT_THROW(graph.validate(), Error);
}

TEST(Graph, ValidateCatchesUndefinedInput)
{
    Graph graph("bad");
    graph.add_input("x", Shape({1}));
    graph.add_node(op_names::kRelu, {"ghost"}, {"y"});
    graph.add_output("y");
    EXPECT_THROW(graph.validate(), Error);
}

TEST(Graph, ValidateCatchesDoubleProduction)
{
    Graph graph("bad");
    graph.add_input("x", Shape({1}));
    graph.add_node(op_names::kRelu, {"x"}, {"y"});
    graph.add_node(op_names::kRelu, {"x"}, {"y"});
    graph.add_output("y");
    EXPECT_THROW(graph.validate(), Error);
}

TEST(Graph, ValidateCatchesMissingOutput)
{
    Graph graph("bad");
    graph.add_input("x", Shape({1}));
    graph.add_node(op_names::kRelu, {"x"}, {"y"});
    graph.add_output("z");
    EXPECT_THROW(graph.validate(), Error);
}

TEST(Graph, ValidateAllowsOptionalEmptyInput)
{
    Graph graph("optional");
    graph.add_input("x", Shape({1, 1, 4, 4}));
    graph.add_initializer("w", Tensor(Shape({1, 1, 3, 3})));
    AttributeMap attrs;
    attrs.set("kernel_shape", std::vector<std::int64_t>{3, 3});
    // Conv with explicit inputs (x, w) and no bias entry at all.
    graph.add_node(op_names::kConv, {"x", "w"}, {"y"}, std::move(attrs));
    graph.add_output("y");
    EXPECT_NO_THROW(graph.validate());
}

TEST(Graph, ReplaceAllUsesRewritesInputsAndOutputs)
{
    Graph graph = linear_graph();
    graph.replace_all_uses("a", "x");
    EXPECT_EQ(graph.nodes()[1].input(0), "x");
    graph.replace_all_uses("b", "a");
    EXPECT_TRUE(graph.is_graph_output("a"));
}

TEST(Graph, RemoveNodes)
{
    Graph graph = linear_graph();
    graph.remove_nodes({0});
    ASSERT_EQ(graph.nodes().size(), 1u);
    EXPECT_EQ(graph.nodes()[0].output(0), "b");
    graph.remove_nodes({});
    EXPECT_EQ(graph.nodes().size(), 1u);
}

TEST(Graph, UniqueValueNames)
{
    Graph graph("g");
    const std::string a = graph.unique_value_name("tmp");
    const std::string b = graph.unique_value_name("tmp");
    EXPECT_NE(a, b);
}

TEST(Node, AccessorsAndToString)
{
    Node node(op_names::kConv, "c1", {"x", "w", ""}, {"y"});
    EXPECT_TRUE(node.has_input(0));
    EXPECT_FALSE(node.has_input(2));
    EXPECT_FALSE(node.has_input(9));
    EXPECT_EQ(node.input(5), "");
    EXPECT_EQ(node.output(0), "y");
    EXPECT_THROW(node.output(1), Error);
    EXPECT_EQ(node.to_string(), "Conv(c1: x, w, _ -> y)");
}

} // namespace
} // namespace orpheus
