/**
 * @file
 * Malformed / adversarial ONNX ingestion tests.
 *
 * Model bytes are untrusted input; the import contract is that ANY byte
 * sequence either imports successfully or is rejected with a typed
 * Status — kParseError for structurally broken input, kOutOfRange for
 * input exceeding ImportLimits — and never aborts, throws past the API
 * boundary, or triggers an undersized allocation. Each test here crafts
 * one hostile pattern with the wire-format Writer (or raw bytes) and
 * asserts the expected StatusCode; merely completing without a crash is
 * half the assertion.
 */
#include "onnx/importer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <fstream>
#include <vector>

#include "core/rng.hpp"
#include "models/builder.hpp"
#include "models/model_zoo.hpp"
#include "graph/op_params.hpp"
#include "onnx/exporter.hpp"
#include "onnx/proto.hpp"
#include "onnx/schema.hpp"
#include "quant/quantizer.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

namespace schema = onnx_schema;

Status
import_bytes(const std::vector<std::uint8_t> &bytes,
             const ImportLimits &limits = {})
{
    Graph graph;
    return import_onnx(bytes.data(), bytes.size(), graph, nullptr, limits);
}

/** Wraps a serialised GraphProto in a minimal ModelProto. */
std::vector<std::uint8_t>
model_with_graph(const proto::Writer &graph)
{
    proto::Writer model;
    model.write_varint_field(schema::kModelIrVersion, 7);
    model.write_message_field(schema::kModelGraph, graph);
    return model.bytes();
}

/** ValueInfoProto for a fp32 tensor with the given dims. */
proto::Writer
value_info(const std::string &name, const std::vector<std::int64_t> &dims)
{
    proto::Writer info;
    info.write_string_field(schema::kValueInfoName, name);
    proto::Writer shape;
    for (std::int64_t d : dims) {
        proto::Writer dim;
        dim.write_int64_field(schema::kDimValue, d);
        shape.write_message_field(schema::kShapeDim, dim);
    }
    proto::Writer tensor_type;
    tensor_type.write_varint_field(
        schema::kTensorTypeElemType,
        static_cast<std::uint64_t>(schema::TensorDataType::kFloat));
    tensor_type.write_message_field(schema::kTensorTypeShape, shape);
    proto::Writer type;
    type.write_message_field(schema::kTypeTensorType, tensor_type);
    info.write_message_field(schema::kValueInfoType, type);
    return info;
}

/** TensorProto with explicit dims, fp32 dtype and raw data bytes. */
proto::Writer
raw_tensor(const std::string &name, const std::vector<std::int64_t> &dims,
           const std::vector<std::uint8_t> &raw)
{
    proto::Writer tensor;
    for (std::int64_t d : dims)
        tensor.write_int64_field(schema::kTensorDims, d);
    tensor.write_varint_field(
        schema::kTensorDataType,
        static_cast<std::uint64_t>(schema::TensorDataType::kFloat));
    tensor.write_string_field(schema::kTensorName, name);
    tensor.write_bytes_field(schema::kTensorRawData, raw.data(), raw.size());
    return tensor;
}

/** NodeProto. */
proto::Writer
node(const std::string &op_type, const std::vector<std::string> &inputs,
     const std::vector<std::string> &outputs)
{
    proto::Writer n;
    for (const std::string &in : inputs)
        n.write_string_field(schema::kNodeInput, in);
    for (const std::string &out : outputs)
        n.write_string_field(schema::kNodeOutput, out);
    n.write_string_field(schema::kNodeOpType, op_type);
    return n;
}

/** A well-formed single-Relu model the limit tests tighten around. */
std::vector<std::uint8_t>
valid_relu_model()
{
    proto::Writer graph;
    graph.write_string_field(schema::kGraphName, "m");
    graph.write_message_field(schema::kGraphNode,
                              node("Relu", {"x"}, {"y"}));
    graph.write_message_field(schema::kGraphInput, value_info("x", {1, 4}));
    graph.write_message_field(schema::kGraphOutput, value_info("y", {1, 4}));
    return model_with_graph(graph);
}

// --- Wire-level corruption ------------------------------------------------

TEST(MalformedOnnx, TruncatedVarint)
{
    const std::vector<std::uint8_t> bytes = {0x80};
    EXPECT_EQ(import_bytes(bytes).code(), StatusCode::kParseError);
}

TEST(MalformedOnnx, OverlongVarint)
{
    // Field 1, varint wire type, 11 continuation bytes (> 64 bits).
    std::vector<std::uint8_t> bytes = {0x08};
    bytes.insert(bytes.end(), 11, 0xFF);
    EXPECT_EQ(import_bytes(bytes).code(), StatusCode::kParseError);
}

TEST(MalformedOnnx, BadWireType)
{
    // Field 1 with (unsupported, deprecated group) wire type 3.
    const std::vector<std::uint8_t> bytes = {0x0B};
    EXPECT_EQ(import_bytes(bytes).code(), StatusCode::kParseError);
}

TEST(MalformedOnnx, LengthDelimitedFieldOverrunsBuffer)
{
    // kModelGraph claims a 2^60-byte payload with nothing behind it.
    std::vector<std::uint8_t> bytes = {
        static_cast<std::uint8_t>((schema::kModelGraph << 3) | 2)};
    for (int i = 0; i < 8; ++i)
        bytes.push_back(0x80 | 0x7F);
    bytes.push_back(0x10);
    EXPECT_EQ(import_bytes(bytes).code(), StatusCode::kParseError);
}

TEST(MalformedOnnx, EmptyInputHasNoGraph)
{
    EXPECT_EQ(import_bytes({}).code(), StatusCode::kParseError);
}

// --- Hostile tensor shapes ------------------------------------------------

TEST(MalformedOnnx, NegativeInitializerDim)
{
    proto::Writer graph;
    graph.write_message_field(schema::kGraphInitializer,
                              raw_tensor("w", {-1, 4}, {}));
    EXPECT_EQ(import_bytes(model_with_graph(graph)).code(),
              StatusCode::kParseError);
}

TEST(MalformedOnnx, DimProductOverflowsInt64)
{
    // (2^40)^3 = 2^120 overflows; the seed importer would have computed
    // a wrapped element count and sized the allocation from it.
    const std::int64_t big = std::int64_t{1} << 40;
    proto::Writer graph;
    graph.write_message_field(schema::kGraphInitializer,
                              raw_tensor("w", {big, big, big}, {}));
    EXPECT_EQ(import_bytes(model_with_graph(graph)).code(),
              StatusCode::kOutOfRange);
}

TEST(MalformedOnnx, DimProductWrapsToZero)
{
    // 2^32 * 2^32 wraps to exactly 0 in unchecked int64 arithmetic: the
    // nastiest case, because a wrapped "empty" tensor sails through
    // size checks while claiming a 10^19-element shape.
    const std::int64_t big = std::int64_t{1} << 32;
    proto::Writer graph;
    graph.write_message_field(schema::kGraphInitializer,
                              raw_tensor("w", {big, big}, {}));
    EXPECT_EQ(import_bytes(model_with_graph(graph)).code(),
              StatusCode::kOutOfRange);
}

TEST(MalformedOnnx, TensorBytesBeyondLimit)
{
    ImportLimits limits;
    limits.max_tensor_bytes = 1024;
    proto::Writer graph;
    // 1024 floats = 4096 bytes > the 1024-byte cap.
    graph.write_message_field(
        schema::kGraphInitializer,
        raw_tensor("w", {1024}, std::vector<std::uint8_t>(4096, 0)));
    EXPECT_EQ(import_bytes(model_with_graph(graph), limits).code(),
              StatusCode::kOutOfRange);
}

TEST(MalformedOnnx, RawDataSizeMismatch)
{
    proto::Writer graph;
    graph.write_message_field(schema::kGraphInitializer,
                              raw_tensor("w", {2, 2}, {0xAA, 0xBB, 0xCC}));
    EXPECT_EQ(import_bytes(model_with_graph(graph)).code(),
              StatusCode::kParseError);
}

TEST(MalformedOnnx, HugeGraphInputShape)
{
    const std::int64_t big = std::int64_t{1} << 40;
    proto::Writer graph;
    graph.write_message_field(schema::kGraphNode, node("Relu", {"x"}, {"y"}));
    graph.write_message_field(schema::kGraphInput,
                              value_info("x", {big, big}));
    graph.write_message_field(schema::kGraphOutput,
                              value_info("y", {big, big}));
    EXPECT_EQ(import_bytes(model_with_graph(graph)).code(),
              StatusCode::kOutOfRange);
}

TEST(MalformedOnnx, SymbolicGraphInputShapeRejected)
{
    proto::Writer graph;
    graph.write_message_field(schema::kGraphNode, node("Relu", {"x"}, {"y"}));
    graph.write_message_field(schema::kGraphInput, value_info("x", {1, 0}));
    graph.write_message_field(schema::kGraphOutput, value_info("y", {1, 0}));
    EXPECT_EQ(import_bytes(model_with_graph(graph)).code(),
              StatusCode::kParseError);
}

// --- Graph-structure corruption -------------------------------------------

TEST(MalformedOnnx, DanglingNodeInput)
{
    proto::Writer graph;
    graph.write_message_field(schema::kGraphNode,
                              node("Relu", {"not_a_value"}, {"y"}));
    graph.write_message_field(schema::kGraphOutput, value_info("y", {1, 4}));
    EXPECT_EQ(import_bytes(model_with_graph(graph)).code(),
              StatusCode::kParseError);
}

TEST(MalformedOnnx, DuplicateInitializer)
{
    const std::vector<std::uint8_t> four_floats(16, 0);
    proto::Writer graph;
    graph.write_message_field(schema::kGraphInitializer,
                              raw_tensor("w", {4}, four_floats));
    graph.write_message_field(schema::kGraphInitializer,
                              raw_tensor("w", {4}, four_floats));
    EXPECT_EQ(import_bytes(model_with_graph(graph)).code(),
              StatusCode::kParseError);
}

TEST(MalformedOnnx, NodeWithoutOpType)
{
    proto::Writer bad_node;
    bad_node.write_string_field(schema::kNodeInput, "x");
    bad_node.write_string_field(schema::kNodeOutput, "y");
    proto::Writer graph;
    graph.write_message_field(schema::kGraphNode, bad_node);
    EXPECT_EQ(import_bytes(model_with_graph(graph)).code(),
              StatusCode::kParseError);
}

TEST(MalformedOnnx, AttributeWithoutName)
{
    proto::Writer attr;
    attr.write_varint_field(
        schema::kAttrType,
        static_cast<std::uint64_t>(schema::AttrType::kInt));
    attr.write_varint_field(schema::kAttrInt, 1);
    proto::Writer bad_node = node("Relu", {"x"}, {"y"});
    bad_node.write_message_field(schema::kNodeAttribute, attr);
    proto::Writer graph;
    graph.write_message_field(schema::kGraphNode, bad_node);
    graph.write_message_field(schema::kGraphInput, value_info("x", {1, 4}));
    graph.write_message_field(schema::kGraphOutput, value_info("y", {1, 4}));
    EXPECT_EQ(import_bytes(model_with_graph(graph)).code(),
              StatusCode::kParseError);
}

TEST(MalformedOnnx, UnsupportedTensorDtype)
{
    proto::Writer tensor;
    tensor.write_int64_field(schema::kTensorDims, 1);
    tensor.write_varint_field(schema::kTensorDataType, 999);
    tensor.write_string_field(schema::kTensorName, "w");
    proto::Writer graph;
    graph.write_message_field(schema::kGraphInitializer, tensor);
    EXPECT_EQ(import_bytes(model_with_graph(graph)).code(),
              StatusCode::kParseError);
}

// --- ImportLimits enforcement ---------------------------------------------

TEST(MalformedOnnx, ModelBytesBeyondLimit)
{
    ImportLimits limits;
    limits.max_model_bytes = 8;
    const Status status = import_bytes(valid_relu_model(), limits);
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

TEST(MalformedOnnx, NodeCountBeyondLimit)
{
    ImportLimits limits;
    limits.max_nodes = 1;
    proto::Writer graph;
    graph.write_message_field(schema::kGraphNode, node("Relu", {"x"}, {"t"}));
    graph.write_message_field(schema::kGraphNode, node("Relu", {"t"}, {"y"}));
    graph.write_message_field(schema::kGraphInput, value_info("x", {1, 4}));
    graph.write_message_field(schema::kGraphOutput, value_info("y", {1, 4}));
    EXPECT_EQ(import_bytes(model_with_graph(graph), limits).code(),
              StatusCode::kOutOfRange);
}

TEST(MalformedOnnx, AttributeCountBeyondLimit)
{
    ImportLimits limits;
    limits.max_attributes = 1;
    proto::Writer n = node("Relu", {"x"}, {"y"});
    for (int i = 0; i < 2; ++i) {
        proto::Writer attr;
        attr.write_string_field(schema::kAttrName, "a" + std::to_string(i));
        attr.write_varint_field(
            schema::kAttrType,
            static_cast<std::uint64_t>(schema::AttrType::kInt));
        attr.write_varint_field(schema::kAttrInt, 1);
        n.write_message_field(schema::kNodeAttribute, attr);
    }
    proto::Writer graph;
    graph.write_message_field(schema::kGraphNode, n);
    graph.write_message_field(schema::kGraphInput, value_info("x", {1, 4}));
    graph.write_message_field(schema::kGraphOutput, value_info("y", {1, 4}));
    EXPECT_EQ(import_bytes(model_with_graph(graph), limits).code(),
              StatusCode::kOutOfRange);
}

TEST(MalformedOnnx, NestingDepthBeyondLimit)
{
    ImportLimits limits;
    limits.max_nesting_depth = 1; // graph is depth 1; its nodes are 2.
    EXPECT_EQ(import_bytes(valid_relu_model(), limits).code(),
              StatusCode::kOutOfRange);
}

TEST(MalformedOnnx, DefaultLimitsAcceptZooModels)
{
    Graph graph;
    const Status status =
        import_onnx(export_onnx(models::tiny_cnn()), graph);
    EXPECT_TRUE(status.is_ok()) << status.to_string();
}

// --- Reader depth guard (unit) --------------------------------------------

TEST(MalformedOnnx, ReaderSubReaderDepthGuard)
{
    proto::Writer inner;
    inner.write_varint_field(1, 42);
    proto::Writer outer;
    outer.write_message_field(1, inner);

    proto::Reader reader(outer.bytes().data(), outer.bytes().size(),
                         /*max_depth=*/0);
    proto::WireType wire;
    reader.read_tag(wire);
    EXPECT_THROW(reader.sub_reader(), LimitError);
}

// --- Regression corpus ----------------------------------------------------

/** Imports @p bytes and requires compiling them to throw an
 *  orpheus::Error whose message starts with a status code name. */
void
expect_compile_rejected(const std::string &what,
                        const std::vector<std::uint8_t> &bytes)
{
    Graph graph;
    ASSERT_TRUE(import_onnx(bytes.data(), bytes.size(), graph).is_ok())
        << what;
    try {
        Engine engine(std::move(graph));
        ADD_FAILURE() << what << ": compiled without an error";
    } catch (const Error &error) {
        EXPECT_EQ(std::string(error.what()).rfind("InvalidArgument: ", 0),
                  0u)
            << what << ": " << error.what();
    }
}

/** Every committed corpus file must be rejected with a typed Status —
 *  no exception may escape and no abort may fire — through both the
 *  bytes and the file entry point. A compile_*.onnx file is well-formed
 *  ONNX that must import and then be rejected, when an engine compiles
 *  it, with an orpheus::Error carrying a status code. */
TEST(MalformedOnnx, RegressionCorpusRejectsCleanly)
{
    const std::filesystem::path dir = ORPHEUS_TEST_CORPUS_DIR;
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    std::size_t files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".onnx")
            continue;
        ++files;
        std::ifstream in(entry.path(), std::ios::binary | std::ios::ate);
        std::vector<std::uint8_t> bytes(
            static_cast<std::size_t>(in.tellg()));
        in.seekg(0);
        in.read(reinterpret_cast<char *>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        ASSERT_TRUE(in) << entry.path();
        Status status;
        ASSERT_NO_THROW(status = import_bytes(bytes)) << entry.path();
        const bool compile_case =
            entry.path().filename().string().rfind("compile_", 0) == 0;
        EXPECT_EQ(status.is_ok(), compile_case)
            << entry.path() << ": " << status.to_string();
        if (compile_case && status.is_ok())
            expect_compile_rejected(entry.path().string(), bytes);

        // The file path scans a mapping of the same bytes and must reach
        // the same verdict.
        Graph graph;
        Status file_status;
        ASSERT_NO_THROW(file_status =
                            import_onnx_file(entry.path().string(), graph))
            << entry.path();
        EXPECT_EQ(file_status.code(), status.code())
            << entry.path() << ": " << file_status.to_string();
    }
    EXPECT_GT(files, 0u) << "corpus directory is empty";
}

// --- QLinearConv shapes ---------------------------------------------------

/** A one-QLinearConv graph over a uint8 [1, in_c, 6, 6] input with an
 *  int8 weight of @p weight_shape, @p attrs and, when @p bias is set,
 *  that tensor as input 8. Unit scales, zero points 0. */
Graph
qlinear_conv_graph(std::int64_t in_c, const Shape &weight_shape,
                   AttributeMap attrs, const Tensor *bias = nullptr)
{
    Graph graph("qconv");
    graph.add_input("x", Shape({1, in_c, 6, 6}), DataType::kUInt8);
    graph.add_initializer("s", Tensor::scalar(1.0f));
    graph.add_initializer("zu", Tensor(Shape{}, DataType::kUInt8));
    graph.add_initializer("zi", Tensor(Shape{}, DataType::kInt8));
    graph.add_initializer("w", Tensor(weight_shape, DataType::kInt8));
    std::vector<std::string> inputs = {"x", "s", "zu", "w",
                                       "s", "zi", "s", "zu"};
    if (bias != nullptr) {
        graph.add_initializer("b", bias->clone());
        inputs.push_back("b");
    }
    graph.add_node(op_names::kQLinearConv, inputs, {"y"}, std::move(attrs));
    graph.add_output("y", {}, DataType::kUInt8);
    return graph;
}

/**
 * The int8 conv reads its weight rows, groups and bias by the shapes
 * shape inference accepted, so a QLinearConv whose kernel_shape, group
 * or bias disagrees with its weight must be an InvalidArgument at
 * compile time. Each of these once compiled and read past a buffer: the
 * 5x5 kernel_shape past the 3x3 weight rows, the 1-entry bias past its
 * end, the 5-channel / 2-group weight past its last row.
 */
TEST(MalformedOnnx, QLinearConvShapesMustMatchTheWeight)
{
    AttributeMap pad1;
    pad1.set("pads", std::vector<std::int64_t>{1, 1, 1, 1});

    const Tensor bias8(Shape({8}), DataType::kInt32);
    {
        Graph valid = qlinear_conv_graph(4, Shape({8, 4, 3, 3}), pad1,
                                         &bias8);
        const std::vector<std::uint8_t> bytes = export_onnx(valid);
        Graph imported;
        ASSERT_TRUE(
            import_onnx(bytes.data(), bytes.size(), imported).is_ok());
        std::map<std::string, Tensor> outputs;
        const Status status = Engine(std::move(imported))
                                  .try_run({{"x", Tensor(Shape({1, 4, 6, 6}),
                                                         DataType::kUInt8)}},
                                           outputs);
        ASSERT_TRUE(status.is_ok()) << status.to_string();
    }

    AttributeMap kernel5 = pad1;
    kernel5.set("kernel_shape", std::vector<std::int64_t>{5, 5});
    kernel5.set("pads", std::vector<std::int64_t>{2, 2, 2, 2});
    expect_compile_rejected(
        "kernel_shape 5x5 over a 3x3 weight",
        export_onnx(qlinear_conv_graph(4, Shape({8, 4, 3, 3}), kernel5)));

    AttributeMap group2 = pad1;
    group2.set("group", 2);
    expect_compile_rejected(
        "5 output channels in 2 groups",
        export_onnx(qlinear_conv_graph(4, Shape({5, 2, 3, 3}), group2)));

    const Tensor bias1(Shape({1}), DataType::kInt32);
    expect_compile_rejected("1-entry bias on 8 output channels",
                            export_onnx(qlinear_conv_graph(
                                4, Shape({8, 4, 3, 3}), pad1, &bias1)));
    const Tensor bias_f32(Shape({8}), DataType::kFloat32);
    expect_compile_rejected("fp32 bias",
                            export_onnx(qlinear_conv_graph(
                                4, Shape({8, 4, 3, 3}), pad1, &bias_f32)));
    const Tensor bias_2d(Shape({8, 1}), DataType::kInt32);
    expect_compile_rejected("rank-2 bias",
                            export_onnx(qlinear_conv_graph(
                                4, Shape({8, 4, 3, 3}), pad1, &bias_2d)));
}

// --- Reshape targets ------------------------------------------------------

/** Graph: initializer d [0, 3] reshaped by the constant spec [0, -1]. */
std::vector<std::uint8_t>
reshape_zero_extent_model()
{
    proto::Writer spec;
    spec.write_int64_field(schema::kTensorDims, 2);
    spec.write_varint_field(
        schema::kTensorDataType,
        static_cast<std::uint64_t>(schema::TensorDataType::kInt64));
    spec.write_string_field(schema::kTensorName, "s");
    const std::int64_t dims[2] = {0, -1};
    spec.write_bytes_field(schema::kTensorRawData, dims, sizeof(dims));

    proto::Writer graph;
    graph.write_string_field(schema::kGraphName, "m");
    graph.write_message_field(schema::kGraphNode,
                              node("Reshape", {"d", "s"}, {"y"}));
    graph.write_message_field(schema::kGraphInitializer,
                              raw_tensor("d", {0, 3}, {}));
    graph.write_message_field(schema::kGraphInitializer, spec);
    graph.write_message_field(schema::kGraphOutput, value_info("y", {0, 3}));
    return model_with_graph(graph);
}

TEST(MalformedOnnx, ReshapeOfZeroExtentIsATypedCompileError)
{
    // Constant folding divided the element count by the known extents'
    // product, 0 here, and died with SIGFPE.
    expect_compile_rejected("reshape [0, 3] by [0, -1]",
                            reshape_zero_extent_model());
}

TEST(MalformedOnnx, ReshapeTargetsResolveOrFailTyped)
{
    const auto resolve = [](const Shape &input,
                            const std::vector<std::int64_t> &spec,
                            Shape *out = nullptr) {
        Shape target;
        const Status status =
            resolve_reshape("r", input, spec.data(), spec.size(), target);
        if (out != nullptr)
            *out = target;
        return status.code();
    };
    Shape out;
    EXPECT_EQ(resolve(Shape({2, 3, 4}), {0, -1}, &out), StatusCode::kOk);
    EXPECT_EQ(out, Shape({2, 12}));
    EXPECT_EQ(resolve(Shape({2, 3, 4}), {4, 0, -1}, &out), StatusCode::kOk);
    EXPECT_EQ(out, Shape({4, 3, 2}));

    const StatusCode bad = StatusCode::kInvalidArgument;
    // A zero extent leaves -1 nothing to divide by.
    EXPECT_EQ(resolve(Shape({0, 3}), {0, -1}), bad);
    EXPECT_EQ(resolve(Shape({2, 3}), {-1, -1}), bad);
    EXPECT_EQ(resolve(Shape({2, 3}), {-2, 3}), bad);
    // 0 copies the input extent at its position; there is none at 2.
    EXPECT_EQ(resolve(Shape({2, 3}), {2, 3, 0}), bad);
    EXPECT_EQ(resolve(Shape({2, 3}), {4, -1}), bad);
    EXPECT_EQ(resolve(Shape({2, 3}), {5}), bad);
    EXPECT_EQ(resolve(Shape({2, 3}), {std::int64_t{1} << 40,
                                      std::int64_t{1} << 40}),
              bad);
}

// --- Names the engine derives constants under ---------------------------

/**
 * A model file cannot stand in for a constant the engine derives at plan
 * time. A quantized two-conv model's file also carries, for each
 * QLinearConv, a one-element int32 initializer under every name its row
 * sums (one per output channel) could be keyed by, each kept live by an
 * Identity to a graph output, and both conv nodes are named alike. Each
 * int8 kernel must still read row sums derived from its own weight: the
 * outputs equal the clean model's. No ReLU sits between the convs, so
 * the second one's input zero point is non-zero and reads its row sums;
 * an undersized decoy read past its end would also show under the
 * sanitizers.
 */
TEST(MalformedOnnx, InitializersNamedLikeDerivedConstantsAreModelData)
{
    GraphBuilder b("decoys", 0xdec0);
    std::string x = b.input("input", Shape({1, 3, 8, 8}));
    x = b.conv_k(x, 8, 3, 1, 1);
    b.output(b.conv_k(x, 16, 3, 1, 1));
    const Graph clean = quantize_model(b.take());
    Graph hostile(clean);
    std::vector<std::string> decoys;
    for (Node &node : hostile.nodes()) {
        if (node.op_type() != op_names::kQLinearConv)
            continue;
        for (const std::string &owner : {node.outputs().front(), node.name(),
                                         std::string("conv")})
            decoys.push_back(owner + "/im2col_qgemm/row_sums");
        node.set_name("conv");
    }
    ASSERT_FALSE(decoys.empty()) << "quantized tiny-cnn has no QLinearConv";
    for (const std::string &decoy : decoys) {
        if (hostile.has_initializer(decoy))
            continue;
        Tensor sums(Shape({1}), DataType::kInt32);
        sums.data<std::int32_t>()[0] = 0x7fffffff;
        hostile.add_initializer(decoy, sums);
        hostile.add_node(op_names::kIdentity, {decoy}, {decoy + ":out"});
        hostile.add_output(decoy + ":out", Shape({1}), DataType::kInt32);
    }

    Graph imported;
    const std::vector<std::uint8_t> bytes = export_onnx(hostile);
    ASSERT_TRUE(import_onnx(bytes.data(), bytes.size(), imported).is_ok());
    const std::map<std::string, Tensor> inputs = {
        {clean.inputs().front().name,
         testing::make_random(clean.inputs().front().shape, 0xdec0)}};
    std::map<std::string, Tensor> expected, actual;
    ASSERT_TRUE(Engine(Graph(clean)).try_run(inputs, expected).is_ok());
    ASSERT_TRUE(Engine(std::move(imported)).try_run(inputs, actual).is_ok());
    for (const auto &[name, tensor] : expected) {
        ASSERT_TRUE(actual.count(name) > 0) << name;
        const Tensor &got = actual.at(name);
        ASSERT_EQ(got.shape(), tensor.shape()) << name;
        EXPECT_EQ(std::memcmp(got.raw_data(), tensor.raw_data(),
                              tensor.byte_size()),
                  0)
            << name;
    }
}

// --- Deterministic mini-fuzz ----------------------------------------------

/** A small in-test slice of what tools/orpheus_fuzz does at scale:
 *  every mutant must import or be rejected via Status, never throw. */
TEST(MalformedOnnx, MutatedZooModelsNeverEscapeStatus)
{
    const std::vector<std::uint8_t> seed =
        export_onnx(models::tiny_mlp());
    Rng rng(0xbadc0de);
    for (int iter = 0; iter < 500; ++iter) {
        std::vector<std::uint8_t> mutant = seed;
        const int flips = static_cast<int>(rng.uniform_int(1, 12));
        for (int i = 0; i < flips; ++i) {
            const auto at = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(mutant.size()) - 1));
            mutant[at] ^=
                static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        }
        if (rng.uniform_int(0, 3) == 0)
            mutant.resize(static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(mutant.size()) - 1)));
        EXPECT_NO_THROW((void)import_bytes(mutant)) << "iteration " << iter;
    }
}

} // namespace
} // namespace orpheus
