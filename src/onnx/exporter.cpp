#include "onnx/exporter.hpp"

#include <algorithm>
#include <fstream>

#include "onnx/proto.hpp"
#include "onnx/schema.hpp"

namespace orpheus {

namespace {

namespace schema = onnx_schema;
using proto::Writer;

constexpr std::int64_t kIrVersion = 7;
constexpr std::int64_t kOpsetVersion = 11;
constexpr const char *kProducerName = "orpheus";
constexpr const char *kProducerVersion = "1.0.0";

std::int64_t
map_dtype(DataType dtype)
{
    switch (dtype) {
      case DataType::kFloat32:
        return static_cast<std::int64_t>(schema::TensorDataType::kFloat);
      case DataType::kUInt8:
        return static_cast<std::int64_t>(schema::TensorDataType::kUInt8);
      case DataType::kInt8:
        return static_cast<std::int64_t>(schema::TensorDataType::kInt8);
      case DataType::kInt32:
        return static_cast<std::int64_t>(schema::TensorDataType::kInt32);
      case DataType::kInt64:
        return static_cast<std::int64_t>(schema::TensorDataType::kInt64);
      case DataType::kBool:
        return static_cast<std::int64_t>(schema::TensorDataType::kBool);
    }
    throw Error("unrepresentable dtype in ONNX export");
}

Writer
write_tensor(const std::string &name, const Tensor &tensor)
{
    Writer w;
    for (std::size_t d = 0; d < tensor.shape().rank(); ++d)
        w.write_int64_field(schema::kTensorDims,
                            tensor.shape().dim(static_cast<int>(d)));
    w.write_varint_field(
        schema::kTensorDataType,
        static_cast<std::uint64_t>(map_dtype(tensor.dtype())));
    if (!name.empty())
        w.write_string_field(schema::kTensorName, name);
    if (tensor.byte_size() > 0)
        w.write_bytes_field(schema::kTensorRawData, tensor.raw_data(),
                            tensor.byte_size());
    return w;
}

Writer
write_attribute(const std::string &name, const Attribute &attr)
{
    Writer w;
    w.write_string_field(schema::kAttrName, name);
    if (attr.is_int()) {
        w.write_int64_field(schema::kAttrInt, attr.as_int());
        w.write_varint_field(
            schema::kAttrType,
            static_cast<std::uint64_t>(schema::AttrType::kInt));
    } else if (attr.is_float()) {
        w.write_float_field(schema::kAttrFloat, attr.as_float());
        w.write_varint_field(
            schema::kAttrType,
            static_cast<std::uint64_t>(schema::AttrType::kFloat));
    } else if (attr.is_string()) {
        w.write_string_field(schema::kAttrString, attr.as_string());
        w.write_varint_field(
            schema::kAttrType,
            static_cast<std::uint64_t>(schema::AttrType::kString));
    } else if (attr.is_ints()) {
        w.write_packed_int64s(schema::kAttrInts, attr.as_ints());
        w.write_varint_field(
            schema::kAttrType,
            static_cast<std::uint64_t>(schema::AttrType::kInts));
    } else if (attr.is_floats()) {
        w.write_packed_floats(schema::kAttrFloats, attr.as_floats());
        w.write_varint_field(
            schema::kAttrType,
            static_cast<std::uint64_t>(schema::AttrType::kFloats));
    } else if (attr.is_tensor()) {
        w.write_message_field(schema::kAttrTensor,
                              write_tensor("", attr.as_tensor()));
        w.write_varint_field(
            schema::kAttrType,
            static_cast<std::uint64_t>(schema::AttrType::kTensor));
    } else {
        throw Error("attribute " + name + " not representable in ONNX");
    }
    return w;
}

Writer
write_value_info(const ValueInfo &info)
{
    Writer tensor_type;
    tensor_type.write_varint_field(
        schema::kTensorTypeElemType,
        static_cast<std::uint64_t>(map_dtype(info.dtype)));
    if (info.shape.rank() > 0) {
        Writer shape;
        for (std::size_t d = 0; d < info.shape.rank(); ++d) {
            Writer dim;
            dim.write_int64_field(schema::kDimValue,
                                  info.shape.dim(static_cast<int>(d)));
            shape.write_message_field(schema::kShapeDim, dim);
        }
        tensor_type.write_message_field(schema::kTensorTypeShape, shape);
    }

    Writer type;
    type.write_message_field(schema::kTypeTensorType, tensor_type);

    Writer w;
    w.write_string_field(schema::kValueInfoName, info.name);
    w.write_message_field(schema::kValueInfoType, type);
    return w;
}

Writer
write_node(const Node &node)
{
    Writer w;
    for (const std::string &in : node.inputs())
        w.write_string_field(schema::kNodeInput, in);
    for (const std::string &out : node.outputs())
        w.write_string_field(schema::kNodeOutput, out);
    if (!node.name().empty())
        w.write_string_field(schema::kNodeName, node.name());
    w.write_string_field(schema::kNodeOpType, node.op_type());
    for (const auto &[name, attr] : node.attrs())
        w.write_message_field(schema::kNodeAttribute,
                              write_attribute(name, attr));
    return w;
}

} // namespace

std::vector<std::uint8_t>
export_onnx(const Graph &graph)
{
    graph.validate();

    Writer graph_writer;
    // Nodes are emitted in topological order so any consumer that
    // executes sequentially sees a valid schedule.
    for (std::size_t index : graph.topological_order())
        graph_writer.write_message_field(
            schema::kGraphNode, write_node(graph.nodes()[index]));
    graph_writer.write_string_field(schema::kGraphName, graph.name());

    // Deterministic output: initialisers sorted by name.
    std::vector<std::string> initializer_names;
    initializer_names.reserve(graph.initializers().size());
    for (const auto &[name, tensor] : graph.initializers()) {
        (void)tensor;
        initializer_names.push_back(name);
    }
    std::sort(initializer_names.begin(), initializer_names.end());
    for (const std::string &name : initializer_names) {
        // A compiled engine's graph holds weights in panel order; only
        // the model's own graph is exportable.
        ORPHEUS_CHECK(!graph.initializer(name).layout().packed(),
                      "initializer " << name << " is in GEMM panel order");
        graph_writer.write_message_field(
            schema::kGraphInitializer,
            write_tensor(name, graph.initializer(name)));
    }

    for (const ValueInfo &input : graph.inputs())
        graph_writer.write_message_field(schema::kGraphInput,
                                         write_value_info(input));
    for (const ValueInfo &output : graph.outputs())
        graph_writer.write_message_field(schema::kGraphOutput,
                                         write_value_info(output));

    Writer opset;
    opset.write_string_field(schema::kOpsetDomain, "");
    opset.write_int64_field(schema::kOpsetVersion, kOpsetVersion);

    Writer model;
    model.write_int64_field(schema::kModelIrVersion, kIrVersion);
    model.write_string_field(schema::kModelProducerName, kProducerName);
    model.write_string_field(schema::kModelProducerVersion,
                             kProducerVersion);
    model.write_message_field(schema::kModelGraph, graph_writer);
    model.write_message_field(schema::kModelOpsetImport, opset);
    return model.take();
}

Status
export_onnx_file(const Graph &graph, const std::string &path)
{
    try {
        const std::vector<std::uint8_t> bytes = export_onnx(graph);
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        if (!file)
            return internal_error("cannot open for writing: " + path);
        file.write(reinterpret_cast<const char *>(bytes.data()),
                   static_cast<std::streamsize>(bytes.size()));
        if (!file)
            return internal_error("error writing model file: " + path);
        return Status::ok();
    } catch (const Error &error) {
        return internal_error(std::string("ONNX export failed: ") +
                              error.what());
    }
}

} // namespace orpheus
