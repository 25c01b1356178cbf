#include "onnx/importer.hpp"

#include <cerrno>
#include <cstring>
#include <new>
#include <system_error>
#include <unordered_set>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/logging.hpp"
#include "onnx/proto.hpp"
#include "onnx/schema.hpp"

namespace orpheus {

namespace {

namespace schema = onnx_schema;
using proto::Reader;
using proto::WireType;

/** Importer-wide cap on tensor rank; nothing legitimate gets close. */
constexpr std::size_t kMaxTensorRank = 256;

/**
 * What every parse function needs besides its Reader: the caller's
 * limits and where tensor payloads come from. Without a file the
 * payload is copied out of the parsed bytes. With one, the parsed bytes
 * are a read-only mapping of @c fd, and each payload is pread straight
 * into its tensor, so the scan never faults the weight pages in.
 */
struct ImportContext {
    const ImportLimits &limits;
    const std::uint8_t *map_base = nullptr;
    int fd = -1;
    /** Page-aligned prefix of the mapping already handed back. */
    std::size_t released = 0;

    /** Copies the payload @p view, a slice of the parsed bytes, into
     *  @p dst. */
    void copy_payload(void *dst, std::string_view view)
    {
        if (view.empty())
            return;
        if (map_base == nullptr) {
            std::memcpy(dst, view.data(), view.size());
            return;
        }
        const auto offset = static_cast<std::size_t>(
            reinterpret_cast<const std::uint8_t *>(view.data()) - map_base);
        auto *out = static_cast<std::uint8_t *>(dst);
        for (std::size_t done = 0; done < view.size();) {
            const ssize_t got =
                ::pread(fd, out + done, view.size() - done,
                        static_cast<off_t>(offset + done));
            if (got < 0 && errno == EINTR)
                continue;
            if (got < 0)
                throw std::system_error(errno, std::generic_category(),
                                        "reading a tensor payload");
            if (got == 0)
                throw Error("model file ended inside a tensor payload "
                            "(was it truncated while being imported?)");
            done += static_cast<std::size_t>(got);
        }
        // The scan only moves forward, so everything before this payload's
        // end is consumed: drop those pages (fault-around and the tag reads
        // brought some in) so the import holds about one copy of the weights.
        const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
        const std::size_t consumed = (offset + view.size()) / page * page;
        if (consumed > released) {
            ::madvise(const_cast<std::uint8_t *>(map_base) + released,
                      consumed - released, MADV_DONTNEED);
            released = consumed;
        }
    }
};

/** An open model file and its read-only mapping, both released on
 *  every return path. */
struct MappedFile {
    int fd = -1;
    void *data = nullptr;
    std::size_t size = 0;

    MappedFile() = default;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    ~MappedFile()
    {
        if (data != nullptr)
            ::munmap(data, size);
        if (fd >= 0)
            ::close(fd);
    }
};

Status
check_model_size(std::uint64_t size, const ImportLimits &limits)
{
    if (size > limits.max_model_bytes)
        return out_of_range_error(
            "model of " + std::to_string(size) + " bytes exceeds the " +
            std::to_string(limits.max_model_bytes) +
            "-byte limit (ImportLimits::max_model_bytes)");
    return Status::ok();
}

DataType
map_tensor_dtype(std::int64_t onnx_type)
{
    switch (static_cast<schema::TensorDataType>(onnx_type)) {
      case schema::TensorDataType::kFloat:
        return DataType::kFloat32;
      case schema::TensorDataType::kUInt8:
        return DataType::kUInt8;
      case schema::TensorDataType::kInt8:
        return DataType::kInt8;
      case schema::TensorDataType::kInt32:
        return DataType::kInt32;
      case schema::TensorDataType::kInt64:
        return DataType::kInt64;
      case schema::TensorDataType::kBool:
        return DataType::kBool;
      default:
        throw Error("unsupported ONNX tensor data type " +
                    std::to_string(onnx_type));
    }
}

/** Throws LimitError once a repeated field outgrows the tensor cap. */
template <typename T>
void
check_repeated_budget(const std::vector<T> &values, const char *what,
                      const ImportLimits &limits)
{
    if (values.size() * sizeof(T) > limits.max_tensor_bytes) {
        throw LimitError(std::string("tensor ") + what + " exceeds " +
                         std::to_string(limits.max_tensor_bytes) +
                         " bytes (ImportLimits::max_tensor_bytes)");
    }
}

/**
 * Validates attacker-controlled dims and returns the byte size the
 * tensor will occupy. Rejects negative dims, int64 overflow of the
 * element/byte product, and sizes beyond max_tensor_bytes — all before
 * the allocation that would otherwise be undersized or enormous.
 */
std::uint64_t
checked_tensor_bytes(const std::vector<Shape::dim_type> &dims, DataType dtype,
                     const std::string &name, const ImportLimits &limits)
{
    if (dims.size() > kMaxTensorRank)
        throw LimitError("tensor " + name + " has rank " +
                         std::to_string(dims.size()) + " (limit " +
                         std::to_string(kMaxTensorRank) + ")");
    for (Shape::dim_type d : dims) {
        if (d < 0)
            throw Error("tensor " + name + " has negative dimension " +
                        std::to_string(d));
    }
    Shape::dim_type count = 0;
    if (!Shape::checked_numel(dims, count))
        throw LimitError("tensor " + name +
                         ": dimension product overflows int64");
    Shape::dim_type bytes = 0;
    if (__builtin_mul_overflow(
            count, static_cast<Shape::dim_type>(dtype_size(dtype)), &bytes))
        throw LimitError("tensor " + name + ": byte size overflows int64");
    if (static_cast<std::uint64_t>(bytes) > limits.max_tensor_bytes)
        throw LimitError("tensor " + name + " needs " +
                         std::to_string(bytes) + " bytes (limit " +
                         std::to_string(limits.max_tensor_bytes) +
                         ", ImportLimits::max_tensor_bytes)");
    return static_cast<std::uint64_t>(bytes);
}

/** Parses one TensorProto; returns its (possibly empty) name. */
std::string
parse_tensor(Reader reader, Tensor &out, ImportContext &ctx)
{
    const ImportLimits &limits = ctx.limits;
    std::vector<Shape::dim_type> dims;
    std::int64_t data_type = 0;
    std::string name;
    std::string_view raw_data;
    std::vector<float> float_data;
    std::vector<std::int64_t> int64_data;
    std::vector<std::int32_t> int32_data;

    while (!reader.done()) {
        WireType wire;
        const std::uint32_t field = reader.read_tag(wire);
        switch (field) {
          case schema::kTensorDims:
            if (wire == WireType::kLengthDelimited) {
                Reader packed = reader.sub_reader();
                while (!packed.done()) {
                    dims.push_back(packed.read_int64());
                    if (dims.size() > kMaxTensorRank)
                        throw LimitError(
                            "tensor dim list exceeds the rank limit of " +
                            std::to_string(kMaxTensorRank));
                }
            } else {
                dims.push_back(reader.read_int64());
            }
            break;
          case schema::kTensorDataType:
            data_type = reader.read_int64();
            break;
          case schema::kTensorName:
            name = std::string(reader.read_bytes());
            break;
          case schema::kTensorRawData:
            raw_data = reader.read_bytes();
            if (raw_data.size() > limits.max_tensor_bytes)
                throw LimitError("tensor raw_data of " +
                                 std::to_string(raw_data.size()) +
                                 " bytes exceeds "
                                 "ImportLimits::max_tensor_bytes");
            break;
          case schema::kTensorFloatData:
            if (wire == WireType::kLengthDelimited) {
                Reader packed = reader.sub_reader();
                while (!packed.done()) {
                    float_data.push_back(packed.read_float());
                    check_repeated_budget(float_data, "float_data", limits);
                }
            } else {
                float_data.push_back(reader.read_float());
            }
            break;
          case schema::kTensorInt64Data:
            if (wire == WireType::kLengthDelimited) {
                Reader packed = reader.sub_reader();
                while (!packed.done()) {
                    int64_data.push_back(packed.read_int64());
                    check_repeated_budget(int64_data, "int64_data", limits);
                }
            } else {
                int64_data.push_back(reader.read_int64());
            }
            break;
          case schema::kTensorInt32Data:
            if (wire == WireType::kLengthDelimited) {
                Reader packed = reader.sub_reader();
                while (!packed.done()) {
                    int32_data.push_back(
                        static_cast<std::int32_t>(packed.read_int64()));
                    check_repeated_budget(int32_data, "int32_data", limits);
                }
            } else {
                int32_data.push_back(
                    static_cast<std::int32_t>(reader.read_int64()));
            }
            break;
          default:
            reader.skip(wire);
            break;
        }
    }

    const DataType dtype = map_tensor_dtype(data_type);
    const std::uint64_t expected_bytes =
        checked_tensor_bytes(dims, dtype, name, limits);
    Tensor tensor(Shape(dims), dtype);
    ORPHEUS_ASSERT(tensor.byte_size() == expected_bytes,
                   "tensor byte-size mismatch after validation");

    if (!raw_data.empty() || tensor.numel() == 0) {
        ORPHEUS_CHECK(raw_data.size() == expected_bytes,
                      "tensor " << name << ": raw_data has "
                                << raw_data.size() << " bytes, expected "
                                << expected_bytes);
        ctx.copy_payload(tensor.raw_data(), raw_data);
    } else if (dtype == DataType::kFloat32) {
        ORPHEUS_CHECK(static_cast<std::int64_t>(float_data.size()) ==
                          tensor.numel(),
                      "tensor " << name << ": float_data has "
                                << float_data.size() << " values, expected "
                                << tensor.numel());
        std::memcpy(tensor.raw_data(), float_data.data(), expected_bytes);
    } else if (dtype == DataType::kInt64) {
        ORPHEUS_CHECK(static_cast<std::int64_t>(int64_data.size()) ==
                          tensor.numel(),
                      "tensor " << name << ": int64_data has "
                                << int64_data.size() << " values, expected "
                                << tensor.numel());
        std::memcpy(tensor.raw_data(), int64_data.data(), expected_bytes);
    } else {
        ORPHEUS_CHECK(static_cast<std::int64_t>(int32_data.size()) ==
                          tensor.numel(),
                      "tensor " << name << ": int32_data has "
                                << int32_data.size() << " values, expected "
                                << tensor.numel());
        if (dtype == DataType::kInt32) {
            std::memcpy(tensor.raw_data(), int32_data.data(),
                        expected_bytes);
        } else {
            auto *dst = static_cast<std::uint8_t *>(tensor.raw_data());
            for (std::size_t i = 0; i < int32_data.size(); ++i)
                dst[i] = static_cast<std::uint8_t>(int32_data[i]);
        }
    }

    out = std::move(tensor);
    return name;
}

/** Parses one AttributeProto into (name, Attribute). */
std::pair<std::string, Attribute>
parse_attribute(Reader reader, ImportContext &ctx)
{
    const ImportLimits &limits = ctx.limits;
    std::string name;
    schema::AttrType declared_type = schema::AttrType::kUndefined;
    float f_value = 0.0f;
    std::int64_t i_value = 0;
    std::string s_value;
    bool has_tensor = false;
    Tensor t_value;
    std::vector<float> floats;
    std::vector<std::int64_t> ints;
    bool has_f = false, has_i = false, has_s = false;

    while (!reader.done()) {
        WireType wire;
        const std::uint32_t field = reader.read_tag(wire);
        switch (field) {
          case schema::kAttrName:
            name = std::string(reader.read_bytes());
            break;
          case schema::kAttrType:
            declared_type =
                static_cast<schema::AttrType>(reader.read_int64());
            break;
          case schema::kAttrFloat:
            f_value = reader.read_float();
            has_f = true;
            break;
          case schema::kAttrInt:
            i_value = reader.read_int64();
            has_i = true;
            break;
          case schema::kAttrString:
            s_value = std::string(reader.read_bytes());
            has_s = true;
            break;
          case schema::kAttrTensor:
            parse_tensor(reader.sub_reader(), t_value, ctx);
            has_tensor = true;
            break;
          case schema::kAttrFloats:
            if (wire == WireType::kLengthDelimited) {
                Reader packed = reader.sub_reader();
                while (!packed.done()) {
                    floats.push_back(packed.read_float());
                    check_repeated_budget(floats, "floats attribute",
                                          limits);
                }
            } else {
                floats.push_back(reader.read_float());
            }
            break;
          case schema::kAttrInts:
            if (wire == WireType::kLengthDelimited) {
                Reader packed = reader.sub_reader();
                while (!packed.done()) {
                    ints.push_back(packed.read_int64());
                    check_repeated_budget(ints, "ints attribute", limits);
                }
            } else {
                ints.push_back(reader.read_int64());
            }
            break;
          default:
            reader.skip(wire);
            break;
        }
    }

    ORPHEUS_CHECK(!name.empty(), "attribute without a name");

    // Prefer the declared type; fall back to whichever payload is set
    // (old exporters sometimes omit the type enum).
    switch (declared_type) {
      case schema::AttrType::kFloat:
        return {name, Attribute(f_value)};
      case schema::AttrType::kInt:
        return {name, Attribute(i_value)};
      case schema::AttrType::kString:
        return {name, Attribute(s_value)};
      case schema::AttrType::kTensor:
        ORPHEUS_CHECK(has_tensor, "attribute " << name
                                               << " declared TENSOR but "
                                                  "carries no tensor");
        return {name, Attribute(std::move(t_value))};
      case schema::AttrType::kFloats:
        return {name, Attribute(std::move(floats))};
      case schema::AttrType::kInts:
        return {name, Attribute(std::move(ints))};
      case schema::AttrType::kUndefined:
        if (has_f)
            return {name, Attribute(f_value)};
        if (has_i)
            return {name, Attribute(i_value)};
        if (has_s)
            return {name, Attribute(s_value)};
        if (has_tensor)
            return {name, Attribute(std::move(t_value))};
        if (!ints.empty())
            return {name, Attribute(std::move(ints))};
        if (!floats.empty())
            return {name, Attribute(std::move(floats))};
        throw Error("attribute " + name + " has no recognisable payload");
      default:
        throw Error("unsupported attribute type for " + name);
    }
}

/** Parses ValueInfoProto into a ValueInfo (shape may be partial). */
ValueInfo
parse_value_info(Reader reader)
{
    ValueInfo info;
    while (!reader.done()) {
        WireType wire;
        const std::uint32_t field = reader.read_tag(wire);
        if (field == schema::kValueInfoName) {
            info.name = std::string(reader.read_bytes());
        } else if (field == schema::kValueInfoType) {
            Reader type_reader = reader.sub_reader();
            while (!type_reader.done()) {
                WireType type_wire;
                const std::uint32_t type_field =
                    type_reader.read_tag(type_wire);
                if (type_field != schema::kTypeTensorType) {
                    type_reader.skip(type_wire);
                    continue;
                }
                Reader tensor_reader = type_reader.sub_reader();
                std::vector<Shape::dim_type> dims;
                while (!tensor_reader.done()) {
                    WireType tensor_wire;
                    const std::uint32_t tensor_field =
                        tensor_reader.read_tag(tensor_wire);
                    if (tensor_field == schema::kTensorTypeElemType) {
                        info.dtype =
                            map_tensor_dtype(tensor_reader.read_int64());
                    } else if (tensor_field == schema::kTensorTypeShape) {
                        Reader shape_reader = tensor_reader.sub_reader();
                        while (!shape_reader.done()) {
                            WireType shape_wire;
                            const std::uint32_t shape_field =
                                shape_reader.read_tag(shape_wire);
                            if (shape_field != schema::kShapeDim) {
                                shape_reader.skip(shape_wire);
                                continue;
                            }
                            Reader dim_reader = shape_reader.sub_reader();
                            Shape::dim_type value = 0;
                            while (!dim_reader.done()) {
                                WireType dim_wire;
                                const std::uint32_t dim_field =
                                    dim_reader.read_tag(dim_wire);
                                if (dim_field == schema::kDimValue)
                                    value = dim_reader.read_int64();
                                else
                                    dim_reader.skip(dim_wire);
                            }
                            dims.push_back(value);
                            if (dims.size() > kMaxTensorRank)
                                throw LimitError(
                                    "value_info shape exceeds the rank "
                                    "limit of " +
                                    std::to_string(kMaxTensorRank));
                        }
                        info.shape = Shape(dims);
                    } else {
                        tensor_reader.skip(tensor_wire);
                    }
                }
            }
        } else {
            reader.skip(wire);
        }
    }
    return info;
}

/** Parses a NodeProto and appends it to @p graph. */
void
parse_node(Reader reader, Graph &graph, ImportContext &ctx)
{
    const ImportLimits &limits = ctx.limits;
    std::string op_type, name;
    std::vector<std::string> inputs, outputs;
    AttributeMap attrs;
    std::size_t attr_count = 0;

    while (!reader.done()) {
        WireType wire;
        const std::uint32_t field = reader.read_tag(wire);
        switch (field) {
          case schema::kNodeInput:
            inputs.emplace_back(reader.read_bytes());
            break;
          case schema::kNodeOutput:
            outputs.emplace_back(reader.read_bytes());
            break;
          case schema::kNodeName:
            name = std::string(reader.read_bytes());
            break;
          case schema::kNodeOpType:
            op_type = std::string(reader.read_bytes());
            break;
          case schema::kNodeAttribute: {
            if (++attr_count > limits.max_attributes)
                throw LimitError("node " + name + " has more than " +
                                 std::to_string(limits.max_attributes) +
                                 " attributes "
                                 "(ImportLimits::max_attributes)");
            auto [attr_name, attr] =
                parse_attribute(reader.sub_reader(), ctx);
            attrs.set(attr_name, std::move(attr));
            break;
          }
          default:
            reader.skip(wire);
            break;
        }
    }

    ORPHEUS_CHECK(!op_type.empty(), "node " << name << " has no op_type");
    graph.add_node(op_type, std::move(inputs), std::move(outputs),
                   std::move(attrs), std::move(name));
}

/** Parses a GraphProto into @p graph. */
void
parse_graph(Reader reader, Graph &graph, ImportContext &ctx)
{
    const ImportLimits &limits = ctx.limits;
    std::vector<ValueInfo> declared_inputs;
    std::vector<ValueInfo> declared_outputs;
    std::size_t node_count = 0;
    std::size_t initializer_count = 0;

    while (!reader.done()) {
        WireType wire;
        const std::uint32_t field = reader.read_tag(wire);
        switch (field) {
          case schema::kGraphName:
            graph.set_name(std::string(reader.read_bytes()));
            break;
          case schema::kGraphNode:
            if (++node_count > limits.max_nodes)
                throw LimitError("graph has more than " +
                                 std::to_string(limits.max_nodes) +
                                 " nodes (ImportLimits::max_nodes)");
            parse_node(reader.sub_reader(), graph, ctx);
            break;
          case schema::kGraphInitializer: {
            if (++initializer_count > limits.max_initializers)
                throw LimitError(
                    "graph has more than " +
                    std::to_string(limits.max_initializers) +
                    " initializers (ImportLimits::max_initializers)");
            Tensor tensor;
            std::string name =
                parse_tensor(reader.sub_reader(), tensor, ctx);
            ORPHEUS_CHECK(!name.empty(), "initializer without a name");
            graph.add_initializer(name, std::move(tensor));
            break;
          }
          case schema::kGraphInput:
            declared_inputs.push_back(parse_value_info(reader.sub_reader()));
            break;
          case schema::kGraphOutput:
            declared_outputs.push_back(
                parse_value_info(reader.sub_reader()));
            break;
          default:
            reader.skip(wire);
            break;
        }
    }

    // ONNX graphs may declare initialisers as inputs; real runtime
    // inputs are those without a matching initializer.
    for (ValueInfo &input : declared_inputs) {
        if (graph.has_initializer(input.name))
            continue;
        ORPHEUS_CHECK(input.shape.is_fully_defined(),
                      "graph input " << input.name
                                     << " has a symbolic/unknown shape "
                                     << input.shape
                                     << "; Orpheus requires static shapes");
        std::uint64_t input_bytes = 0;
        if (!input.shape.checked_byte_size(dtype_size(input.dtype),
                                           input_bytes) ||
            input_bytes > limits.max_tensor_bytes) {
            throw LimitError("graph input " + input.name + " with shape " +
                             input.shape.to_string() +
                             " exceeds ImportLimits::max_tensor_bytes");
        }
        graph.add_input(input.name, input.shape, input.dtype);
    }
    for (ValueInfo &output : declared_outputs)
        graph.add_output(output.name, output.shape, output.dtype);
}

/** The one parser behind both entry points. */
Status
import_model(const std::uint8_t *bytes, std::size_t size, Graph &out_graph,
             OnnxModelInfo *out_info, ImportContext &ctx)
{
    const ImportLimits &limits = ctx.limits;
    if (Status status = check_model_size(size, limits); !status.is_ok())
        return status;
    try {
        Graph graph;
        OnnxModelInfo info;
        bool saw_graph = false;

        Reader reader(bytes, size, limits.max_nesting_depth);
        while (!reader.done()) {
            WireType wire;
            const std::uint32_t field = reader.read_tag(wire);
            switch (field) {
              case schema::kModelIrVersion:
                info.ir_version = reader.read_int64();
                break;
              case schema::kModelProducerName:
                info.producer_name = std::string(reader.read_bytes());
                break;
              case schema::kModelProducerVersion:
                info.producer_version = std::string(reader.read_bytes());
                break;
              case schema::kModelOpsetImport: {
                Reader opset_reader = reader.sub_reader();
                while (!opset_reader.done()) {
                    WireType opset_wire;
                    const std::uint32_t opset_field =
                        opset_reader.read_tag(opset_wire);
                    if (opset_field == schema::kOpsetVersion)
                        info.opset_version = opset_reader.read_int64();
                    else
                        opset_reader.skip(opset_wire);
                }
                break;
              }
              case schema::kModelGraph:
                parse_graph(reader.sub_reader(), graph, ctx);
                saw_graph = true;
                break;
              default:
                reader.skip(wire);
                break;
            }
        }

        if (!saw_graph)
            return parse_error("model contains no graph");
        graph.validate();

        out_graph = std::move(graph);
        if (out_info != nullptr)
            *out_info = std::move(info);
        return Status::ok();
    } catch (const LimitError &error) {
        return out_of_range_error(std::string("ONNX import limit: ") +
                                  error.what());
    } catch (const Error &error) {
        return parse_error(std::string("ONNX import failed: ") +
                           error.what());
    } catch (const std::bad_alloc &) {
        return out_of_range_error(
            "ONNX import failed: model demands more memory than the "
            "process can allocate");
    } catch (const std::exception &error) {
        return internal_error(
            std::string("ONNX import failed unexpectedly: ") +
            error.what());
    }
}

} // namespace

Status
import_onnx(const std::uint8_t *bytes, std::size_t size, Graph &out_graph,
            OnnxModelInfo *out_info, const ImportLimits &limits)
{
    ImportContext ctx{limits};
    return import_model(bytes, size, out_graph, out_info, ctx);
}

Status
import_onnx(const std::vector<std::uint8_t> &bytes, Graph &out_graph,
            OnnxModelInfo *out_info, const ImportLimits &limits)
{
    return import_onnx(bytes.data(), bytes.size(), out_graph, out_info,
                       limits);
}

Status
import_onnx_file(const std::string &path, Graph &out_graph,
                 OnnxModelInfo *out_info, const ImportLimits &limits)
{
    MappedFile file;
    // O_NONBLOCK keeps a FIFO from stalling the open; it does not affect
    // reads of the regular files that are the only ones accepted below.
    file.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
    if (file.fd < 0)
        return not_found_error("cannot open model file: " + path);
    struct stat st {};
    if (::fstat(file.fd, &st) != 0)
        return internal_error("cannot stat model file " + path + ": " +
                              std::strerror(errno));
    if (!S_ISREG(st.st_mode))
        return invalid_argument_error("model path is not a regular file: " +
                                      path);
    if (Status status =
            check_model_size(static_cast<std::uint64_t>(st.st_size), limits);
        !status.is_ok())
        return status;

    file.size = static_cast<std::size_t>(st.st_size);
    if (file.size > 0) {
        void *data = ::mmap(nullptr, file.size, PROT_READ, MAP_PRIVATE,
                            file.fd, 0);
        if (data == MAP_FAILED)
            return internal_error("cannot map model file " + path + ": " +
                                  std::strerror(errno));
        file.data = data;
    }
    ImportContext ctx{limits, static_cast<const std::uint8_t *>(file.data),
                      file.fd};
    return import_model(ctx.map_base, file.size, out_graph, out_info, ctx);
}

} // namespace orpheus
