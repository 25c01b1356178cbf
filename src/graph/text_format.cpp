#include "graph/text_format.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

namespace orpheus {

namespace {

constexpr const char *kMagic = "orpheus-text";
constexpr int kVersion = 1;

// --- Writing ---------------------------------------------------------------

void
check_name(const std::string &name)
{
    ORPHEUS_CHECK(!name.empty(), "text format: empty name");
    for (char ch : name) {
        ORPHEUS_CHECK(!std::isspace(static_cast<unsigned char>(ch)),
                      "text format: name contains whitespace: '" << name
                                                                 << "'");
    }
}

std::string
hex_encode(const void *data, std::size_t size)
{
    static const char digits[] = "0123456789abcdef";
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::string out;
    out.reserve(size * 2);
    for (std::size_t i = 0; i < size; ++i) {
        out.push_back(digits[bytes[i] >> 4]);
        out.push_back(digits[bytes[i] & 0xF]);
    }
    return out;
}

std::string
format_shape(const Shape &shape)
{
    std::ostringstream out;
    out << '[';
    for (std::size_t d = 0; d < shape.rank(); ++d) {
        if (d > 0)
            out << ',';
        out << shape.dim(static_cast<int>(d));
    }
    out << ']';
    return out.str();
}

void
write_tensor_line(std::ostream &out, const char *record,
                  const std::string &name, const Tensor &tensor,
                  bool inline_data)
{
    out << record << ' ' << name << ' ' << to_string(tensor.dtype()) << ' '
        << format_shape(tensor.shape());
    if (inline_data)
        out << ' ' << hex_encode(tensor.raw_data(), tensor.byte_size());
    out << '\n';
}

void
write_attr(std::ostream &out, const std::string &name,
           const Attribute &attr)
{
    check_name(name);
    out.precision(std::numeric_limits<float>::max_digits10);
    if (attr.is_int()) {
        out << "attr_int " << name << ' ' << attr.as_int() << '\n';
    } else if (attr.is_float()) {
        out << "attr_float " << name << ' ' << attr.as_float() << '\n';
    } else if (attr.is_string()) {
        out << "attr_string " << name << ' ' << attr.as_string() << '\n';
    } else if (attr.is_ints()) {
        out << "attr_ints " << name;
        for (std::int64_t value : attr.as_ints())
            out << ' ' << value;
        out << '\n';
    } else if (attr.is_floats()) {
        out << "attr_floats " << name;
        for (float value : attr.as_floats())
            out << ' ' << value;
        out << '\n';
    } else {
        const Tensor &tensor = attr.as_tensor();
        out << "attr_tensor " << name << ' ' << to_string(tensor.dtype())
            << ' ' << format_shape(tensor.shape()) << ' '
            << hex_encode(tensor.raw_data(), tensor.byte_size()) << '\n';
    }
}

// --- Parsing -----------------------------------------------------------------

class Parser
{
  public:
    explicit Parser(const std::string &text) : stream_(text) {}

    /** Advances to the next meaningful line; false at end of input. */
    bool
    next_line()
    {
        std::string line;
        while (std::getline(stream_, line)) {
            ++line_number_;
            // Trim trailing carriage returns (files edited on Windows).
            while (!line.empty() && (line.back() == '\r'))
                line.pop_back();
            if (line.empty() || line[0] == '#')
                continue;
            tokens_ = tokenize(line);
            if (!tokens_.empty())
                return true;
        }
        return false;
    }

    const std::vector<std::string> &tokens() const { return tokens_; }
    int line() const { return line_number_; }

  private:
    static std::vector<std::string>
    tokenize(const std::string &line)
    {
        std::vector<std::string> tokens;
        std::istringstream in(line);
        std::string token;
        while (in >> token)
            tokens.push_back(token);
        return tokens;
    }

    std::istringstream stream_;
    std::vector<std::string> tokens_;
    int line_number_ = 0;
};

[[noreturn]] void
parse_fail(const Parser &parser, const std::string &message)
{
    throw Error("text format, line " + std::to_string(parser.line()) +
                ": " + message);
}

Shape
parse_shape(const Parser &parser, const std::string &token)
{
    if (token.size() < 2 || token.front() != '[' || token.back() != ']')
        parse_fail(parser, "malformed shape: " + token);
    std::vector<Shape::dim_type> dims;
    std::string body = token.substr(1, token.size() - 2);
    if (!body.empty()) {
        std::istringstream in(body);
        std::string piece;
        while (std::getline(in, piece, ','))
            dims.push_back(std::stoll(piece));
    }
    return Shape(dims);
}

std::vector<std::uint8_t>
hex_decode(const Parser &parser, const std::string &hex)
{
    if (hex.size() % 2 != 0)
        parse_fail(parser, "odd hex payload length");
    const auto nibble = [&](char ch) -> int {
        if (ch >= '0' && ch <= '9')
            return ch - '0';
        if (ch >= 'a' && ch <= 'f')
            return ch - 'a' + 10;
        if (ch >= 'A' && ch <= 'F')
            return ch - 'A' + 10;
        parse_fail(parser, std::string("bad hex digit: ") + ch);
    };
    std::vector<std::uint8_t> bytes(hex.size() / 2);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>((nibble(hex[2 * i]) << 4) |
                                             nibble(hex[2 * i + 1]));
    return bytes;
}

Tensor
parse_tensor_payload(const Parser &parser, const std::string &dtype_token,
                     const std::string &shape_token,
                     const std::string &hex_token)
{
    const DataType dtype = parse_dtype(dtype_token);
    Tensor tensor(parse_shape(parser, shape_token), dtype);
    const std::vector<std::uint8_t> bytes = hex_decode(parser, hex_token);
    if (bytes.size() != tensor.byte_size())
        parse_fail(parser, "payload has " + std::to_string(bytes.size()) +
                               " bytes, tensor needs " +
                               std::to_string(tensor.byte_size()));
    if (!bytes.empty())
        std::memcpy(tensor.raw_data(), bytes.data(), bytes.size());
    return tensor;
}

} // namespace

std::string
to_text(const Graph &graph)
{
    graph.validate();
    std::ostringstream out;
    out << kMagic << ' ' << kVersion << '\n';
    check_name(graph.name());
    out << "graph " << graph.name() << "\n\n";

    for (const ValueInfo &input : graph.inputs()) {
        check_name(input.name);
        out << "input " << input.name << ' ' << to_string(input.dtype)
            << ' ' << format_shape(input.shape) << '\n';
    }
    out << '\n';

    // Deterministic output: initializers sorted by name.
    std::vector<std::string> names;
    names.reserve(graph.initializers().size());
    for (const auto &[name, tensor] : graph.initializers()) {
        (void)tensor;
        names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    for (const std::string &name : names) {
        check_name(name);
        const Tensor &tensor = graph.initializer(name);
        ORPHEUS_CHECK(!tensor.layout().packed(),
                      "initializer " << name << " is in GEMM panel order");
        write_tensor_line(out, "initializer", name, tensor, false);
        out << "data " << hex_encode(tensor.raw_data(), tensor.byte_size())
            << '\n';
    }
    out << '\n';

    for (std::size_t index : graph.topological_order()) {
        const Node &node = graph.nodes()[index];
        check_name(node.name());
        check_name(node.op_type());
        out << "node " << node.name() << ' ' << node.op_type() << '\n';
        out << "inputs";
        for (const std::string &in : node.inputs()) {
            if (!in.empty())
                check_name(in);
            out << ' ' << (in.empty() ? "_" : in);
        }
        out << '\n';
        out << "outputs";
        for (const std::string &value : node.outputs()) {
            check_name(value);
            out << ' ' << value;
        }
        out << '\n';
        for (const auto &[attr_name, attr] : node.attrs())
            write_attr(out, attr_name, attr);
        out << "end\n";
    }
    out << '\n';

    for (const ValueInfo &output : graph.outputs()) {
        check_name(output.name);
        out << "output " << output.name << '\n';
    }
    return out.str();
}

Status
from_text(const std::string &text, Graph &out_graph)
{
    try {
        Parser parser(text);
        if (!parser.next_line() || parser.tokens().size() != 2 ||
            parser.tokens()[0] != kMagic) {
            return parse_error("not an orpheus-text file");
        }
        if (std::stoi(parser.tokens()[1]) != kVersion)
            return parse_error("unsupported text format version " +
                               parser.tokens()[1]);

        Graph graph;
        std::string pending_initializer_name;
        Tensor pending_initializer;
        bool have_pending_initializer = false;

        // Node under construction.
        bool in_node = false;
        std::string node_name, node_op;
        std::vector<std::string> node_inputs, node_outputs;
        AttributeMap node_attrs;

        const auto flush_initializer = [&]() {
            if (!have_pending_initializer)
                return;
            graph.add_initializer(pending_initializer_name,
                                  std::move(pending_initializer));
            have_pending_initializer = false;
        };
        const auto flush_node = [&](const Parser &where) {
            if (in_node)
                parse_fail(where, "record inside an unterminated node "
                                  "(missing 'end')");
        };

        while (parser.next_line()) {
            const auto &tokens = parser.tokens();
            const std::string &record = tokens[0];

            if (record == "graph") {
                if (tokens.size() != 2)
                    parse_fail(parser, "graph needs a name");
                graph.set_name(tokens[1]);
            } else if (record == "input") {
                flush_node(parser);
                flush_initializer();
                if (tokens.size() != 4)
                    parse_fail(parser, "input needs name, dtype, shape");
                graph.add_input(tokens[1], parse_shape(parser, tokens[3]),
                                parse_dtype(tokens[2]));
            } else if (record == "initializer") {
                flush_node(parser);
                flush_initializer();
                if (tokens.size() != 4)
                    parse_fail(parser,
                               "initializer needs name, dtype, shape");
                pending_initializer_name = tokens[1];
                pending_initializer =
                    Tensor(parse_shape(parser, tokens[3]),
                           parse_dtype(tokens[2]));
                have_pending_initializer = true;
            } else if (record == "data") {
                if (!have_pending_initializer)
                    parse_fail(parser, "data without an initializer");
                if (tokens.size() != 2)
                    parse_fail(parser, "data needs one hex payload");
                const auto bytes = hex_decode(parser, tokens[1]);
                if (bytes.size() != pending_initializer.byte_size())
                    parse_fail(parser, "payload size mismatch");
                if (!bytes.empty())
                    std::memcpy(pending_initializer.raw_data(),
                                bytes.data(), bytes.size());
                flush_initializer();
            } else if (record == "node") {
                flush_node(parser);
                flush_initializer();
                if (tokens.size() != 3)
                    parse_fail(parser, "node needs name and op type");
                in_node = true;
                node_name = tokens[1];
                node_op = tokens[2];
                node_inputs.clear();
                node_outputs.clear();
                node_attrs = AttributeMap();
            } else if (record == "inputs") {
                if (!in_node)
                    parse_fail(parser, "inputs outside a node");
                for (std::size_t i = 1; i < tokens.size(); ++i)
                    node_inputs.push_back(tokens[i] == "_" ? ""
                                                           : tokens[i]);
            } else if (record == "outputs") {
                if (!in_node)
                    parse_fail(parser, "outputs outside a node");
                node_outputs.assign(tokens.begin() + 1, tokens.end());
            } else if (record == "attr_int") {
                if (!in_node || tokens.size() != 3)
                    parse_fail(parser, "malformed attr_int");
                node_attrs.set(
                    tokens[1],
                    Attribute(static_cast<std::int64_t>(
                        std::stoll(tokens[2]))));
            } else if (record == "attr_float") {
                if (!in_node || tokens.size() != 3)
                    parse_fail(parser, "malformed attr_float");
                node_attrs.set(tokens[1], Attribute(std::stof(tokens[2])));
            } else if (record == "attr_string") {
                if (!in_node || tokens.size() < 3)
                    parse_fail(parser, "malformed attr_string");
                std::string value = tokens[2];
                for (std::size_t i = 3; i < tokens.size(); ++i)
                    value += " " + tokens[i];
                node_attrs.set(tokens[1], Attribute(std::move(value)));
            } else if (record == "attr_ints") {
                if (!in_node || tokens.size() < 2)
                    parse_fail(parser, "malformed attr_ints");
                std::vector<std::int64_t> values;
                for (std::size_t i = 2; i < tokens.size(); ++i)
                    values.push_back(
                        static_cast<std::int64_t>(std::stoll(tokens[i])));
                node_attrs.set(tokens[1], Attribute(std::move(values)));
            } else if (record == "attr_floats") {
                if (!in_node || tokens.size() < 2)
                    parse_fail(parser, "malformed attr_floats");
                std::vector<float> values;
                for (std::size_t i = 2; i < tokens.size(); ++i)
                    values.push_back(std::stof(tokens[i]));
                node_attrs.set(tokens[1], Attribute(std::move(values)));
            } else if (record == "attr_tensor") {
                if (!in_node || tokens.size() != 5)
                    parse_fail(parser, "malformed attr_tensor");
                node_attrs.set(tokens[1],
                               Attribute(parse_tensor_payload(
                                   parser, tokens[2], tokens[3],
                                   tokens[4])));
            } else if (record == "end") {
                if (!in_node)
                    parse_fail(parser, "end outside a node");
                graph.add_node(node_op, node_inputs, node_outputs,
                               std::move(node_attrs), node_name);
                in_node = false;
            } else if (record == "output") {
                flush_node(parser);
                flush_initializer();
                if (tokens.size() != 2)
                    parse_fail(parser, "output needs a name");
                graph.add_output(tokens[1]);
            } else {
                parse_fail(parser, "unknown record: " + record);
            }
        }
        if (in_node)
            return parse_error("unterminated node at end of file");
        flush_initializer();

        graph.validate();
        out_graph = std::move(graph);
        return Status::ok();
    } catch (const Error &error) {
        return parse_error(error.what());
    } catch (const std::exception &error) {
        return parse_error(std::string("text parse failed: ") +
                           error.what());
    }
}

Status
save_text_file(const Graph &graph, const std::string &path)
{
    try {
        std::ofstream file(path, std::ios::trunc);
        if (!file)
            return internal_error("cannot open for writing: " + path);
        file << to_text(graph);
        if (!file)
            return internal_error("error writing: " + path);
        return Status::ok();
    } catch (const Error &error) {
        return internal_error(error.what());
    }
}

Status
load_text_file(const std::string &path, Graph &out_graph)
{
    std::ifstream file(path);
    if (!file)
        return not_found_error("cannot open model file: " + path);
    std::stringstream buffer;
    buffer << file.rdbuf();
    return from_text(buffer.str(), out_graph);
}

} // namespace orpheus
