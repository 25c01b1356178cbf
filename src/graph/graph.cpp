#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <queue>
#include <sstream>
#include <unordered_set>

namespace orpheus {

void
Graph::add_input(const std::string &name, Shape shape, DataType dtype)
{
    ORPHEUS_CHECK(!name.empty(), "graph input name must not be empty");
    ORPHEUS_CHECK(!is_graph_input(name), "duplicate graph input: " << name);
    inputs_.push_back(ValueInfo{name, dtype, std::move(shape)});
}

void
Graph::add_output(const std::string &name, Shape shape, DataType dtype)
{
    ORPHEUS_CHECK(!name.empty(), "graph output name must not be empty");
    ORPHEUS_CHECK(!is_graph_output(name), "duplicate graph output: " << name);
    outputs_.push_back(ValueInfo{name, dtype, std::move(shape)});
}

void
Graph::add_initializer(const std::string &name, Tensor tensor)
{
    ORPHEUS_CHECK(!name.empty(), "initializer name must not be empty");
    ORPHEUS_CHECK(!has_initializer(name), "duplicate initializer: " << name);
    initializers_.emplace(name, std::move(tensor));
}

Node &
Graph::add_node(const std::string &op_type, std::vector<std::string> inputs,
                std::vector<std::string> outputs, AttributeMap attrs,
                std::string name)
{
    ORPHEUS_CHECK(!outputs.empty(),
                  "node of type " << op_type << " needs at least one output");
    if (name.empty())
        name = op_type + "_" + std::to_string(name_counter_++);
    nodes_.emplace_back(op_type, std::move(name), std::move(inputs),
                        std::move(outputs), std::move(attrs));
    return nodes_.back();
}

const Tensor &
Graph::initializer(const std::string &name) const
{
    auto it = initializers_.find(name);
    ORPHEUS_CHECK(it != initializers_.end(), "no initializer named " << name);
    return it->second;
}

void
Graph::remove_initializer(const std::string &name)
{
    initializers_.erase(name);
}

void
Graph::replace_initializer(const std::string &name, Tensor tensor)
{
    auto it = initializers_.find(name);
    ORPHEUS_CHECK(it != initializers_.end(), "no initializer named " << name);
    it->second = std::move(tensor);
}

std::size_t
Graph::readers(const std::string &name) const
{
    std::size_t reads = is_graph_output(name) ? 1 : 0;
    for (const Node &node : nodes_)
        reads += static_cast<std::size_t>(
            std::count(node.inputs().begin(), node.inputs().end(), name));
    return reads;
}

Tensor *
Graph::writable_initializer(const std::string &name)
{
    auto it = initializers_.find(name);
    ORPHEUS_CHECK(it != initializers_.end(), "no initializer named " << name);
    // A count of 1 cannot race upward: another reference could only be
    // made by copying this graph's own Tensor, and the caller holds the
    // graph by non-const reference. A count above 1 may fall to 1 at any
    // time, which only costs a needless copy. When the count reads 1,
    // the acquire fence orders this thread's writes after the accesses
    // of a holder that released its copy on another thread.
    const std::shared_ptr<Buffer> &buffer = it->second.buffer();
    if (readers(name) != 1 || buffer == nullptr || buffer.use_count() != 1 ||
        !buffer->owns_memory())
        return nullptr;
    std::atomic_thread_fence(std::memory_order_acquire);
    return &it->second;
}

Tensor
Graph::take_writable_initializer(const std::string &name)
{
    if (Tensor *stored = writable_initializer(name)) {
        Tensor taken = std::move(*stored);
        initializers_.erase(name);
        return taken;
    }
    Tensor copy = initializer(name).clone();
    if (readers(name) == 1)
        initializers_.erase(name);
    return copy;
}

bool
Graph::is_graph_input(const std::string &name) const
{
    return std::any_of(inputs_.begin(), inputs_.end(),
                       [&](const ValueInfo &v) { return v.name == name; });
}

bool
Graph::is_graph_output(const std::string &name) const
{
    return std::any_of(outputs_.begin(), outputs_.end(),
                       [&](const ValueInfo &v) { return v.name == name; });
}

std::optional<std::size_t>
Graph::producer(const std::string &value) const
{
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        for (const std::string &out : nodes_[i].outputs()) {
            if (out == value)
                return i;
        }
    }
    return std::nullopt;
}

std::vector<std::size_t>
Graph::consumers(const std::string &value) const
{
    std::vector<std::size_t> result;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        for (const std::string &in : nodes_[i].inputs()) {
            if (in == value) {
                result.push_back(i);
                break;
            }
        }
    }
    return result;
}

std::vector<std::size_t>
Graph::topological_order() const
{
    // Kahn's algorithm over value-name edges. Inputs that are graph
    // inputs or initializers are ready immediately.
    std::unordered_map<std::string, std::size_t> produced_by;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        for (const std::string &out : nodes_[i].outputs())
            produced_by[out] = i;
    }

    std::vector<std::size_t> in_degree(nodes_.size(), 0);
    std::vector<std::vector<std::size_t>> dependents(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        for (const std::string &in : nodes_[i].inputs()) {
            if (in.empty())
                continue;
            auto it = produced_by.find(in);
            if (it != produced_by.end() && it->second != i) {
                dependents[it->second].push_back(i);
                ++in_degree[i];
            }
        }
    }

    // A plain queue keeps the order stable (original index order among
    // ready nodes), which makes plans and dumps deterministic.
    std::queue<std::size_t> ready;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (in_degree[i] == 0)
            ready.push(i);
    }

    std::vector<std::size_t> order;
    order.reserve(nodes_.size());
    while (!ready.empty()) {
        const std::size_t current = ready.front();
        ready.pop();
        order.push_back(current);
        for (std::size_t next : dependents[current]) {
            if (--in_degree[next] == 0)
                ready.push(next);
        }
    }

    ORPHEUS_CHECK(order.size() == nodes_.size(),
                  "graph " << name_ << " contains a cycle ("
                           << nodes_.size() - order.size()
                           << " nodes unreachable)");
    return order;
}

std::string
Graph::unique_value_name(const std::string &base)
{
    return base + "__" + std::to_string(name_counter_++);
}

void
Graph::validate() const
{
    std::unordered_set<std::string> defined;
    for (const ValueInfo &input : inputs_)
        defined.insert(input.name);
    for (const auto &[name, tensor] : initializers_) {
        (void)tensor;
        defined.insert(name);
    }

    std::unordered_set<std::string> produced;
    for (const Node &node : nodes_) {
        for (const std::string &out : node.outputs()) {
            ORPHEUS_CHECK(!out.empty(),
                          "node " << node.name() << " has an unnamed output");
            ORPHEUS_CHECK(produced.insert(out).second,
                          "value " << out << " is produced more than once");
            ORPHEUS_CHECK(defined.count(out) == 0,
                          "value " << out
                                   << " shadows a graph input/initializer");
        }
    }

    // Check node inputs against the transitive definition set in
    // topological order (also verifies acyclicity).
    for (std::size_t index : topological_order()) {
        const Node &node = nodes_[index];
        for (const std::string &in : node.inputs()) {
            if (in.empty())
                continue;
            ORPHEUS_CHECK(defined.count(in) > 0 || produced.count(in) > 0,
                          "node " << node.name() << " reads undefined value "
                                  << in);
        }
    }

    for (const ValueInfo &output : outputs_) {
        ORPHEUS_CHECK(produced.count(output.name) > 0 ||
                          defined.count(output.name) > 0,
                      "graph output " << output.name << " is never produced");
    }
}

void
Graph::replace_all_uses(const std::string &from, const std::string &to)
{
    for (Node &node : nodes_) {
        for (std::string &in : node.inputs()) {
            if (in == from)
                in = to;
        }
    }
    for (ValueInfo &output : outputs_) {
        if (output.name == from)
            output.name = to;
    }
}

void
Graph::remove_nodes(const std::vector<std::size_t> &indices)
{
    if (indices.empty())
        return;
    std::unordered_set<std::size_t> doomed(indices.begin(), indices.end());
    std::vector<Node> kept;
    kept.reserve(nodes_.size() - doomed.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (doomed.count(i) == 0)
            kept.push_back(std::move(nodes_[i]));
    }
    nodes_ = std::move(kept);
}

std::string
Graph::to_string() const
{
    std::ostringstream out;
    out << "graph " << name_ << " {\n";
    for (const ValueInfo &input : inputs_)
        out << "  input " << input.name << ": " << input.dtype << input.shape
            << "\n";
    out << "  initializers: " << initializers_.size() << "\n";
    for (const Node &node : nodes_)
        out << "  " << node.to_string() << "\n";
    for (const ValueInfo &output : outputs_)
        out << "  output " << output.name << "\n";
    out << "}";
    return out.str();
}

} // namespace orpheus
