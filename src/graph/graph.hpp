/**
 * @file
 * The Orpheus computation graph IR.
 *
 * A Graph owns a list of Nodes plus the metadata needed to execute them:
 * typed graph inputs/outputs and an initializer map holding constant
 * tensors (weights). Values are referenced by name; the Graph provides
 * producer/consumer queries, topological ordering, structural validation
 * and the mutation helpers the simplification passes are built from.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tensor.hpp"
#include "graph/node.hpp"

namespace orpheus {

/** Name + type signature of a graph input or output. */
struct ValueInfo {
    std::string name;
    DataType dtype = DataType::kFloat32;
    Shape shape;
};

/** A constant an engine derived from a weight at plan time. */
struct DerivedConstant {
    Tensor value;
    /** The weight's storage when @c value was made. Holding it keeps
     *  the identity meaningful: no other weight can take its place. */
    std::shared_ptr<Buffer> source;
};

class Graph
{
  public:
    explicit Graph(std::string name = "graph") : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    // --- Structure ------------------------------------------------------

    /** Declares a graph input with its static signature. */
    void add_input(const std::string &name, Shape shape,
                   DataType dtype = DataType::kFloat32);

    /** Declares a graph output. Shape may be empty (filled by inference). */
    void add_output(const std::string &name, Shape shape = {},
                    DataType dtype = DataType::kFloat32);

    /** Registers a constant tensor (weight) under @p name. */
    void add_initializer(const std::string &name, Tensor tensor);

    /**
     * Appends a node. If @p name is empty a unique one is derived from
     * the op type. Returns a reference valid until the node list is next
     * mutated.
     */
    Node &add_node(const std::string &op_type,
                   std::vector<std::string> inputs,
                   std::vector<std::string> outputs, AttributeMap attrs = {},
                   std::string name = "");

    const std::vector<ValueInfo> &inputs() const { return inputs_; }
    std::vector<ValueInfo> &inputs() { return inputs_; }
    const std::vector<ValueInfo> &outputs() const { return outputs_; }
    std::vector<ValueInfo> &outputs() { return outputs_; }

    const std::vector<Node> &nodes() const { return nodes_; }
    std::vector<Node> &nodes() { return nodes_; }

    const std::unordered_map<std::string, Tensor> &initializers() const
    {
        return initializers_;
    }

    bool has_initializer(const std::string &name) const
    {
        return initializers_.count(name) > 0;
    }

    /** Initializer lookup; throws orpheus::Error when absent. */
    const Tensor &initializer(const std::string &name) const;

    /** Removes an initializer if present. */
    void remove_initializer(const std::string &name);

    /**
     * Stores @p tensor as initializer @p name in place of the current
     * one: the stored Tensor keeps its address, so pointers to it stay
     * valid, and the old storage is freed with its last reference.
     * Throws orpheus::Error when absent.
     */
    void replace_initializer(const std::string &name, Tensor tensor);

    /** Node inputs that read @p name, plus one if it is a graph output. */
    std::size_t readers(const std::string &name) const;

    /**
     * The stored initializer @p name itself, for writing in place, when
     * nothing else can see its storage: the graph's tensor is the
     * buffer's only reference, the buffer owns its memory, exactly one
     * node input reads @p name and it is not a graph output. nullptr
     * otherwise. Throws orpheus::Error when absent.
     */
    Tensor *writable_initializer(const std::string &name);

    /**
     * Hands a pass the initializer @p name as a tensor it may write,
     * for rewriting the one node input that reads it. Returns the
     * stored tensor itself (no copy) when writable_initializer() would
     * give it, otherwise a clone(). Removes
     * @p name from the graph unless another reader still needs it.
     * Throws orpheus::Error when absent.
     */
    Tensor take_writable_initializer(const std::string &name);

    /**
     * Constants an engine derived from this graph's weights at plan time
     * (spatial-pack weight order, Winograd U, int8 row sums), keyed
     * "<node output>/<impl>/<tag>". They live apart from the
     * initializers, so no model file, pass or exporter reads or writes
     * them and no model initializer can stand in for one; copies of the
     * graph share them, as they share every Buffer.
     */
    const std::unordered_map<std::string, DerivedConstant> &
    derived_constants() const
    {
        return derived_constants_;
    }
    std::unordered_map<std::string, DerivedConstant> &derived_constants()
    {
        return derived_constants_;
    }

    bool is_graph_input(const std::string &name) const;
    bool is_graph_output(const std::string &name) const;

    // --- Queries ---------------------------------------------------------

    /** Index of the node producing @p value, or nullopt. */
    std::optional<std::size_t> producer(const std::string &value) const;

    /** Indices of all nodes consuming @p value. */
    std::vector<std::size_t> consumers(const std::string &value) const;

    /**
     * Node indices in a valid execution order (inputs before uses).
     * Throws orpheus::Error if the graph contains a cycle.
     */
    std::vector<std::size_t> topological_order() const;

    /** Generates a value name, unique within the graph, from @p base. */
    std::string unique_value_name(const std::string &base);

    /**
     * Structural validation: every node input must be a graph input, an
     * initializer or some node's output; every output name is produced
     * exactly once; graph outputs exist. Throws on violation.
     */
    void validate() const;

    // --- Mutation helpers (used by passes) --------------------------------

    /** Rewrites every node input (and graph output) @p from to @p to. */
    void replace_all_uses(const std::string &from, const std::string &to);

    /** Erases the nodes whose indices are in @p indices. */
    void remove_nodes(const std::vector<std::size_t> &indices);

    /** Multi-line human-readable dump of the whole graph. */
    std::string to_string() const;

  private:
    std::string name_;
    std::vector<ValueInfo> inputs_;
    std::vector<ValueInfo> outputs_;
    std::vector<Node> nodes_;
    std::unordered_map<std::string, Tensor> initializers_;
    std::unordered_map<std::string, DerivedConstant> derived_constants_;
    std::uint64_t name_counter_ = 0;
};

} // namespace orpheus
