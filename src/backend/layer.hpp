/**
 * @file
 * The Layer abstraction — the paper's central programming-model idea.
 *
 * "In Orpheus, layers are treated as first class citizens, and have
 *  multiple implementations which are selected at runtime."
 *
 * A Layer is one executable implementation of one graph node. Its
 * lifecycle has three stages, all driven by the engine:
 *
 *   1. construct  — from a LayerInit (static shapes, attributes,
 *                   resolved constant inputs): decode hyper-parameters.
 *   2. prepare    — once at plan time, after the engine has lowered
 *                   each constant input into the layout the layer asked
 *                   for (constant_layout): build derived constants
 *                   (spatial-pack weight order, Winograd U, quantized
 *                   row sums) and report the per-invocation workspace
 *                   requirement via the PlanContext. The engine sizes
 *                   one workspace segment to the maximum across the plan
 *                   (steps run sequentially, so they share it) and hands
 *                   it back through bind_workspace().
 *   3. forward    — per inference with the resolved runtime tensors;
 *                   steady-state execution carves all scratch from the
 *                   bound workspace and performs no heap allocation.
 *
 * A layer that is never prepared (the ablation baseline, or a layer
 * instantiated outside an engine) must still work: kernels fall back to
 * self-managed scratch when no workspace is bound.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend_config.hpp"
#include "core/status.hpp"
#include "core/tensor.hpp"
#include "graph/graph.hpp"

namespace orpheus {

/** Static, plan-time view of a node handed to kernel factories. */
struct LayerInit {
    /** The node being compiled. Valid for the duration of planning. */
    const Node *node = nullptr;

    /** Signatures of node inputs (index-aligned; empty name for omitted
     *  optional inputs). */
    std::vector<ValueInfo> input_infos;

    /** Signatures of node outputs (index-aligned). */
    std::vector<ValueInfo> output_infos;

    /**
     * Constant (initializer) inputs, index-aligned with node inputs;
     * nullptr where the input is a runtime value. Pointers remain valid
     * for the lifetime of the compiled model.
     */
    std::vector<const Tensor *> constant_inputs;

    /** Active backend configuration. */
    const BackendConfig *config = nullptr;

    const ValueInfo &
    input(std::size_t index) const
    {
        return input_infos.at(index);
    }

    const ValueInfo &
    output(std::size_t index) const
    {
        return output_infos.at(index);
    }

    /** Constant tensor for input @p index or nullptr. */
    const Tensor *
    constant(std::size_t index) const
    {
        return index < constant_inputs.size() ? constant_inputs[index]
                                              : nullptr;
    }
};

/**
 * Plan-time accumulator for a layer's per-invocation scratch needs.
 *
 * prepare() calls reserve() once per scratch buffer; every reservation
 * is aligned to kWorkspaceAlignment so vectorised kernels keep their
 * aligned base addresses. The returned offset is stable for the life of
 * the layer — forward() resolves it against the Workspace bound later.
 *
 * Derived constants go through derived() instead: with the engine's
 * graph attached they are stored in its derived_constants(), so
 * engine-pool replicas, which compile from copies of one lowered graph,
 * share them; without a graph the layer gets a private copy, same code
 * path.
 */
class PlanContext
{
  public:
    /** Alignment of every reservation (matches Buffer::kAlignment). */
    static constexpr std::size_t kWorkspaceAlignment = 64;

    PlanContext() = default;
    explicit PlanContext(Graph *graph) : graph_(graph) {}

    /** Reserves @p bytes of workspace; returns the aligned offset. */
    std::size_t
    reserve(std::size_t bytes)
    {
        const std::size_t offset = total_;
        total_ += (bytes + kWorkspaceAlignment - 1) / kWorkspaceAlignment *
                  kWorkspaceAlignment;
        return offset;
    }

    /** Total bytes reserved so far. */
    std::size_t workspace_bytes() const { return total_; }

    /**
     * The constant @p key (conventionally "<node output>/<impl>/<tag>",
     * unique in a valid graph) that @p build derives from @p source,
     * a @p dtype tensor of @p shape. The attached graph keeps it in its
     * derived_constants(), never among the model's initializers, so a
     * graph copied from this one (every replica of a pool) finds it. A
     * stored entry is reused only when it was derived from this very
     * weight Buffer and has this shape and type; otherwise @p build runs
     * again and its result replaces the entry. Without a graph, @p build
     * runs for this layer alone.
     */
    Tensor
    derived(const std::string &key, const Tensor &source,
            const Shape &shape, DataType dtype,
            const std::function<Tensor()> &build)
    {
        if (graph_ != nullptr) {
            const auto &store = graph_->derived_constants();
            const auto it = store.find(key);
            if (it != store.end() &&
                it->second.source == source.buffer() &&
                it->second.value.shape() == shape &&
                it->second.value.dtype() == dtype)
                return it->second.value;
        }
        Tensor value = build();
        ORPHEUS_CHECK(value.shape() == shape && value.dtype() == dtype,
                      "derived constant " << key << " was built as "
                                          << value.shape()
                                          << ", expected " << shape);
        if (graph_ != nullptr)
            graph_->derived_constants()[key] =
                DerivedConstant{value, source.buffer()};
        return value;
    }

  private:
    std::size_t total_ = 0;
    Graph *graph_ = nullptr;
};

/**
 * Run-time view of the engine-owned workspace segment. Non-owning and
 * trivially copyable; an unbound (default) workspace resolves every
 * offset to nullptr, which kernels treat as "allocate your own scratch".
 */
class Workspace
{
  public:
    Workspace() = default;
    Workspace(void *base, std::size_t size)
        : base_(static_cast<char *>(base)), size_(size)
    {
    }

    bool bound() const { return base_ != nullptr; }
    std::size_t size() const { return size_; }

    /** Pointer to the reservation at @p offset, or nullptr if unbound. */
    template <typename T>
    T *
    at(std::size_t offset) const
    {
        return base_ != nullptr ? reinterpret_cast<T *>(base_ + offset)
                                : nullptr;
    }

  private:
    char *base_ = nullptr;
    std::size_t size_ = 0;
};

class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * The layout this layer reads constant input @p input in (a packed
     * GEMM weight: TensorLayout::kPanelA or kPanelB). A preparing engine
     * lowers a weight that only this input reads into that layout
     * before prepare(), in place of the original; every other constant
     * stays row-major. The default reads everything row-major. A layer
     * must still accept its constants row-major (an unprepared engine,
     * a weight shared by two nodes).
     */
    virtual TensorLayout
    constant_layout(std::size_t input) const
    {
        (void)input;
        return {};
    }

    /**
     * Plan-time preparation: build derived constants and reserve
     * per-invocation workspace via @p ctx. Called exactly once by the
     * engine, after construction and before the first forward(). The
     * default prepares nothing.
     */
    virtual void prepare(PlanContext &ctx) { (void)ctx; }

    /**
     * Hands the layer the engine's workspace segment. May be called
     * again (with a larger segment) when a later-prepared layer grows
     * the requirement; implementations must just store the view.
     */
    virtual void bind_workspace(const Workspace &workspace)
    {
        (void)workspace;
    }

    /**
     * Executes the layer. @p inputs / @p outputs are index-aligned with
     * the node's value lists (omitted optional inputs are nullptr);
     * output tensors are pre-allocated by the engine's memory planner.
     */
    virtual void forward(const std::vector<const Tensor *> &inputs,
                         const std::vector<Tensor *> &outputs) = 0;

    /** Registry implementation name, e.g. "conv.im2col_gemm". */
    const std::string &impl_name() const { return impl_name_; }

  private:
    /** Set once, by KernelRegistry::instantiate right after
     *  construction. */
    friend class KernelRegistry;
    std::string impl_name_;
};

} // namespace orpheus
