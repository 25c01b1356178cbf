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
 *   2. prepare    — once at plan time: build prepacked constant caches
 *                   (packed weights, Winograd U, quantized row sums) and
 *                   report the per-invocation workspace requirement via
 *                   the PlanContext. The engine sizes one workspace
 *                   segment to the maximum across the plan (steps run
 *                   sequentially, so they share it) and hands it back
 *                   through bind_workspace().
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
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "backend/backend_config.hpp"
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
 * Cache of immutable prepacked constant tensors, shared between engine
 * replicas compiled from the same model.
 *
 * A prepared layer's constant caches (spatial-pack weight packs,
 * Winograd U, quantized weight row sums) are pure functions of the
 * model's initializers, so N replicas of one model need exactly one
 * copy. The engine pool hands every replica the same cache through
 * EngineOptions::pack_cache; layers acquire packs by key and hold a
 * shared_ptr-to-const, which makes cross-replica immutability a type
 * system guarantee rather than a convention.
 *
 * Thread-safe: replicas may lazily instantiate reference layers (and
 * thus acquire packs) concurrently. The builder runs under the cache
 * lock so a pack is built at most once; builds are rare plan-time /
 * degradation-time events, never the steady state.
 */
class ConstantPackCache
{
  public:
    using FloatPack = std::shared_ptr<const std::vector<float>>;
    using Int32Pack = std::shared_ptr<const std::vector<std::int32_t>>;

    FloatPack
    acquire_f32(const std::string &key,
                const std::function<std::vector<float>()> &build)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = f32_.find(key);
        if (it != f32_.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
        auto pack = std::make_shared<const std::vector<float>>(build());
        bytes_ += pack->size() * sizeof(float);
        f32_.emplace(key, pack);
        return pack;
    }

    Int32Pack
    acquire_i32(const std::string &key,
                const std::function<std::vector<std::int32_t>()> &build)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = i32_.find(key);
        if (it != i32_.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
        auto pack =
            std::make_shared<const std::vector<std::int32_t>>(build());
        bytes_ += pack->size() * sizeof(std::int32_t);
        i32_.emplace(key, pack);
        return pack;
    }

    /** Distinct packs held. */
    std::size_t
    entries() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return f32_.size() + i32_.size();
    }

    /** Total bytes of cached pack storage (each pack counted once,
     *  however many replicas reference it). */
    std::size_t
    bytes() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return bytes_;
    }

    /** Cache hits — acquisitions served without building. */
    std::int64_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    /** Cache misses — acquisitions that built the pack. */
    std::int64_t
    misses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return misses_;
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, FloatPack> f32_;
    std::map<std::string, Int32Pack> i32_;
    std::size_t bytes_ = 0;
    std::int64_t hits_ = 0;
    std::int64_t misses_ = 0;
};

/**
 * Plan-time accumulator for a layer's per-invocation scratch needs.
 *
 * prepare() calls reserve() once per scratch buffer; every reservation
 * is aligned to kWorkspaceAlignment so vectorised kernels keep their
 * aligned base addresses. The returned offset is stable for the life of
 * the layer — forward() resolves it against the Workspace bound later.
 *
 * Constant caches go through pack_f32/pack_i32 instead: with a shared
 * ConstantPackCache attached (engine pools) the pack is built once and
 * referenced by every replica; without one (standalone engines) the
 * layer gets a private copy, same code path.
 */
class PlanContext
{
  public:
    /** Alignment of every reservation (matches Buffer::kAlignment). */
    static constexpr std::size_t kWorkspaceAlignment = 64;

    PlanContext() = default;
    explicit PlanContext(ConstantPackCache *packs) : packs_(packs) {}

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
     * Acquires the immutable fp32 constant pack identified by @p key
     * (conventionally "<node>/<impl>/<tag>"), building it via @p build
     * on first acquisition. Shared across replicas when a cache is
     * attached; private otherwise.
     */
    ConstantPackCache::FloatPack
    pack_f32(const std::string &key,
             const std::function<std::vector<float>()> &build)
    {
        auto pack = packs_ != nullptr
                        ? packs_->acquire_f32(key, build)
                        : std::make_shared<const std::vector<float>>(build());
        pack_bytes_ += pack->size() * sizeof(float);
        return pack;
    }

    /** Int32 variant of pack_f32 (quantized weight row sums). */
    ConstantPackCache::Int32Pack
    pack_i32(const std::string &key,
             const std::function<std::vector<std::int32_t>()> &build)
    {
        auto pack =
            packs_ != nullptr
                ? packs_->acquire_i32(key, build)
                : std::make_shared<const std::vector<std::int32_t>>(build());
        pack_bytes_ += pack->size() * sizeof(std::int32_t);
        return pack;
    }

    /** Bytes of constant packs this layer references (shared or
     *  private) — footprint accounting, not workspace. */
    std::size_t pack_bytes() const { return pack_bytes_; }

  private:
    std::size_t total_ = 0;
    std::size_t pack_bytes_ = 0;
    ConstantPackCache *packs_ = nullptr;
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
     * Plan-time preparation: build prepacked constant caches and reserve
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
