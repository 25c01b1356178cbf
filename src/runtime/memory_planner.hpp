/**
 * @file
 * Activation-memory planning.
 *
 * Edge devices are memory constrained, so the engine does not allocate
 * every intermediate tensor separately: a liveness analysis over the
 * topologically ordered plan assigns each intermediate value an offset
 * in one shared arena, reusing the space of values whose last consumer
 * has already run. The planner uses the greedy-by-size interval-overlap
 * strategy (largest tensors placed first, lowest non-conflicting offset
 * wins). Ablation C (bench_memory) reports planned vs naive footprints.
 */
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/shape_inference.hpp"

namespace orpheus {

/** Placement of one intermediate value inside the arena. */
struct ArenaSlot {
    std::size_t offset = 0;
    std::size_t size = 0;
};

struct MemoryPlan {
    /** Total arena bytes required. */
    std::size_t arena_size = 0;
    /** Sum of all intermediate tensor sizes (no-reuse baseline). */
    std::size_t naive_size = 0;
    /** Bytes of dedicated (non-arena) storage: graph inputs plus graph
     *  outputs. Together with the arena this bounds the activation
     *  footprint of one request. */
    std::size_t io_bytes = 0;
    /** Kernel workspace segment: the maximum per-invocation scratch any
     *  plan step reserved during layer preparation (im2col columns,
     *  padded inputs, packed panels, quantized accumulators). Steps run
     *  sequentially, so one segment serves the whole plan. Filled in by
     *  the engine after kernel preparation; 0 when preparation is off. */
    std::size_t workspace_bytes = 0;
    /** Per-value placements, keyed by value name. */
    std::unordered_map<std::string, ArenaSlot> slots;
};

/**
 * Peak activation bytes one request needs under this plan: the arena
 * (or the naive per-value total when @p arena_reuse is false) plus the
 * dedicated input/output storage plus the kernel workspace segment.
 * The admission controller compares this against a request's memory
 * budget before dispatch.
 */
std::size_t request_footprint_bytes(const MemoryPlan &plan,
                                    bool arena_reuse = true);

/**
 * Plans arena placements for every value produced by a node that is not
 * a graph output (graph outputs get dedicated storage so they survive
 * the call). @p order must be a valid topological order of
 * @p graph.nodes().
 */
MemoryPlan plan_memory(const Graph &graph, const ValueInfoMap &infos,
                       const std::vector<std::size_t> &order);

} // namespace orpheus
