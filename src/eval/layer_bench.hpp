/**
 * @file
 * Per-layer timing harness ("evaluating ... individual layers", §I).
 *
 * The engine times every plan step itself (PlanStep::invocations and
 * PlanStep::run_ms); this module turns those counters into rows and
 * renders them as one text table and one CSV.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/engine.hpp"

namespace orpheus {

/** Accumulated timing of one plan step. */
struct LayerTiming {
    std::string node_name;
    std::string op_type;
    std::string impl_name; ///< The kernel in the step when read.
    Shape output_shape;
    std::int64_t calls = 0;
    double total_ms = 0.0;
    double mean_ms = 0.0;
    double share = 0.0; ///< Fraction of total network time.
};

/**
 * One row per plan step of @p engine, in plan order, over every run
 * since the engine was compiled. Read while the engine is idle (see
 * PlanStep::run_ms).
 */
std::vector<LayerTiming> layer_timings(const Engine &engine);

/**
 * Runs one warm-up and then @p repetitions inferences on @p engine with
 * a deterministic random input, and returns the per-layer timings of
 * the repetitions alone, sorted by descending share.
 */
std::vector<LayerTiming> profile_layers(Engine &engine, int repetitions = 3,
                                        std::uint64_t input_seed = 0x1118);

/** Renders layer timings as an aligned text table. */
std::string layer_timings_to_string(const std::vector<LayerTiming> &timings,
                                    std::size_t max_rows = 0);

/** CSV form: node,op,impl,output_shape,calls,total_ms,mean_ms. */
std::string layer_timings_to_csv(const std::vector<LayerTiming> &timings);

} // namespace orpheus
