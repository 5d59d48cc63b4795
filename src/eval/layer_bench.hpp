/**
 * @file
 * Per-layer timing harness ("evaluating ... individual layers", §I).
 */
#pragma once

#include <string>
#include <vector>

#include "runtime/engine.hpp"

namespace orpheus {

/** Timing of one plan step, taken from its PlanStep. */
struct LayerTiming {
    std::string node_name;
    std::string op_type;
    std::string impl_name; ///< The kernel that runs (active_impl()).
    Shape output_shape;
    std::int64_t calls = 0;
    double total_ms = 0.0;
    double mean_ms = 0.0;
    double share = 0.0; ///< Fraction of total network time.
};

/** The timings @p engine accumulated since its last reset_timings(),
 *  one per plan step in plan order. */
std::vector<LayerTiming> layer_timings(const Engine &engine);

/**
 * Runs @p repetitions inferences on @p engine with a deterministic
 * random input (after one untimed warm-up) and returns per-layer
 * timings, sorted by descending share. Resets the engine's timings.
 */
std::vector<LayerTiming> profile_layers(Engine &engine, int repetitions = 3,
                                        std::uint64_t input_seed = 0x1118);

/** Renders layer timings as an aligned text table. */
std::string layer_timings_to_string(const std::vector<LayerTiming> &timings,
                                    std::size_t max_rows = 0);

/** CSV form: node,op,impl,output_shape,calls,total_ms,mean_ms (the C
 *  ABI's orpheus_engine_profile_csv format). */
std::string layer_timings_to_csv(const std::vector<LayerTiming> &timings);

} // namespace orpheus
