/**
 * @file
 * Per-layer profiling: the paper's "evaluating full networks, and
 * individual layers" infrastructure. Prints where a model spends its
 * time, layer by layer, under a chosen framework personality.
 *
 * Usage:
 *   profile_model [model] [personality] [repetitions]
 *     model        zoo name (default: wrn-40-2)
 *     personality  orpheus | tvm | pytorch | darknet (default: orpheus)
 */
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "eval/layer_bench.hpp"
#include "eval/personalities.hpp"
#include "models/model_zoo.hpp"
#include "runtime/engine.hpp"

int
main(int argc, char **argv)
{
    using namespace orpheus;

    const std::string model_name = argc > 1 ? argv[1] : "wrn-40-2";
    const std::string personality_name = argc > 2 ? argv[2] : "orpheus";
    const int repetitions = argc > 3 ? std::atoi(argv[3]) : 3;

    try {
        const FrameworkPersonality personality =
            personality_by_name(personality_name);
        Engine engine(models::by_name(model_name), personality.options);
        std::printf("profiling %s under the %s personality "
                    "(%d repetitions, 1 thread)...\n\n",
                    model_name.c_str(), personality.name.c_str(),
                    repetitions);

        const auto timings = profile_layers(engine, repetitions);
        std::printf("%s\n",
                    layer_timings_to_string(timings, /*max_rows=*/20)
                        .c_str());

        double total = 0.0;
        for (const LayerTiming &timing : timings)
            total += timing.mean_ms;
        std::printf("total network time: %.3f ms over %zu layers\n", total,
                    timings.size());

        // Aggregate per op type — the view that motivates kernel work.
        std::map<std::string, double> per_op;
        for (const LayerTiming &timing : timings)
            per_op[timing.op_type + " / " + timing.impl_name] +=
                timing.mean_ms;
        std::printf("\nper (op, implementation) totals:\n");
        for (const auto &[key, ms] : per_op)
            std::printf("  %-40s %10.3f ms  (%4.1f%%)\n", key.c_str(), ms,
                        total > 0 ? 100.0 * ms / total : 0.0);
        return 0;
    } catch (const Error &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
