#include "eval/layer_bench.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/rng.hpp"

namespace orpheus {

std::vector<LayerTiming>
layer_timings(const Engine &engine)
{
    double total = 0.0;
    for (const PlanStep &step : engine.steps())
        total += step.total_ms;
    std::vector<LayerTiming> timings;
    timings.reserve(engine.steps().size());
    for (const PlanStep &step : engine.steps()) {
        LayerTiming timing;
        timing.node_name = step.node_name;
        timing.op_type = step.op_type;
        timing.impl_name = step.active_impl();
        timing.output_shape = step.output_shape;
        timing.calls = step.calls;
        timing.total_ms = step.total_ms;
        timing.mean_ms = step.calls > 0
                             ? step.total_ms / static_cast<double>(step.calls)
                             : 0.0;
        timing.share = total > 0.0 ? step.total_ms / total : 0.0;
        timings.push_back(std::move(timing));
    }
    return timings;
}

std::vector<LayerTiming>
profile_layers(Engine &engine, int repetitions, std::uint64_t input_seed)
{
    ORPHEUS_CHECK(engine.graph().inputs().size() == 1,
                  "profile_layers expects a single-input graph");

    Rng rng(input_seed);
    Tensor input =
        random_tensor(engine.graph().inputs().front().shape, rng);

    (void)engine.run(input); // Warm-up, dropped by the reset below.
    engine.reset_timings();
    for (int i = 0; i < repetitions; ++i)
        (void)engine.run(input);

    std::vector<LayerTiming> timings = layer_timings(engine);
    std::stable_sort(timings.begin(), timings.end(),
                     [](const LayerTiming &a, const LayerTiming &b) {
                         return a.share > b.share;
                     });
    return timings;
}

std::string
layer_timings_to_string(const std::vector<LayerTiming> &timings,
                        std::size_t max_rows)
{
    std::ostringstream out;
    out << std::left << std::setw(30) << "node" << std::setw(18) << "op"
        << std::setw(20) << "impl" << std::right << std::setw(12)
        << "mean ms" << std::setw(9) << "share" << "\n";
    out << std::string(89, '-') << "\n";
    std::size_t rows = 0;
    for (const LayerTiming &timing : timings) {
        if (max_rows > 0 && rows++ >= max_rows)
            break;
        out << std::left << std::setw(30) << timing.node_name
            << std::setw(18) << timing.op_type << std::setw(20)
            << timing.impl_name << std::right << std::setw(12) << std::fixed
            << std::setprecision(3) << timing.mean_ms << std::setw(8)
            << std::setprecision(1) << timing.share * 100.0 << "%\n";
    }
    return out.str();
}

std::string
layer_timings_to_csv(const std::vector<LayerTiming> &timings)
{
    std::ostringstream out;
    out << "node,op,impl,output_shape,calls,total_ms,mean_ms\n";
    for (const LayerTiming &timing : timings) {
        out << timing.node_name << ',' << timing.op_type << ','
            << timing.impl_name << ",\"" << timing.output_shape << "\","
            << timing.calls << ',' << timing.total_ms << ','
            << timing.mean_ms << "\n";
    }
    return out.str();
}

} // namespace orpheus
