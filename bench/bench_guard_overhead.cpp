/**
 * @file
 * Guard-layer overhead benchmark.
 *
 * Measures what the guarded-execution layer costs at each protection
 * level, per model:
 *   - "off"          guard disabled (the baseline fast path)
 *   - "scan"         NaN/Inf output scan on every step
 *   - "shadow-1/16"  scan + reference re-execution of 1 in 16 steps
 *   - "shadow-1/4"   scan + reference re-execution of 1 in 4 steps
 *
 * The acceptance bar from DESIGN.md: "off" must be within noise of a
 * build without the guard code (the enabled check is one branch per
 * step), and "scan" should stay in the low single-digit percent range
 * since the scan is a linear pass over data the kernel just wrote.
 * Shadow modes are expected to cost real time — they re-run work on the
 * reference kernels — which is why they are sampled, not continuous.
 */
#include "bench_util.hpp"

#include <cstdio>

#include "runtime/guard.hpp"

namespace {

using namespace orpheus;
using namespace orpheus::bench;

struct GuardLevel {
    const char *name;
    GuardPolicy policy;
};

std::vector<GuardLevel>
guard_levels()
{
    GuardPolicy off; // enabled = false by default.

    GuardPolicy scan;
    scan.enabled = true;
    scan.shadow_every_n = 0;

    GuardPolicy shadow16 = scan;
    shadow16.shadow_every_n = 16;
    // Cross-kernel rounding differs legitimately; keep the comparator
    // loose so the bench measures cost, not tolerance tuning.
    shadow16.shadow_atol = 1e-3f;
    shadow16.shadow_rtol = 1e-2f;

    GuardPolicy shadow4 = shadow16;
    shadow4.shadow_every_n = 4;

    return {{"off", off},
            {"scan", scan},
            {"shadow-1/16", shadow16},
            {"shadow-1/4", shadow4}};
}

void
guard_cell(benchmark::State &state, const std::string &model,
           const GuardLevel &level)
{
    EngineOptions options;
    options.guard = level.policy;
    set_global_num_threads(1);
    Engine engine(models::by_name(model), options);
    // One shadow cycle untimed, so every step's reference layer is
    // built before timing starts and each timed run pays only the
    // steady-state cost (run_inference_cell adds one more warm-up).
    const Tensor zeros(engine.graph().inputs().front().shape);
    for (int i = 1; i < level.policy.shadow_every_n; ++i)
        (void)engine.run(zeros);
    run_inference_cell(state, engine, model, level.name);
}

} // namespace

int
main(int argc, char **argv)
{
    // Quick mode (the CI gate) runs WRN-40-2: every cell takes tens of
    // ms, well above the regression checker's noise floor, where
    // tiny-cnn's sub-0.05 ms cells would gate nothing.
    const std::vector<std::string> model_names =
        quick_mode() ? std::vector<std::string>{"wrn-40-2"}
                     : std::vector<std::string>{"tiny-cnn", "tiny-mlp",
                                                "mobilenet-v1"};

    for (const std::string &model : model_names) {
        for (const GuardLevel &level : guard_levels()) {
            const std::string name =
                "guard/" + model + "/" + level.name;
            ::benchmark::RegisterBenchmark(
                name.c_str(),
                [model, level](::benchmark::State &state) {
                    guard_cell(state, model, level);
                })
                ->Iterations(timed_runs())
                ->UseManualTime()
                ->Unit(::benchmark::kMillisecond);
        }
    }

    const int status = orpheus::bench::run_benchmarks(argc, argv);
    print_table("Guard overhead by protection level", "model");

    // Relative cost vs the unguarded baseline, per model.
    std::printf("\noverhead vs guard-off:\n");
    std::map<std::string, double> baseline;
    for (const Cell &cell : cells()) {
        if (cell.column == "off")
            baseline[cell.row] = cell.mean_ms;
    }
    for (const Cell &cell : cells()) {
        if (cell.column == "off" || baseline[cell.row] <= 0.0)
            continue;
        std::printf("  %-14s %-12s %+7.2f%%\n", cell.row.c_str(),
                    cell.column.c_str(),
                    (cell.mean_ms / baseline[cell.row] - 1.0) * 100.0);
    }
    std::printf("\nthe scan level is the always-on production setting; "
                "shadow sampling buys silent-corruption detection at a "
                "duty-cycle-proportional cost.\n");
    write_json("guard_overhead");
    return status;
}
