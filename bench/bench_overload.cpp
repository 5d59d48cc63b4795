/**
 * @file
 * Overload robustness benchmark: latency-class isolation at 3x capacity.
 *
 * One scenario, three paced open-loop phases against a 4-worker
 * InferenceService on tiny-cnn whose per-request service time is pinned
 * to ~2 ms with an injected kernel delay (so arrival pacing and capacity
 * math are noise-resistant):
 *
 *   unloaded     real-time traffic only at 0.5x capacity — the
 *                reference tail for the isolation claim.
 *   overload_3x  3x capacity, 20% real-time / 80% batch — batch is
 *                deferred and refused at its full lane, real-time
 *                rides through.
 *   recovery_1x  ~0.9x capacity, same mix — batch goodput must recover
 *                once the flood stops.
 *
 * Cells use `_ms` / `_pct` suffixes so the regression gate treats them
 * as absolute bounds rather than time shares. With ORPHEUS_OVERLOAD=1
 * the binary additionally enforces the paper-style isolation gate:
 *   - overloaded real-time p99.9 <= 2x the unloaded p99.9 (1 ms floor);
 *   - zero real-time requests shed or rejected under overload;
 *   - batch goodput > 0 under overload (degraded, never starved) and
 *     >= 90% once load returns to ~1x.
 */
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <utility>

#include "runtime/fault_injector.hpp"
#include "runtime/service.hpp"

namespace {

using namespace orpheus;
using namespace orpheus::bench;

/** Injected per-request kernel delay: dominates tiny-cnn compute, so
 *  service time is stable across machines. */
constexpr double kInjectedDelayMs = 2.0;
/** 4 workers keep the wait-for-a-free-worker tail (the unavoidable
 *  non-preemptive head-of-line cost, at most one service time) small
 *  next to the service time itself, so the 2x-unloaded bound has
 *  structural margin instead of sitting exactly on it. */
constexpr int kWorkers = 4;
/** Every kRtStride-th request in mixed phases is real-time (20%). */
constexpr int kRtStride = 5;

struct PhaseResult {
    std::vector<double> rt_latencies_ms; ///< queue+run of OK rt requests.
    std::int64_t rt_submitted = 0;
    std::int64_t rt_ok = 0;
    std::int64_t rt_shed = 0; ///< Requests shed from the rt lane.
    std::int64_t batch_submitted = 0;
    std::int64_t batch_ok = 0;
};

/** Accumulated over all timed runs; cells and the gate read these. */
struct ScenarioTotals {
    PhaseResult unloaded;
    PhaseResult overload;
    PhaseResult recovery;
    double mean_service_ms = 0; ///< Warm-up estimate from the last run.
};

ScenarioTotals &
totals()
{
    static ScenarioTotals storage;
    return storage;
}

void
accumulate(PhaseResult &into, const PhaseResult &phase)
{
    into.rt_latencies_ms.insert(into.rt_latencies_ms.end(),
                                phase.rt_latencies_ms.begin(),
                                phase.rt_latencies_ms.end());
    into.rt_submitted += phase.rt_submitted;
    into.rt_ok += phase.rt_ok;
    into.rt_shed += phase.rt_shed;
    into.batch_submitted += phase.batch_submitted;
    into.batch_ok += phase.batch_ok;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
goodput_pct(const PhaseResult &phase)
{
    if (phase.batch_submitted == 0)
        return 0.0;
    return 100.0 * static_cast<double>(phase.batch_ok) /
           static_cast<double>(phase.batch_submitted);
}

/**
 * Open-loop phase driver: submits `total` requests on an absolute
 * schedule (request k at start + k * interval, independent of service
 * backpressure — overload must not be throttled by the client), then
 * drains every future. `rt_stride` == 1 makes every request real-time;
 * otherwise every rt_stride-th is real-time and the rest are batch.
 */
PhaseResult
drive_phase(InferenceService &service, const Tensor &input, int total,
            double interval_ms, int rt_stride)
{
    const ServiceStats before = service.stats();
    PhaseResult result;

    std::vector<std::pair<bool, std::future<InferenceResponse>>> inflight;
    inflight.reserve(static_cast<std::size_t>(total));
    const auto start = std::chrono::steady_clock::now();
    for (int k = 0; k < total; ++k) {
        std::this_thread::sleep_until(
            start + std::chrono::microseconds(static_cast<std::int64_t>(
                        interval_ms * 1000.0 * static_cast<double>(k))));
        const bool rt = (k % rt_stride) == 0;
        inflight.emplace_back(
            rt, service.submit({{"input", input}}, DeadlineToken{}, 0,
                               rt ? RequestPriority::kRealtime
                                  : RequestPriority::kBatch));
    }
    for (auto &[rt, future] : inflight) {
        const InferenceResponse response = future.get();
        if (rt) {
            ++result.rt_submitted;
            if (response.status.is_ok()) {
                ++result.rt_ok;
                result.rt_latencies_ms.push_back(response.queue_ms +
                                                 response.run_ms);
            }
        } else {
            ++result.batch_submitted;
            if (response.status.is_ok())
                ++result.batch_ok;
        }
    }

    const ServiceStats after = service.stats();
    const std::size_t rt_lane =
        priority_index(RequestPriority::kRealtime);
    result.rt_shed = after.class_shed[rt_lane] - before.class_shed[rt_lane];
    return result;
}

void
overload_scenario(::benchmark::State &state)
{
    const int unloaded_requests = quick_mode() ? 60 : 200;
    const int overload_requests = quick_mode() ? 240 : 900;
    const int recovery_requests = quick_mode() ? 120 : 400;

    for (auto _ : state) {
        EngineOptions engine_options;
        engine_options.fault_injector = std::make_shared<FaultInjector>();
        // Conv_0 runs once per request, so each request stalls exactly
        // once (per-step matchers would stack per plan step).
        engine_options.fault_injector->arm_delay("Conv_0", "",
                                                 kInjectedDelayMs, 0, -1);

        ServiceOptions options;
        options.workers = kWorkers;
        options.replicas = kWorkers;
        options.max_queue_depth = 16;
        // Wide enough to absorb catch-up bursts when the paced
        // submitter oversleeps; the gate demands zero rt rejections.
        options.rt_queue_depth = 8;
        options.enable_watchdog = false;
        // Pure strict priority: this scenario is the rt-centric
        // deployment posture. Batch cannot starve here anyway (rt load
        // alone is 0.6x capacity, so batch gets the remaining pops),
        // and an aging queue-jump costs the rt tail a full service
        // time, which p99.9 always captures. The aging path itself is
        // covered by test_service.
        options.aging_credit_limit = 0;
        InferenceService service(models::tiny_cnn(), engine_options,
                                 options);

        Rng rng(0xfeed);
        Tensor input = random_tensor(
            service.engine().graph().inputs().front().shape, rng);

        // Measure the actual mean service time so arrival rates are
        // expressed as multiples of true capacity (workers / t).
        double warm_total_ms = 0;
        const int warm_runs = 8;
        for (int i = 0; i < warm_runs; ++i)
            warm_total_ms += service.run({{"input", input}}).run_ms;
        const double service_ms =
            std::max(0.5, warm_total_ms / warm_runs);
        totals().mean_service_ms = service_ms;
        const auto interval_for = [service_ms](double rate_factor) {
            return service_ms / (rate_factor * kWorkers);
        };

        Timer timer;
        const PhaseResult unloaded =
            drive_phase(service, input, unloaded_requests,
                        interval_for(0.5), /*rt_stride=*/1);
        const PhaseResult overload =
            drive_phase(service, input, overload_requests,
                        interval_for(3.0), kRtStride);
        const PhaseResult recovery =
            drive_phase(service, input, recovery_requests,
                        interval_for(0.9), kRtStride);
        state.SetIterationTime(timer.elapsed_ms() / 1000.0);

        accumulate(totals().unloaded, unloaded);
        accumulate(totals().overload, overload);
        accumulate(totals().recovery, recovery);
    }
}

/** Applies the isolation gate (ORPHEUS_OVERLOAD=1). Returns 0 on pass. */
int
check_gate()
{
    const ScenarioTotals &t = totals();
    const double unloaded_p999 = percentile(t.unloaded.rt_latencies_ms,
                                            99.9);
    const double overload_p999 = percentile(t.overload.rt_latencies_ms,
                                            99.9);
    // 1 ms floor keeps timer noise from making the bound vacuous-tight.
    const double bound = 2.0 * std::max(unloaded_p999, 1.0);
    const std::int64_t rt_lost =
        t.overload.rt_submitted - t.overload.rt_ok;
    const double overload_goodput = goodput_pct(t.overload);
    const double recovery_goodput = goodput_pct(t.recovery);

    int failures = 0;
    if (overload_p999 > bound) {
        std::printf("OVERLOAD GATE: FAIL rt p99.9 %.3f ms under 3x load "
                    "exceeds bound %.3f ms (2x unloaded %.3f ms)\n",
                    overload_p999, bound, unloaded_p999);
        ++failures;
    }
    if (t.overload.rt_shed != 0 || rt_lost != 0) {
        std::printf("OVERLOAD GATE: FAIL %lld real-time requests shed "
                    "and %lld not completed under overload (want 0)\n",
                    static_cast<long long>(t.overload.rt_shed),
                    static_cast<long long>(rt_lost));
        ++failures;
    }
    if (t.overload.batch_ok == 0) {
        std::printf("OVERLOAD GATE: FAIL batch goodput fell to zero "
                    "under overload (degradation must not starve)\n");
        ++failures;
    }
    if (recovery_goodput < 90.0) {
        std::printf("OVERLOAD GATE: FAIL batch goodput %.1f%% after "
                    "load returned to ~1x (want >= 90%%)\n",
                    recovery_goodput);
        ++failures;
    }
    if (failures == 0) {
        std::printf("OVERLOAD GATE: pass (rt p99.9 %.3f ms <= %.3f ms, "
                    "0 rt lost, batch goodput %.1f%% -> %.1f%%)\n",
                    overload_p999, bound, overload_goodput,
                    recovery_goodput);
    }
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    set_global_num_threads(1);

    ::benchmark::RegisterBenchmark("overload/scenario", overload_scenario)
        ->Iterations(timed_runs())
        ->UseManualTime()
        ->Unit(::benchmark::kMillisecond);

    const int status = orpheus::bench::run_benchmarks(argc, argv);

    const ScenarioTotals &t = totals();
    record_cell("unloaded", "rt_p50_ms",
                percentile(t.unloaded.rt_latencies_ms, 50.0));
    record_cell("unloaded", "rt_p999_ms",
                percentile(t.unloaded.rt_latencies_ms, 99.9));
    record_cell("overload_3x", "rt_p50_ms",
                percentile(t.overload.rt_latencies_ms, 50.0));
    record_cell("overload_3x", "rt_p999_ms",
                percentile(t.overload.rt_latencies_ms, 99.9));
    record_cell("overload_3x", "batch_goodput_pct",
                goodput_pct(t.overload));
    record_cell("recovery_1x", "batch_goodput_pct",
                goodput_pct(t.recovery));

    print_table("Latency-class isolation under overload (tiny-cnn, "
                "4 workers, ~2 ms injected service time)",
                "phase");
    std::printf("\nper-phase traffic (totals over all timed runs):\n");
    std::printf("  %-12s %8s %8s %8s %10s %10s\n", "phase", "rt sub",
                "rt ok", "rt shed", "batch sub", "batch ok");
    const auto traffic_row = [](const char *name,
                                const PhaseResult &phase) {
        std::printf("  %-12s %8lld %8lld %8lld %10lld %10lld\n", name,
                    static_cast<long long>(phase.rt_submitted),
                    static_cast<long long>(phase.rt_ok),
                    static_cast<long long>(phase.rt_shed),
                    static_cast<long long>(phase.batch_submitted),
                    static_cast<long long>(phase.batch_ok));
    };
    traffic_row("unloaded", t.unloaded);
    traffic_row("overload_3x", t.overload);
    traffic_row("recovery_1x", t.recovery);
    std::printf("\nmean service time %.2f ms; the real-time lane holds "
                "its unloaded tail through a 3x flood while batch is "
                "shed, then batch goodput recovers at ~1x.\n",
                t.mean_service_ms);
    print_csv("phase", "metric");
    write_json("overload");

    if (env_flag("ORPHEUS_OVERLOAD", false)) {
        if (check_gate() != 0)
            return 1;
    }
    return status;
}
