/**
 * @file
 * Serving-layer benchmark: multi-client latency under admission control.
 *
 * Three sweeps over InferenceService on tiny-cnn:
 *   1. Queue depth {2, 8, 32} with unlimited deadlines — burst-mode
 *      clients overflow shallow queues, so p50/p99 stay bounded while
 *      the shed (kResourceExhausted) count absorbs the overload.
 *   2. Deadline {1 ms, 100 ms, unlimited} at a fixed depth — tight
 *      deadlines shed queued work (kDeadlineExceeded) instead of
 *      letting tail latency grow.
 *   3. Mixed latency classes under overload — one real-time client
 *      bursts alongside three batch clients into an oversubscribed
 *      queue; the real-time rows stay near the uncontended service
 *      time while batch absorbs queueing and shedding (see
 *      bench_overload for the paced open-loop gate).
 *
 * Each cell reports client-observed p50/p99 of *completed* requests;
 * the summary block reports how much work each configuration shed.
 */
#include "bench_util.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <thread>

#include "runtime/service.hpp"

namespace {

using namespace orpheus;
using namespace orpheus::bench;

struct LoadResult {
    std::vector<double> latencies_ms; ///< Completed (OK) requests only.
    /** Same latencies, split by latency class (mixed-class sweep). */
    std::array<std::vector<double>, kPriorityClasses> class_latencies_ms;
    std::int64_t shed_queue = 0;
    std::int64_t shed_deadline = 0;
    std::int64_t completed = 0;
};

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank =
        p / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/**
 * Burst-mode closed loop: each client submits a burst of futures, then
 * drains it. With clients * burst > queue depth + workers the service
 * must shed, which is the behaviour under test.
 */
LoadResult
drive_load(InferenceService &service, int clients, int rounds, int burst,
           double deadline_ms,
           const std::vector<RequestPriority> &client_classes = {})
{
    const ServiceStats before = service.stats();
    std::mutex merge_mutex;
    LoadResult result;

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int client = 0; client < clients; ++client) {
        const RequestPriority priority =
            client_classes.empty()
                ? RequestPriority::kInteractive
                : client_classes[static_cast<std::size_t>(client) %
                                 client_classes.size()];
        threads.emplace_back([&, client, priority] {
            Rng rng(0x5e44 + static_cast<std::uint64_t>(client));
            Tensor input = random_tensor(
                service.engine().graph().inputs().front().shape, rng);
            std::vector<double> local;
            for (int round = 0; round < rounds; ++round) {
                std::vector<std::future<InferenceResponse>> inflight;
                std::vector<Timer> timers(
                    static_cast<std::size_t>(burst));
                inflight.reserve(static_cast<std::size_t>(burst));
                for (int i = 0; i < burst; ++i) {
                    DeadlineToken token =
                        deadline_ms > 0
                            ? DeadlineToken::after_ms(deadline_ms)
                            : DeadlineToken::unlimited();
                    timers[static_cast<std::size_t>(i)] = Timer();
                    inflight.push_back(service.submit(
                        {{"input", input}}, token, 0, priority));
                }
                for (int i = 0; i < burst; ++i) {
                    const InferenceResponse response =
                        inflight[static_cast<std::size_t>(i)].get();
                    if (response.status.is_ok())
                        local.push_back(
                            timers[static_cast<std::size_t>(i)]
                                .elapsed_ms());
                }
            }
            std::lock_guard<std::mutex> lock(merge_mutex);
            result.latencies_ms.insert(result.latencies_ms.end(),
                                       local.begin(), local.end());
            std::vector<double> &by_class =
                result.class_latencies_ms[priority_index(priority)];
            by_class.insert(by_class.end(), local.begin(), local.end());
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    const ServiceStats after = service.stats();
    result.shed_queue =
        after.rejected_queue_full - before.rejected_queue_full;
    result.shed_deadline =
        after.deadline_exceeded - before.deadline_exceeded;
    result.completed = after.completed_ok - before.completed_ok;
    return result;
}

struct ShedRow {
    std::string config;
    std::int64_t completed = 0;
    std::int64_t shed_queue = 0;
    std::int64_t shed_deadline = 0;
};

std::vector<ShedRow> &
shed_rows()
{
    static std::vector<ShedRow> storage;
    return storage;
}

void
service_cell(::benchmark::State &state, const std::string &row,
             std::size_t queue_depth, double deadline_ms)
{
    const int clients = quick_mode() ? 2 : 4;
    const int rounds = quick_mode() ? 2 : 6;
    const int burst = 4;

    ServiceOptions options;
    options.max_queue_depth = queue_depth;
    options.workers = 2;
    // The watchdog is for wedged kernels; a benchmark under overload
    // would only add poll noise.
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), EngineOptions{},
                             options);

    LoadResult total;
    for (auto _ : state) {
        Timer timer;
        LoadResult result =
            drive_load(service, clients, rounds, burst, deadline_ms);
        state.SetIterationTime(timer.elapsed_ms() / 1000.0);
        total.latencies_ms.insert(total.latencies_ms.end(),
                                  result.latencies_ms.begin(),
                                  result.latencies_ms.end());
        total.shed_queue += result.shed_queue;
        total.shed_deadline += result.shed_deadline;
        total.completed += result.completed;
    }

    record_cell(row, "p50", percentile(total.latencies_ms, 50.0));
    record_cell(row, "p99", percentile(total.latencies_ms, 99.0));
    shed_rows().push_back(ShedRow{row, total.completed,
                                  total.shed_queue,
                                  total.shed_deadline});
}

/**
 * Sweep 3 body: 1-in-4 clients submits real-time bursts, the rest
 * batch, into a depth-8 queue — sustained
 * oversubscription. Rows split the client-observed percentiles by
 * class: real-time should sit near the uncontended service time while
 * batch soaks up the queueing and the shedding.
 */
void
mixed_cell(::benchmark::State &state)
{
    const int clients = quick_mode() ? 4 : 8;
    const int rounds = quick_mode() ? 2 : 6;
    const int burst = 4;

    ServiceOptions options;
    options.max_queue_depth = 8;
    options.workers = 2;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), EngineOptions{},
                             options);

    const std::vector<RequestPriority> classes = {
        RequestPriority::kRealtime, RequestPriority::kBatch,
        RequestPriority::kBatch, RequestPriority::kBatch};

    LoadResult total;
    for (auto _ : state) {
        Timer timer;
        LoadResult result =
            drive_load(service, clients, rounds, burst,
                       /*deadline_ms=*/0.0, classes);
        state.SetIterationTime(timer.elapsed_ms() / 1000.0);
        for (std::size_t lane = 0; lane < kPriorityClasses; ++lane)
            total.class_latencies_ms[lane].insert(
                total.class_latencies_ms[lane].end(),
                result.class_latencies_ms[lane].begin(),
                result.class_latencies_ms[lane].end());
        total.shed_queue += result.shed_queue;
        total.shed_deadline += result.shed_deadline;
        total.completed += result.completed;
    }

    const std::vector<double> &rt = total.class_latencies_ms
        [priority_index(RequestPriority::kRealtime)];
    const std::vector<double> &batch =
        total.class_latencies_ms[priority_index(RequestPriority::kBatch)];
    record_cell("mixed_rt", "p50", percentile(rt, 50.0));
    record_cell("mixed_rt", "p99", percentile(rt, 99.0));
    record_cell("mixed_batch", "p50", percentile(batch, 50.0));
    record_cell("mixed_batch", "p99", percentile(batch, 99.0));
    shed_rows().push_back(ShedRow{"mixed_overload", total.completed,
                                  total.shed_queue,
                                  total.shed_deadline});
}

void
register_cell(const std::string &row, std::size_t queue_depth,
              double deadline_ms)
{
    ::benchmark::RegisterBenchmark(
        ("service/" + row).c_str(),
        [row, queue_depth, deadline_ms](::benchmark::State &state) {
            service_cell(state, row, queue_depth, deadline_ms);
        })
        ->Iterations(timed_runs())
        ->UseManualTime()
        ->Unit(::benchmark::kMillisecond);
}

} // namespace

int
main(int argc, char **argv)
{
    set_global_num_threads(1);

    // Sweep 1: queue depth, unlimited deadline.
    for (std::size_t depth : {std::size_t{2}, std::size_t{8},
                              std::size_t{32}}) {
        register_cell("depth_" + std::to_string(depth), depth,
                      /*deadline_ms=*/0.0);
    }
    // Sweep 2: deadline at fixed depth 8.
    register_cell("deadline_1ms", 8, 1.0);
    register_cell("deadline_100ms", 8, 100.0);
    // Sweep 3: mixed latency classes under sustained oversubscription.
    ::benchmark::RegisterBenchmark("service/mixed_overload", mixed_cell)
        ->Iterations(timed_runs())
        ->UseManualTime()
        ->Unit(::benchmark::kMillisecond);

    const int status = orpheus::bench::run_benchmarks(argc, argv);
    print_table("Serving latency under admission control (tiny-cnn)",
                "config");

    std::printf("\nload shedding (totals over all timed runs):\n");
    std::printf("  %-16s %10s %12s %14s\n", "config", "completed",
                "shed(queue)", "shed(deadline)");
    for (const ShedRow &row : shed_rows())
        std::printf("  %-16s %10lld %12lld %14lld\n", row.config.c_str(),
                    static_cast<long long>(row.completed),
                    static_cast<long long>(row.shed_queue),
                    static_cast<long long>(row.shed_deadline));
    std::printf("\nshallow queues and tight deadlines trade completed "
                "requests for bounded tail latency; nothing queues "
                "without bound.\n");
    print_csv("config", "metric");
    write_json("service_throughput");
    return status;
}
