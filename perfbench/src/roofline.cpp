// Host probes on one core, matching the workloads' single intra-op
// thread: the roofline's peak FMA loop and streaming copy, and the
// speed reference that timed work is rescaled by.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include <time.h>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "core/cpu_features.hpp"
#include "fma_loops.hpp"
#include "perfbench.hpp"

namespace perfbench {

float
fma_loop_scalar(std::int64_t iters, float seed)
{
    float acc[8];
    for (int i = 0; i < 8; ++i)
        acc[i] = seed + static_cast<float>(i);
    for (std::int64_t it = 0; it < iters; ++it) {
        for (float &a : acc)
            a = a * 0.999999f + 1e-7f;
    }
    float total = 0;
    for (float a : acc)
        total += a;
    return total;
}

namespace {

using Clock = std::chrono::steady_clock;

/** Best of @p reps timings of @p body, in seconds. */
template <typename Body>
double
best_seconds(int reps, const Body &body)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        body();
        best = std::min(
            best, std::chrono::duration<double>(Clock::now() - start).count());
    }
    return best;
}

} // namespace

double
measure_peak_gflops()
{
    bool avx2 = false;
#ifdef PERFBENCH_HAVE_AVX2
    const orpheus::CpuFeatures &cpu = orpheus::cpu_features();
    avx2 = cpu.avx2 && cpu.fma;
#endif
    const double flops_per_iter = avx2 ? kAvx2FlopsPerIter : kScalarFlopsPerIter;
    std::int64_t iters = 1 << 16;
    float sink = 0;
    const auto loop = [&] {
#ifdef PERFBENCH_HAVE_AVX2
        sink += avx2 ? fma_loop_avx2(iters, 1) : fma_loop_scalar(iters, 1);
#else
        sink += fma_loop_scalar(iters, 1);
#endif
    };
    // Grow the loop until one pass takes about 20 ms, then keep the best
    // of several passes.
    while (best_seconds(1, loop) < 0.02)
        iters *= 2;
    const double secs = best_seconds(5, loop);
    volatile float keep = sink;
    (void)keep;
    return flops_per_iter * static_cast<double>(iters) / secs / 1e9;
}

double
measure_stream_gbps()
{
    // 2 x 64 MiB: well beyond the per-core caches of edge and server CPUs.
    const std::size_t bytes = std::size_t{64} << 20;
    std::vector<char> src(bytes, 1);
    std::vector<char> dst(bytes, 0);
    const double secs = best_seconds(
        5, [&] { std::memcpy(dst.data(), src.data(), bytes); });
    volatile char keep = dst[bytes / 2];
    (void)keep;
    return 2.0 * static_cast<double>(bytes) / secs / 1e9;
}

namespace {

// Reference pass shapes: a 4 MiB copy (twice the per-core L2 of the
// tuning host, so the product below always starts from a cold L2) run
// four times, then C[64 x 256] += A[64 x 256] B[256 x 256] four times.
constexpr std::size_t kCopyBytes = std::size_t{4} << 20;
constexpr int kCopies = 4;
constexpr int kM = 64;
constexpr int kN = 256;
constexpr int kK = 256;
constexpr int kProducts = 4;

/** Row-major C += A B with the innermost loop over contiguous columns,
 *  which the compiler vectorizes for the build's baseline ISA. */
[[gnu::noinline]] void
reference_product(const float *a, const float *b, float *c)
{
    for (int i = 0; i < kM; ++i) {
        float *c_row = c + static_cast<std::ptrdiff_t>(i) * kN;
        for (int k = 0; k < kK; ++k) {
            const float a_ik = a[i * kK + k];
            const float *b_row = b + static_cast<std::ptrdiff_t>(k) * kN;
            for (int j = 0; j < kN; ++j)
                c_row[j] += a_ik * b_row[j];
        }
    }
}

double
thread_cpu_ms()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

} // namespace

SpeedReference::SpeedReference()
    : a_(std::size_t{kM} * kK, 0.01f), b_(std::size_t{kK} * kN, 0.02f),
      c_(std::size_t{kM} * kN, 0.0f), src_(kCopyBytes, 1),
      dst_(kCopyBytes, 0)
{
}

PassTime
SpeedReference::pass()
{
    const double cpu_start = thread_cpu_ms();
    const auto start = Clock::now();
    for (int r = 0; r < kCopies; ++r) {
        std::memcpy(dst_.data(), src_.data(), kCopyBytes);
        src_[static_cast<std::size_t>(r)] = dst_[kCopyBytes - 1];
    }
    // Restart the accumulator so its values, and the work, are the same
    // every pass.
    std::fill(c_.begin(), c_.end(), 0.0f);
    for (int r = 0; r < kProducts; ++r)
        reference_product(a_.data(), b_.data(), c_.data());
    PassTime t;
    t.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
                    .count();
    t.cpu_ms = thread_cpu_ms() - cpu_start;
    volatile float keep = c_[c_.size() / 2];
    (void)keep;
    return t;
}

PassTime
SpeedReference::median(int passes)
{
    std::vector<double> wall, cpu;
    for (int p = 0; p < passes; ++p) {
        const PassTime t = pass();
        wall.push_back(t.wall_ms);
        cpu.push_back(t.cpu_ms);
    }
    return {perfbench::median(wall), perfbench::median(cpu)};
}

PassTime
SpeedReference::all_cpus(int passes)
{
#ifdef __linux__
    const pthread_t self = pthread_self();
    cpu_set_t allowed;
    if (pthread_getaffinity_np(self, sizeof(allowed), &allowed) != 0)
        return median(passes);
    PassTime sum;
    int cpus = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (pthread_setaffinity_np(self, sizeof(one), &one) != 0)
            continue;
        const PassTime t = median(passes);
        sum.wall_ms += t.wall_ms;
        sum.cpu_ms += t.cpu_ms;
        ++cpus;
    }
    pthread_setaffinity_np(self, sizeof(allowed), &allowed);
    if (cpus == 0)
        return median(passes);
    return {sum.wall_ms / cpus, sum.cpu_ms / cpus};
#else
    return median(passes);
#endif
}

std::size_t
SpeedReference::footprint_bytes() const
{
    return (a_.size() + b_.size() + c_.size()) * sizeof(float) +
           src_.size() + dst_.size();
}

double
at_reference_speed(double ms, double before_ms, double after_ms)
{
    return ms * kReferencePassMs / (0.5 * (before_ms + after_ms));
}

} // namespace perfbench
