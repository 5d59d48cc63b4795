// Compiled with -mavx2 -mfma; called only after the runtime CPU probe.
#include "fma_loops.hpp"

#include <immintrin.h>

namespace perfbench {

float
fma_loop_avx2(std::int64_t iters, float seed)
{
    // Twelve independent accumulators cover FMA latency on two ports.
    const __m256 mul = _mm256_set1_ps(0.999999f);
    const __m256 add = _mm256_set1_ps(1e-7f);
    __m256 acc[12];
    for (int i = 0; i < 12; ++i)
        acc[i] = _mm256_set1_ps(seed + static_cast<float>(i));
    for (std::int64_t it = 0; it < iters; ++it) {
        for (int i = 0; i < 12; ++i)
            acc[i] = _mm256_fmadd_ps(acc[i], mul, add);
    }
    __m256 sum = acc[0];
    for (int i = 1; i < 12; ++i)
        sum = _mm256_add_ps(sum, acc[i]);
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, sum);
    float total = 0;
    for (float lane : lanes)
        total += lane;
    return total;
}

} // namespace perfbench
