/**
 * @file
 * Peak-rate FMA loops behind the host roofline probe. Each returns a
 * value derived from its accumulators so the loop cannot be elided.
 */
#pragma once

#include <cstdint>

namespace perfbench {

/** Floating-point operations one iteration of each loop performs. */
inline constexpr double kScalarFlopsPerIter = 16;
inline constexpr double kAvx2FlopsPerIter = 192;

float fma_loop_scalar(std::int64_t iters, float seed);

/** Defined only when the build compiles the AVX2 translation unit. */
float fma_loop_avx2(std::int64_t iters, float seed);

} // namespace perfbench
