/**
 * @file
 * Quantization primitives: affine uint8 activations, symmetric int8
 * weights — the standard post-training-quantization recipe for edge
 * CPUs (real = scale * (quantized - zero_point)).
 */
#pragma once

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "core/tensor.hpp"

namespace orpheus {

/**
 * The one requantize rounding step: float -> int32, to nearest with ties
 * away from zero. For |x| <= 2^30 it equals std::lround(x) exactly —
 * r = trunc(x) is exact, so d = x - r is exact too, and r steps away
 * from zero when |d| >= 0.5 — without the libm call. Larger magnitudes
 * (and infinities) saturate to +-2^30, so a caller adding a zero point
 * and clamping to [0, 255] gets the saturated end instead of a wrapped
 * value; NaN maps to 0.
 *
 * Callers that feed it a product (x = acc * multiplier) must not let the
 * compiler contract the product into an FMA with the subtraction: the
 * quant TUs build with -ffp-contract=off (and the AVX2 one without
 * -mfma), which keeps every tier bitwise identical.
 */
inline std::int32_t
round_saturate(float x)
{
    constexpr float kLimit = 1073741824.0f; // 2^30
    if (x != x)
        return 0;
    x = x > kLimit ? kLimit : (x < -kLimit ? -kLimit : x);
    const auto r = static_cast<std::int32_t>(x);
    const float d = x - static_cast<float>(r);
    return r + (d >= 0.5f ? 1 : 0) - (d <= -0.5f ? 1 : 0);
}

/**
 * The requantize step of every QLinearConv impl: an exact int32
 * accumulator (bias and zero-point terms included) to a uint8 output,
 * clamp(round_saturate(float(acc) * multiplier) + zero_point, lo, hi).
 * The only float operations are the exact int32 -> float conversion and
 * one multiply, so any accumulation order gives the same byte.
 */
inline std::uint8_t
requantize(std::int32_t acc, float multiplier, std::int32_t zero_point,
           std::int32_t lo, std::int32_t hi)
{
    const std::int32_t q =
        round_saturate(static_cast<float>(acc) * multiplier) + zero_point;
    return static_cast<std::uint8_t>(q < lo ? lo : (q > hi ? hi : q));
}

#if defined(__AVX2__)
/** Eight-lane round_saturate, bitwise equal to it lane by lane. */
inline __m256i
round_saturate_avx2(__m256 x)
{
    const __m256 nan = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    // max_ps/min_ps return their second operand when the first is NaN;
    // NaN lanes are zeroed below either way.
    const __m256 c =
        _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-1073741824.0f)),
                      _mm256_set1_ps(1073741824.0f));
    __m256i r = _mm256_cvttps_epi32(c);
    const __m256 d = _mm256_sub_ps(c, _mm256_cvtepi32_ps(r));
    // Compare masks are all-ones (-1) where true.
    r = _mm256_sub_epi32(r, _mm256_castps_si256(_mm256_cmp_ps(
                                d, _mm256_set1_ps(0.5f), _CMP_GE_OQ)));
    r = _mm256_add_epi32(r, _mm256_castps_si256(_mm256_cmp_ps(
                                d, _mm256_set1_ps(-0.5f), _CMP_LE_OQ)));
    return _mm256_andnot_si256(_mm256_castps_si256(nan), r);
}

/** Eight-lane requantize, bitwise equal to it lane by lane; returns the
 *  clamped outputs as int32 lanes (the caller packs them to bytes). */
inline __m256i
requantize_avx2(__m256i acc, __m256 multiplier, __m256i zero_point,
                __m256i lo, __m256i hi)
{
    const __m256i q = _mm256_add_epi32(
        round_saturate_avx2(
            _mm256_mul_ps(_mm256_cvtepi32_ps(acc), multiplier)),
        zero_point);
    return _mm256_min_epi32(_mm256_max_epi32(q, lo), hi);
}
#endif

/** Affine quantization parameters for one tensor. */
struct QuantParams {
    float scale = 1.0f;
    std::int32_t zero_point = 0;

    /** real -> quantized (unclamped apart from round_saturate's
     *  +-2^30, rounded to nearest). */
    std::int32_t
    quantize(float real) const
    {
        return round_saturate(real / scale) + zero_point;
    }

    /** quantized -> real. */
    float
    dequantize(std::int32_t quantized) const
    {
        return scale * static_cast<float>(quantized - zero_point);
    }
};

/**
 * Chooses asymmetric uint8 parameters covering [min, max]. The range is
 * widened to include 0 so that zero is exactly representable (required
 * for zero padding to be exact).
 */
QuantParams choose_uint8_params(float min, float max);

/** Chooses symmetric int8 parameters (zero_point = 0) for weights. */
QuantParams choose_int8_symmetric_params(float abs_max);

/** fp32 -> uint8 tensor with @p params (values clamped to [0, 255]). */
void quantize_to_uint8(const Tensor &input, const QuantParams &params,
                       Tensor &output);

/** fp32 -> int8 tensor with @p params (values clamped to [-127, 127]). */
void quantize_to_int8(const Tensor &input, const QuantParams &params,
                      Tensor &output);

/** uint8/int8/int32 -> fp32 with @p params. */
void dequantize_to_float(const Tensor &input, const QuantParams &params,
                         Tensor &output);

/** Min/max over a fp32 tensor. */
void tensor_min_max(const Tensor &input, float &min, float &max);

} // namespace orpheus
