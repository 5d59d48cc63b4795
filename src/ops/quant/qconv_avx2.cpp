/**
 * @file
 * AVX2 quantized-conv kernels: the direct int8 depthwise convolution
 * and the requantize row of the im2col lowering (per-file -mavx2
 * -ffp-contract=off and no -mfma: the float multiply of the requantize
 * step is never fused with the rounding subtraction, which keeps the
 * bytes equal to the scalar tier).
 *
 * Depthwise (stride 1 or 2): each channel plane is copied into a buffer
 * whose padding is the activation zero point, so every tap of every
 * block of 16 outputs is in bounds and the loop has no edge cases. Per
 * block, the 16 int32 accumulators stay in registers. Each tap loads
 * its input span as int16 lanes — stride 2 keeps the even bytes of a
 * 32-byte load — multiplies by the tap weight with vpmullw, exact as
 * |x * w| <= 255 * 128 < 2^15, and widens into the accumulators. The
 * zero-point term is folded into the start value, bias - x_zp * (sum of
 * the weights). The sum is exact int32 and requantize_avx2 equals
 * requantize lane by lane, so the bytes equal the scalar kernel's and
 * the im2col lowering's.
 */
#if defined(ORPHEUS_SIMD_X86)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "ops/quant/qconv.hpp"

namespace orpheus {

namespace {

/** One output channel's requantize constants, broadcast. */
struct RequantLanes {
    RequantLanes(float multiplier, const QConvRequant &rq)
        : multiplier(_mm256_set1_ps(multiplier)),
          zero_point(_mm256_set1_epi32(rq.zero_point)),
          lo(_mm256_set1_epi32(rq.lo)), hi(_mm256_set1_epi32(rq.hi))
    {
    }

    /** Requantizes eight accumulators and stores the eight bytes. */
    void
    store8(__m256i acc, std::uint8_t *out) const
    {
        const __m256i q = requantize_avx2(acc, multiplier, zero_point, lo, hi);
        const __m128i words = _mm_packus_epi32(
            _mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
        _mm_storel_epi64(reinterpret_cast<__m128i *>(out),
                         _mm_packus_epi16(words, words));
    }

    /** Requantizes 16 accumulators (lanes 0-7 in @p acc0) and stores
     *  the 16 bytes. */
    void
    store16(__m256i acc0, __m256i acc1, std::uint8_t *out) const
    {
        // packus_epi32 interleaves 128-bit halves; permute restores order.
        const __m256i words = _mm256_permute4x64_epi64(
            _mm256_packus_epi32(
                requantize_avx2(acc0, multiplier, zero_point, lo, hi),
                requantize_avx2(acc1, multiplier, zero_point, lo, hi)),
            0xD8);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out),
                         _mm_packus_epi16(_mm256_castsi256_si128(words),
                                          _mm256_extracti128_si256(words, 1)));
    }

    /** Requantizes 16 accumulators, the even outputs in @p even and the
     *  odd ones in @p odd, and stores the 16 bytes in order. */
    void
    store16_interleaved(__m256i even, __m256i odd, std::uint8_t *out) const
    {
        // Both are in [0, 255]: odd << 16 | even is the outputs as
        // in-order uint16 lanes.
        const __m256i words = _mm256_or_si256(
            requantize_avx2(even, multiplier, zero_point, lo, hi),
            _mm256_slli_epi32(
                requantize_avx2(odd, multiplier, zero_point, lo, hi), 16));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out),
                         _mm_packus_epi16(_mm256_castsi256_si128(words),
                                          _mm256_extracti128_si256(words, 1)));
    }

    __m256 multiplier;
    __m256i zero_point, lo, hi;
};

/** 16 input bytes from @p src, zero-extended to int16 lanes. */
inline __m256i
load_u16(const std::uint8_t *src)
{
    return _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(src)));
}

/**
 * One channel plane, stride S. @p padded is the input plane with
 * pad_top rows above, pad_left columns to the left and the rest of each
 * row of @p width bytes filled with the zero point, so every load of
 * every 16-output block is in bounds. @p start is bias - x_zp * (sum of
 * the weights): the padding taps then add w * x_zp and cancel exactly.
 *
 * Taps kw and kw+1 of a kernel row read adjacent bytes, so one
 * zero-extended load holds (x[kw], x[kw+1]) pairs in its 32-bit lanes
 * and vpmaddwd against the broadcast weight pair (@p weight_pairs; an
 * odd last tap pairs with 0) adds both products in int32. At stride 2
 * the pairs of outputs j..j+15 are the bytes at 2j + kw onwards; at
 * stride 1 the even outputs read from j + kw and the odd ones from
 * j + kw + 1.
 */
template <int S>
void
depthwise_plane(const std::uint8_t *padded, std::int64_t width,
                const Conv2dParams &p, std::int64_t out_h, std::int64_t out_w,
                const std::int32_t *weight_pairs, std::int32_t start,
                const RequantLanes &lanes, std::uint8_t *out)
{
    const std::int64_t pairs = (p.kernel_w + 1) / 2;
    alignas(16) std::uint8_t bytes[16];
    for (std::int64_t oh = 0; oh < out_h; ++oh) {
        const std::uint8_t *top = padded + oh * p.stride_h * width;
        std::uint8_t *out_row = out + oh * out_w;
        for (std::int64_t j = 0; j < out_w; j += 16) {
            // S == 1: even and odd outputs; S == 2: outputs j..j+7 and
            // j+8..j+15.
            __m256i acc0 = _mm256_set1_epi32(start);
            __m256i acc1 = acc0;
            const std::int32_t *w = weight_pairs;
            for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
                const std::uint8_t *row =
                    top + kh * p.dilation_h * width + S * j;
                for (std::int64_t pair = 0; pair < pairs; ++pair, w += 8) {
                    const __m256i wv = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(w));
                    const std::uint8_t *src = row + 2 * pair;
                    acc0 = _mm256_add_epi32(
                        acc0, _mm256_madd_epi16(load_u16(src), wv));
                    acc1 = _mm256_add_epi32(
                        acc1,
                        _mm256_madd_epi16(load_u16(src + (S == 1 ? 1 : 16)),
                                          wv));
                }
            }
            std::uint8_t *dst = j + 16 <= out_w ? out_row + j : bytes;
            if constexpr (S == 1)
                lanes.store16_interleaved(acc0, acc1, dst);
            else
                lanes.store16(acc0, acc1, dst);
            if (dst == bytes)
                std::memcpy(out_row + j, bytes,
                            static_cast<std::size_t>(out_w - j));
        }
    }
}

} // namespace

void
qconv2d_requantize_row_avx2(const std::int32_t *acc, std::int64_t n,
                            std::int32_t offset, float multiplier,
                            const QConvRequant &rq, std::uint8_t *out)
{
    const RequantLanes lanes(multiplier, rq);
    const __m256i offset_v = _mm256_set1_epi32(offset);
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        lanes.store8(
            _mm256_add_epi32(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(acc + i)),
                offset_v),
            out + i);
    if (i == n)
        return;
    // The tail goes through a zero-filled block: this TU must not call
    // the scalar requantize(), whose AVX2-encoded copy the linker could
    // hand to baseline TUs.
    const auto tail = static_cast<std::size_t>(n - i);
    alignas(32) std::int32_t block[8] = {};
    std::memcpy(block, acc + i, tail * sizeof(std::int32_t));
    std::uint8_t bytes[8];
    lanes.store8(_mm256_add_epi32(_mm256_load_si256(
                                      reinterpret_cast<const __m256i *>(block)),
                                  offset_v),
                 bytes);
    std::memcpy(out + i, bytes, tail);
}

void
qconv2d_depthwise_avx2(const QConv2dArgs &args, const QConvRequant &rq,
                       std::uint8_t *col)
{
    const Conv2dParams &p = args.params;
    const Shape &in_shape = args.input->shape();
    const std::int64_t batch = in_shape.dim(0);
    const std::int64_t channels = in_shape.dim(1);
    const std::int64_t in_h = in_shape.dim(2);
    const std::int64_t in_w = in_shape.dim(3);
    const std::int64_t out_h = p.out_h(in_h);
    const std::int64_t out_w = p.out_w(in_w);
    const std::int64_t kernel_area = p.kernel_h * p.kernel_w;
    const std::int64_t width = qconv2d_depthwise_padded_width(in_w, p);
    const std::int64_t height = p.pad_top + in_h + p.pad_bottom;
    const std::int32_t x_zp = args.input_params.zero_point;
    const auto pad_value = static_cast<std::uint8_t>(
        std::clamp(x_zp, std::int32_t{0}, std::int32_t{255}));

    const std::uint8_t *input = args.input->data<std::uint8_t>();
    const std::int8_t *weight = args.weight->data<std::int8_t>();
    const std::int32_t *bias =
        args.bias != nullptr ? args.bias->data<std::int32_t>() : nullptr;
    std::uint8_t *output = args.output->data<std::uint8_t>();
    // col: the padded plane, then per kernel row the taps as
    // (w[kw], w[kw+1]) int16 pairs, each broadcast to eight 32-bit lanes.
    std::uint8_t *padded = col;
    auto *weight_pairs =
        reinterpret_cast<std::int32_t *>(col + (height * width + 31) / 32 * 32);
    const std::int64_t pairs = (p.kernel_w + 1) / 2;
    const auto plane =
        p.stride_w == 1 ? depthwise_plane<1> : depthwise_plane<2>;

    // The padding never changes: fill it once, then copy each plane's
    // rows into the interior.
    std::memset(padded, pad_value, static_cast<std::size_t>(height * width));
    for (std::int64_t c = 0; c < channels; ++c) {
        const std::int8_t *w = weight + c * kernel_area;
        std::int32_t w_sum = 0;
        for (std::int64_t k = 0; k < kernel_area; ++k)
            w_sum += w[k];
        for (std::int64_t kh = 0; kh < p.kernel_h; ++kh)
            for (std::int64_t pair = 0; pair < pairs; ++pair) {
                const std::int64_t kw = 2 * pair;
                const auto w0 = static_cast<std::uint16_t>(
                    w[kh * p.kernel_w + kw]);
                const auto w1 = static_cast<std::uint16_t>(
                    kw + 1 < p.kernel_w ? w[kh * p.kernel_w + kw + 1] : 0);
                std::fill_n(weight_pairs + 8 * (kh * pairs + pair), 8,
                            static_cast<std::int32_t>(w0 | w1 << 16));
            }
        const std::int32_t start =
            (bias != nullptr ? bias[c] : 0) - x_zp * w_sum;
        const RequantLanes lanes(rq.multiplier(c), rq);
        for (std::int64_t n = 0; n < batch; ++n) {
            const std::uint8_t *src =
                input + (n * channels + c) * in_h * in_w;
            for (std::int64_t ih = 0; ih < in_h; ++ih)
                std::memcpy(padded + (p.pad_top + ih) * width + p.pad_left,
                            src + ih * in_w, static_cast<std::size_t>(in_w));
            plane(padded, width, p, out_h, out_w, weight_pairs, start,
                  lanes, output + (n * channels + c) * out_h * out_w);
        }
    }
}

} // namespace orpheus

#endif // ORPHEUS_SIMD_X86
