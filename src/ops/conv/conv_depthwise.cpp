/**
 * @file
 * Specialised depthwise convolution (group == in_c).
 *
 * MobileNet-class networks spend most of their non-pointwise time here.
 * Lowering a depthwise conv through im2col+GEMM degenerates into
 * thousands of tiny (1 x kh*kw x ohw) matrix multiplies whose packing
 * overhead dwarfs the arithmetic — the paper attributes PyTorch's poor
 * MobileNetV1 showing to exactly this. This kernel instead walks each
 * channel once, register-tiling the output row; it supports a channel
 * multiplier (out_c = m * in_c) for generality.
 */
#include "ops/conv/conv.hpp"

#include <algorithm>

#include "core/cpu_features.hpp"
#include "core/threadpool.hpp"

namespace orpheus {

bool
conv2d_is_depthwise(const Conv2dArgs &args)
{
    return args.params.group == args.in_c && args.in_c > 1 &&
           args.out_c % args.in_c == 0;
}

void
conv2d_depthwise_direct(const Conv2dArgs &args)
{
    ORPHEUS_CHECK(conv2d_is_depthwise(args),
                  "conv2d_depthwise_direct requires group == in_c");
    const Conv2dParams &p = args.params;
    const std::int64_t multiplier = args.out_c / args.in_c;
    const std::int64_t kernel_area = p.kernel_h * p.kernel_w;

    parallel_for(args.batch * args.out_c, [&](std::int64_t begin,
                                              std::int64_t end) {
        for (std::int64_t job = begin; job < end; ++job) {
            const std::int64_t n = job / args.out_c;
            const std::int64_t oc = job % args.out_c;
            const std::int64_t ic = oc / multiplier;
            const float *in_plane =
                args.input + (n * args.in_c + ic) * args.in_h * args.in_w;
            const float *w = args.weight + oc * kernel_area;
            const float bias = args.bias != nullptr ? args.bias[oc] : 0.0f;
            float *out_plane =
                args.output + (n * args.out_c + oc) * args.out_h * args.out_w;

            for (std::int64_t oh = 0; oh < args.out_h; ++oh) {
                float *out_row = out_plane + oh * args.out_w;
                for (std::int64_t ow = 0; ow < args.out_w; ++ow)
                    out_row[ow] = bias;

                for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
                    const std::int64_t ih =
                        oh * p.stride_h - p.pad_top + kh * p.dilation_h;
                    if (ih < 0 || ih >= args.in_h)
                        continue;
                    const float *in_row = in_plane + ih * args.in_w;
                    for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
                        const float w_val = w[kh * p.kernel_w + kw];
                        const std::int64_t base =
                            kw * p.dilation_w - p.pad_left;
                        // In-bounds output column range for this tap.
                        std::int64_t lo = 0, hi = args.out_w;
                        while (lo < hi && base + lo * p.stride_w < 0)
                            ++lo;
                        while (hi > lo &&
                               base + (hi - 1) * p.stride_w >= args.in_w)
                            --hi;
                        if (p.stride_w == 1) {
                            const float *src = in_row + base + lo;
                            for (std::int64_t i = lo; i < hi; ++i)
                                out_row[i] += w_val * src[i - lo];
                        } else {
                            for (std::int64_t i = lo; i < hi; ++i)
                                out_row[i] +=
                                    w_val * in_row[base + i * p.stride_w];
                        }
                    }
                }

                args.activation.apply_inplace(out_row, args.out_w);
            }
        }
    });
}

void
conv2d_depthwise_simd(const Conv2dArgs &args)
{
#if defined(ORPHEUS_SIMD_X86)
    if (simd_enabled()) {
        conv2d_depthwise_avx2(args);
        return;
    }
#elif defined(ORPHEUS_SIMD_NEON)
    if (simd_enabled()) {
        conv2d_depthwise_neon(args);
        return;
    }
#endif
    conv2d_depthwise_direct(args);
}

} // namespace orpheus
