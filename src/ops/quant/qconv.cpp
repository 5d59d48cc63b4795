#include "ops/quant/qconv.hpp"

#include <algorithm>
#include <vector>

#include "core/cpu_features.hpp"
#include "ops/conv/im2col.hpp"
#include "ops/quant/qgemm.hpp"

namespace orpheus {

namespace {

void
check_args(const QConv2dArgs &args)
{
    ORPHEUS_CHECK(args.input != nullptr && args.weight != nullptr &&
                      args.output != nullptr,
                  "qconv2d: missing tensors");
    ORPHEUS_CHECK(args.input->dtype() == DataType::kUInt8,
                  "qconv2d input must be uint8");
    ORPHEUS_CHECK(args.weight->dtype() == DataType::kInt8,
                  "qconv2d weight must be int8");
    ORPHEUS_CHECK(args.output->dtype() == DataType::kUInt8,
                  "qconv2d output must be uint8");
    ORPHEUS_CHECK(args.weight_params.zero_point == 0,
                  "qconv2d requires symmetric weights (zero point 0)");
    ORPHEUS_CHECK(args.activation.is_identity() ||
                      args.activation.kind == ActivationKind::kRelu ||
                      args.activation.kind == ActivationKind::kClip,
                  "qconv2d supports only relu/clip fused activations");
    ORPHEUS_CHECK(args.weight_channel_scales.empty() ||
                      static_cast<std::int64_t>(
                          args.weight_channel_scales.size()) ==
                          args.weight->shape().dim(0),
                  "qconv2d: per-channel scales must have out_c entries");
}

/** out[i] = requantize(acc[i] + offset) on the tier @p simd selects. */
void
requantize_row(const std::int32_t *acc, std::int64_t n, std::int32_t offset,
               float multiplier, const QConvRequant &rq, bool simd,
               std::uint8_t *out)
{
#if defined(ORPHEUS_SIMD_X86)
    if (simd) {
        qconv2d_requantize_row_avx2(acc, n, offset, multiplier, rq, out);
        return;
    }
#else
    (void)simd;
#endif
    for (std::int64_t i = 0; i < n; ++i)
        out[i] = requantize(acc[i] + offset, multiplier, rq.zero_point,
                            rq.lo, rq.hi);
}

} // namespace

QConvRequant::QConvRequant(const QConv2dArgs &args)
    : zero_point(args.output_params.zero_point), args_(&args)
{
    // Fused activation bounds in the quantized domain; quantize()
    // saturates, so a one-sided Clip (the other bound +-FLT_MAX) keeps
    // the full [0, 255] range on that side.
    if (args.activation.kind == ActivationKind::kRelu) {
        lo = std::max(lo, zero_point);
    } else if (args.activation.kind == ActivationKind::kClip) {
        lo = std::max(lo, args.output_params.quantize(args.activation.min));
        hi = std::min(hi, args.output_params.quantize(args.activation.max));
    }
}

float
QConvRequant::multiplier(std::int64_t oc) const
{
    // real = (xs*ws[oc]) * acc; y = round(real/ys) + yzp.
    const float w_scale =
        args_->weight_channel_scales.empty()
            ? args_->weight_params.scale
            : args_->weight_channel_scales[static_cast<std::size_t>(oc)];
    return args_->input_params.scale * w_scale / args_->output_params.scale;
}

std::size_t
qconv2d_acc_count(std::int64_t out_c, const Conv2dParams &params,
                  std::int64_t out_h, std::int64_t out_w)
{
    return static_cast<std::size_t>(out_c / params.group * out_h * out_w);
}

std::size_t
qconv2d_pack_i16_count(std::int64_t in_c, const Conv2dParams &params)
{
    return qgemm_pack_i16s(in_c / params.group * params.kernel_h *
                           params.kernel_w);
}

void
qconv2d_weight_row_sums(const Tensor &weight, std::int32_t *out)
{
    const std::int64_t out_c = weight.shape().dim(0);
    const std::int64_t row =
        weight.shape().numel() / (out_c == 0 ? 1 : out_c);
    const std::int8_t *data = weight.data<std::int8_t>();
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
        std::int32_t sum = 0;
        const std::int8_t *w_row = data + oc * row;
        for (std::int64_t kk = 0; kk < row; ++kk)
            sum += w_row[kk];
        out[oc] = sum;
    }
}

void
qconv2d(const QConv2dArgs &args, const QConv2dScratch *scratch)
{
    check_args(args);

    const Conv2dParams &p = args.params;
    const Shape &in_shape = args.input->shape();
    const std::int64_t batch = in_shape.dim(0);
    const std::int64_t in_c = in_shape.dim(1);
    const std::int64_t in_h = in_shape.dim(2);
    const std::int64_t in_w = in_shape.dim(3);
    const std::int64_t out_c = args.weight->shape().dim(0);
    const std::int64_t out_h = p.out_h(in_h);
    const std::int64_t out_w = p.out_w(in_w);
    const std::int64_t group_in_c = in_c / p.group;
    const std::int64_t group_out_c = out_c / p.group;
    const std::int64_t gemm_k = group_in_c * p.kernel_h * p.kernel_w;
    const std::int64_t gemm_n = out_h * out_w;
    const bool pointwise = is_pointwise_conv(p);
    const QConvRequant rq(args);
    // The GEMM and the requantize run on the same tier.
    const bool simd = args.simd && simd_enabled();

    const auto pad_value =
        static_cast<std::uint8_t>(std::clamp(args.input_params.zero_point,
                                             std::int32_t{0},
                                             std::int32_t{255}));

    // Prepared layers supply both blocks from the engine workspace;
    // standalone calls fall back to call-local allocations.
    std::uint8_t *col = scratch != nullptr ? scratch->col : nullptr;
    std::int32_t *acc = scratch != nullptr ? scratch->acc : nullptr;
    std::vector<std::uint8_t> col_fallback;
    std::vector<std::int32_t> acc_fallback;
    if (col == nullptr && !pointwise) {
        col_fallback.resize(static_cast<std::size_t>(gemm_k * gemm_n));
        col = col_fallback.data();
    }
    if (acc == nullptr) {
        acc_fallback.resize(static_cast<std::size_t>(group_out_c * gemm_n));
        acc = acc_fallback.data();
    }
    const std::int32_t *cached_w_sums =
        scratch != nullptr ? scratch->weight_row_sums : nullptr;

    const std::uint8_t *input = args.input->data<std::uint8_t>();
    const std::int8_t *weight = args.weight->data<std::int8_t>();
    const std::int32_t *bias =
        args.bias != nullptr ? args.bias->data<std::int32_t>() : nullptr;
    std::uint8_t *output = args.output->data<std::uint8_t>();

    for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t g = 0; g < p.group; ++g) {
            const std::uint8_t *group_input =
                input + (n * in_c + g * group_in_c) * in_h * in_w;
            const std::int8_t *group_weight =
                weight + g * group_out_c * gemm_k;
            std::uint8_t *group_output =
                output + (n * out_c + g * group_out_c) * gemm_n;

            // A pointwise conv's input block already is its
            // [group_in_c x H*W] column matrix.
            const std::uint8_t *cols = group_input;
            if (!pointwise) {
                im2col(group_input, group_in_c, in_h, in_w, p, out_h, out_w,
                       pad_value, col);
                cols = col;
            }

            // One GEMM over the whole group block (the SIMD tier
            // amortises its tile packing over all output channels).
            if (simd)
                qgemm_w8a8_simd(group_out_c, gemm_n, gemm_k, group_weight,
                                gemm_k, cols, gemm_n, acc, gemm_n,
                                scratch != nullptr ? scratch->pack
                                                   : nullptr);
            else
                qgemm_w8a8(group_out_c, gemm_n, gemm_k, group_weight,
                           gemm_k, cols, gemm_n, acc, gemm_n);

            // acc[oc][pixel] = sum_k W[oc][k] * (col[k][pixel] - x_zp),
            // with the zero-point correction hoisted to one subtraction
            // per output via the row sum of W.
            for (std::int64_t oc = 0; oc < group_out_c; ++oc) {
                std::int32_t w_sum;
                if (cached_w_sums != nullptr) {
                    w_sum = cached_w_sums[g * group_out_c + oc];
                } else {
                    const std::int8_t *w_row = group_weight + oc * gemm_k;
                    w_sum = 0;
                    for (std::int64_t kk = 0; kk < gemm_k; ++kk)
                        w_sum += w_row[kk];
                }
                const std::int32_t b =
                    bias != nullptr ? bias[g * group_out_c + oc] : 0;
                requantize_row(acc + oc * gemm_n, gemm_n,
                               b - args.input_params.zero_point * w_sum,
                               rq.multiplier(g * group_out_c + oc), rq, simd,
                               group_output + oc * gemm_n);
            }
        }
    }
}

std::int64_t
qconv2d_depthwise_padded_width(std::int64_t in_w, const Conv2dParams &p)
{
    // A block of 16 outputs at column j (a multiple of 16 below out_w)
    // reads up to stride * j + stride * 16 + kernel_w bytes.
    const std::int64_t blocks = (p.out_w(in_w) + 15) / 16;
    return std::max(p.pad_left + in_w + p.pad_right,
                    p.stride_w * 16 * blocks + p.kernel_w + 1);
}

std::size_t
qconv2d_depthwise_col_count(std::int64_t in_h, std::int64_t in_w,
                            const Conv2dParams &p)
{
    const std::int64_t plane =
        (p.pad_top + in_h + p.pad_bottom) *
        qconv2d_depthwise_padded_width(in_w, p);
    // Then one 32-byte broadcast per (kernel row, tap pair).
    return static_cast<std::size_t>((plane + 31) / 32 * 32 +
                                    32 * p.kernel_h * ((p.kernel_w + 1) / 2));
}

void
qconv2d_depthwise(const QConv2dArgs &args, const QConv2dScratch *scratch)
{
    check_args(args);
    const QConvRequant rq(args);
    const Conv2dParams &p = args.params;
    const Shape &in_shape = args.input->shape();
    const std::int64_t batch = in_shape.dim(0);
    const std::int64_t channels = in_shape.dim(1);
    ORPHEUS_CHECK(p.group == channels &&
                      args.weight->shape().dim(0) == channels,
                  "qconv2d_depthwise requires group == in_c == out_c");
    const std::int64_t in_h = in_shape.dim(2);
    const std::int64_t in_w = in_shape.dim(3);
#if defined(ORPHEUS_SIMD_X86)
    if (args.simd && simd_enabled() && p.dilation_w == 1 &&
        (p.stride_w == 1 || p.stride_w == 2)) {
        std::uint8_t *padded = scratch != nullptr ? scratch->col : nullptr;
        std::vector<std::uint8_t> padded_fallback;
        if (padded == nullptr) {
            padded_fallback.resize(qconv2d_depthwise_col_count(in_h, in_w, p));
            padded = padded_fallback.data();
        }
        qconv2d_depthwise_avx2(args, rq, padded);
        return;
    }
#endif

    const std::int64_t out_h = p.out_h(in_h);
    const std::int64_t out_w = p.out_w(in_w);
    const std::int64_t kernel_area = p.kernel_h * p.kernel_w;
    const std::int32_t x_zp = args.input_params.zero_point;

    std::int32_t *acc = scratch != nullptr ? scratch->acc : nullptr;
    std::vector<std::int32_t> acc_fallback;
    if (acc == nullptr) {
        acc_fallback.resize(static_cast<std::size_t>(out_w));
        acc = acc_fallback.data();
    }

    const std::uint8_t *input = args.input->data<std::uint8_t>();
    const std::int8_t *weight = args.weight->data<std::int8_t>();
    const std::int32_t *bias =
        args.bias != nullptr ? args.bias->data<std::int32_t>() : nullptr;
    std::uint8_t *output = args.output->data<std::uint8_t>();

    // Per output row: acc[j] = sum over the in-bounds taps of
    // w * (x - x_zp), one tap at a time over its in-bounds column span
    // (padding contributes 0, as x_zp dequantizes to 0).
    for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t c = 0; c < channels; ++c) {
            const std::uint8_t *plane =
                input + (n * channels + c) * in_h * in_w;
            const std::int8_t *w = weight + c * kernel_area;
            const std::int32_t b = bias != nullptr ? bias[c] : 0;
            const float multiplier = rq.multiplier(c);
            std::uint8_t *out_plane =
                output + (n * channels + c) * out_h * out_w;

            for (std::int64_t oh = 0; oh < out_h; ++oh) {
                std::fill(acc, acc + out_w, 0);
                for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
                    const std::int64_t ih =
                        oh * p.stride_h - p.pad_top + kh * p.dilation_h;
                    if (ih < 0 || ih >= in_h)
                        continue;
                    const std::uint8_t *in_row = plane + ih * in_w;
                    for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
                        const std::int32_t w_val = w[kh * p.kernel_w + kw];
                        const std::int64_t base =
                            kw * p.dilation_w - p.pad_left;
                        // In-bounds output column range for this tap.
                        std::int64_t lo = 0, hi = out_w;
                        while (lo < hi && base + lo * p.stride_w < 0)
                            ++lo;
                        while (hi > lo &&
                               base + (hi - 1) * p.stride_w >= in_w)
                            --hi;
                        for (std::int64_t j = lo; j < hi; ++j)
                            acc[j] += w_val *
                                      (static_cast<std::int32_t>(
                                           in_row[base + j * p.stride_w]) -
                                       x_zp);
                    }
                }
                requantize_row(acc, out_w, b, multiplier, rq, false,
                               out_plane + oh * out_w);
            }
        }
    }
}

} // namespace orpheus
