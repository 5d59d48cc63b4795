/**
 * @file
 * Seeded 3x3 QLinearConv problems shared by the quantized-kernel tests:
 * the depthwise and dense sweeps of shapes and requantize settings, the
 * tensors of one problem, and an independent formula for its expected
 * output.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "ops/quant/qconv.hpp"

namespace orpheus::testing {

/** One 3x3 problem: shape plus requantize settings. */
struct QConvCase {
    std::int64_t channels, width, stride, pad, batch;
    bool per_channel, bias;
    ActivationKind activation; ///< kNone, kRelu or kClip
    /** 0: depthwise (group = output channels = channels). Otherwise a
     *  dense conv with this many groups and out_channels outputs. */
    std::int64_t group = 0, out_channels = 0;

    bool depthwise() const { return group == 0; }
    std::int64_t groups() const { return depthwise() ? channels : group; }
    std::int64_t
    outputs() const
    {
        return depthwise() ? channels : out_channels;
    }

    std::string
    label() const
    {
        return "c" + std::to_string(channels) + "w" + std::to_string(width) +
               "s" + std::to_string(stride) + "p" + std::to_string(pad) +
               "n" + std::to_string(batch) + (per_channel ? "_pc" : "_pt") +
               (bias ? "_bias" : "") + "_act" +
               std::to_string(static_cast<int>(activation)) +
               (depthwise() ? "" : "_g" + std::to_string(group) + "o" +
                                       std::to_string(out_channels));
    }
};

/** Appends, for one shape, three of the twelve (per-channel scales,
 *  bias, none/relu/clip) settings, rotated by the shape index so every
 *  setting meets every shape dimension. */
inline void
add_rotated_settings(std::vector<QConvCase> &cases, QConvCase shape,
                     int index)
{
    const ActivationKind activations[] = {ActivationKind::kNone,
                                          ActivationKind::kRelu,
                                          ActivationKind::kClip};
    for (int k = 0; k < 3; ++k) {
        const int setting = (index + 4 * k) % 12;
        shape.per_channel = setting % 2 == 1;
        shape.bias = setting / 2 % 2 == 1;
        shape.activation = activations[setting / 4];
        cases.push_back(shape);
    }
}

/**
 * Every depthwise shape of channels {1, 3, 33} x widths
 * {7, 14, 15, 56, 112} x stride {1, 2} x pad {0, 1} x batch {1, 3}, each
 * with three rotated requantize settings.
 */
inline std::vector<QConvCase>
qdepthwise_sweep()
{
    std::vector<QConvCase> cases;
    int shape = 0;
    for (std::int64_t channels : {1, 3, 33})
        for (std::int64_t width : {7, 14, 15, 56, 112})
            for (std::int64_t stride : {1, 2})
                for (std::int64_t pad : {0, 1})
                    for (std::int64_t batch : {1, 3})
                        add_rotated_settings(
                            cases,
                            {channels, width, stride, pad, batch, false,
                             false, ActivationKind::kNone},
                            shape++);
    return cases;
}

/**
 * Dense 3x3 shapes through the im2col lowering: 6 input and 10 output
 * channels in group {1, 2} (reduction depth 54 and 27) x widths
 * {7, 15, 33} x stride {1, 2} x pad {0, 1} x batch {1, 3}, each with
 * three rotated requantize settings.
 */
inline std::vector<QConvCase>
qdense_sweep()
{
    std::vector<QConvCase> cases;
    int shape = 0;
    for (std::int64_t group : {1, 2})
        for (std::int64_t width : {7, 15, 33})
            for (std::int64_t stride : {1, 2})
                for (std::int64_t pad : {0, 1})
                    for (std::int64_t batch : {1, 3})
                        add_rotated_settings(
                            cases,
                            {6, width, stride, pad, batch, false, false,
                             ActivationKind::kNone, group, 10},
                            shape++);
    return cases;
}

/**
 * The tensors and qconv2d arguments of one 3x3 case, from a seeded LCG:
 * uint8 input over the full range with input zero point 117, int8
 * weights over the full range (-128 included), int32 bias. The output
 * scale grows with the reduction depth so outputs span the uint8 range
 * and clamp at both ends. Not copyable: args points into the members.
 */
struct QConvProblem {
    explicit QConvProblem(const QConvCase &c, unsigned seed = 0x9d1)
        : x(Shape({c.batch, c.channels, c.width, c.width}), DataType::kUInt8),
          w(Shape({c.outputs(), c.channels / c.groups(), 3, 3}),
            DataType::kInt8),
          b(Shape({c.outputs()}), DataType::kInt32)
    {
        unsigned state = seed;
        const auto next = [&state] {
            state = state * 1664525u + 1013904223u;
            return state >> 8;
        };
        for (std::int64_t i = 0; i < x.numel(); ++i)
            x.data<std::uint8_t>()[i] = static_cast<std::uint8_t>(next());
        for (std::int64_t i = 0; i < w.numel(); ++i)
            w.data<std::int8_t>()[i] = static_cast<std::int8_t>(next());
        for (std::int64_t i = 0; i < b.numel(); ++i)
            b.data<std::int32_t>()[i] =
                static_cast<std::int32_t>(next() % (1u << 15)) - (1 << 14);

        args.input = &x;
        args.input_params = {0.02f, 117};
        args.weight = &w;
        args.weight_params = {0.05f, 0};
        if (c.per_channel)
            for (std::int64_t ch = 0; ch < c.outputs(); ++ch)
                args.weight_channel_scales.push_back(
                    0.01f + 0.09f * static_cast<float>(next() % 1000) /
                                1000.0f);
        args.bias = c.bias ? &b : nullptr;
        args.output_params = {
            0.17f * static_cast<float>(c.channels / c.groups()), 131};
        args.params.kernel_h = args.params.kernel_w = 3;
        args.params.stride_h = args.params.stride_w = c.stride;
        args.params.pad_top = args.params.pad_left = c.pad;
        args.params.pad_bottom = args.params.pad_right = c.pad;
        args.params.group = c.groups();
        if (c.activation == ActivationKind::kRelu)
            args.activation = ActivationSpec::relu();
        else if (c.activation == ActivationKind::kClip)
            args.activation = ActivationSpec::clip(-4.0f, 9.0f);

        const std::int64_t out = args.params.out_h(c.width);
        y = Tensor(Shape({c.batch, c.outputs(), out, out}), DataType::kUInt8);
        args.output = &y;
    }

    QConvProblem(const QConvProblem &) = delete;
    QConvProblem &operator=(const QConvProblem &) = delete;

    Tensor x, w, b, y;
    QConv2dArgs args;
};

/**
 * The expected output of any grouped QLinearConv, by its own nested
 * loops and libm rounding:
 * clamp(lround(float(sum (x - x_zp) * w + bias) * M) + y_zp) with
 * M = x_scale * w_scale[oc] / y_scale and the fused activation's bounds.
 */
inline Tensor
qconv_expected(const QConv2dArgs &a)
{
    const Conv2dParams &p = a.params;
    const Shape &s = a.input->shape();
    const std::int64_t batch = s.dim(0), in_c = s.dim(1), in_h = s.dim(2),
                       in_w = s.dim(3);
    const std::int64_t out_c = a.weight->shape().dim(0);
    const std::int64_t out_h = p.out_h(in_h), out_w = p.out_w(in_w);
    const std::int64_t group_in = in_c / p.group, group_out = out_c / p.group;
    const std::int32_t y_zp = a.output_params.zero_point;
    const auto quantize = [&](float real) {
        return static_cast<std::int32_t>(
                   std::lround(real / a.output_params.scale)) +
               y_zp;
    };
    std::int32_t lo = 0, hi = 255;
    if (a.activation.kind == ActivationKind::kRelu)
        lo = std::max(lo, y_zp);
    if (a.activation.kind == ActivationKind::kClip) {
        lo = std::max(lo, quantize(a.activation.min));
        hi = std::min(hi, quantize(a.activation.max));
    }

    Tensor y(Shape({batch, out_c, out_h, out_w}), DataType::kUInt8);
    const std::uint8_t *x = a.input->data<std::uint8_t>();
    const std::int8_t *w = a.weight->data<std::int8_t>();
    for (std::int64_t n = 0; n < batch; ++n)
        for (std::int64_t oc = 0; oc < out_c; ++oc) {
            const float w_scale =
                a.weight_channel_scales.empty()
                    ? a.weight_params.scale
                    : a.weight_channel_scales[static_cast<std::size_t>(oc)];
            const float m =
                a.input_params.scale * w_scale / a.output_params.scale;
            const std::int64_t g = oc / group_out;
            for (std::int64_t oh = 0; oh < out_h; ++oh)
                for (std::int64_t ow = 0; ow < out_w; ++ow) {
                    std::int32_t sum =
                        a.bias != nullptr ? a.bias->data<std::int32_t>()[oc]
                                          : 0;
                    for (std::int64_t ic = 0; ic < group_in; ++ic)
                        for (std::int64_t kh = 0; kh < p.kernel_h; ++kh)
                            for (std::int64_t kw = 0; kw < p.kernel_w;
                                 ++kw) {
                                const std::int64_t ih = oh * p.stride_h -
                                                        p.pad_top +
                                                        kh * p.dilation_h;
                                const std::int64_t iw = ow * p.stride_w -
                                                        p.pad_left +
                                                        kw * p.dilation_w;
                                if (ih < 0 || ih >= in_h || iw < 0 ||
                                    iw >= in_w)
                                    continue;
                                const std::int64_t c = g * group_in + ic;
                                sum += (static_cast<std::int32_t>(
                                            x[((n * in_c + c) * in_h + ih) *
                                                  in_w +
                                              iw]) -
                                        a.input_params.zero_point) *
                                       w[((oc * group_in + ic) *
                                              p.kernel_h +
                                          kh) *
                                             p.kernel_w +
                                         kw];
                            }
                    const std::int32_t q =
                        static_cast<std::int32_t>(
                            std::lround(static_cast<float>(sum) * m)) +
                        y_zp;
                    y.data<std::uint8_t>()[((n * out_c + oc) * out_h + oh) *
                                               out_w +
                                           ow] =
                        static_cast<std::uint8_t>(std::clamp(q, lo, hi));
                }
        }
    return y;
}

/** Index of the first byte where @p a and @p b differ, or -1. */
inline std::int64_t
first_difference(const Tensor &a, const Tensor &b)
{
    for (std::int64_t i = 0; i < a.numel(); ++i)
        if (a.data<std::uint8_t>()[i] != b.data<std::uint8_t>()[i])
            return i;
    return a.numel() == b.numel() ? -1 : a.numel();
}

} // namespace orpheus::testing
