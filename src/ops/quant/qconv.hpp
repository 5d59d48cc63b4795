/**
 * @file
 * Quantized 2-D convolution (the QLinearConv computation).
 *
 * Inputs: uint8 activations (affine), int8 weights (symmetric), int32
 * bias at scale x_scale * w_scale. Two lowerings share one requantize
 * step (requantize() in quantize.hpp, with the fused multiplier
 * M = x_scale * w_scale / y_scale):
 *
 *  - qconv2d: per (image, group), the fp32 conv's im2col (ops/conv/
 *    im2col.hpp, padding written as the activation zero point, which
 *    dequantizes to exactly 0), then one qgemm_w8a8 call over the whole
 *    block and one requantize pass. A 1x1, stride-1, pad-0 conv skips
 *    the im2col: its input already is the column matrix.
 *  - qconv2d_depthwise: a direct loop for group == in_c == out_c that
 *    sums w * (x - x_zp) over the in-bounds taps of each output, with no
 *    column matrix.
 *
 * Accumulation is exact int32 arithmetic and requantization is one
 * int32 -> float conversion and one multiply, so both lowerings and both
 * SIMD tiers produce bitwise identical bytes.
 */
#pragma once

#include "core/tensor.hpp"
#include "graph/op_params.hpp"
#include "ops/activation.hpp"
#include "ops/quant/quantize.hpp"

namespace orpheus {

/** Fully-resolved quantized conv arguments. */
struct QConv2dArgs {
    const Tensor *input = nullptr;  ///< uint8, NCHW.
    QuantParams input_params;
    const Tensor *weight = nullptr; ///< int8, OIHW, symmetric.
    QuantParams weight_params;      ///< zero_point must be 0.
    /**
     * Optional per-output-channel weight scales (length out_c). When
     * non-empty these override weight_params.scale per channel —
     * ONNX QLinearConv's per-channel quantization.
     */
    std::vector<float> weight_channel_scales;
    const Tensor *bias = nullptr;   ///< int32, optional; scale xs*ws.
    Tensor *output = nullptr;       ///< uint8, NCHW.
    QuantParams output_params;
    Conv2dParams params;
    /** Fused activation, applied in the quantized domain (relu/clip
     *  become clamps; other kinds are not supported here). */
    ActivationSpec activation;
    /**
     * Use the SIMD tier (qgemm_w8a8_simd and the AVX2 requantize for
     * qconv2d, the AVX2 kernel for qconv2d_depthwise) when it is
     * available; results are bitwise identical to the scalar path
     * either way. Set by the SIMD registry impls, left false by the
     * scalar ones.
     */
    bool simd = false;
};

/**
 * Caller-provided scratch for qconv2d. Null fields fall back to
 * self-managed buffers; prepared layers carve the per-invocation
 * buffers from the engine workspace and precompute the weight row sums
 * once at plan time.
 */
struct QConv2dScratch {
    /** Quantized column matrix; im2col_col_count() uint8 entries. */
    std::uint8_t *col = nullptr;
    /** int32 accumulator block; qconv2d_acc_count() entries. */
    std::int32_t *acc = nullptr;
    /** Precomputed per-output-channel weight row sums (length out_c);
     *  constant for constant weights, used for the zero-point
     *  correction. Null recomputes them per call. */
    const std::int32_t *weight_row_sums = nullptr;
    /** int16 tile-packing buffer for the SIMD qgemm path;
     *  qconv2d_pack_i16_count() entries. Null falls back to a
     *  call-local allocation. */
    std::int16_t *pack = nullptr;
};

/** int32 entries of the qconv2d accumulator block:
 *  (out_c/group) * out_h * out_w. */
std::size_t qconv2d_acc_count(std::int64_t out_c, const Conv2dParams &params,
                              std::int64_t out_h, std::int64_t out_w);

/** Per-output-channel sums of an int8 OIHW weight tensor; @p out must
 *  hold weight.shape().dim(0) entries. */
void qconv2d_weight_row_sums(const Tensor &weight, std::int32_t *out);

/** int16 entries of the SIMD qgemm packing buffer for this conv's
 *  reduction depth ((in_c/group) * kernel_area). */
std::size_t qconv2d_pack_i16_count(std::int64_t in_c,
                                   const Conv2dParams &params);

/** Runs the quantized convolution through im2col + qgemm_w8a8 (or
 *  qgemm_w8a8_simd with args.simd). Throws on dtype/shape mismatches. */
void qconv2d(const QConv2dArgs &args,
             const QConv2dScratch *scratch = nullptr);

/** Row width of the zero-point-padded input plane the SIMD depthwise
 *  kernel reads: pad_left + in_w + pad_right, widened so the blocks of
 *  16 outputs never read past a row. */
std::int64_t qconv2d_depthwise_padded_width(std::int64_t in_w,
                                            const Conv2dParams &params);

/** Bytes of the SIMD depthwise kernel's QConv2dScratch::col: that
 *  padded plane, (pad_top + in_h + pad_bottom) rows, then the per-channel
 *  tap weights as broadcast pairs. */
std::size_t qconv2d_depthwise_col_count(std::int64_t in_h, std::int64_t in_w,
                                        const Conv2dParams &params);

/**
 * Direct depthwise quantized convolution (any kernel, stride and
 * dilation). With args.simd it runs the AVX2 kernel when available, the
 * width stride is 1 or 2 and the width dilation 1; output is bitwise
 * identical to the scalar kernel and to qconv2d. @p scratch supplies
 * the scalar kernel's acc (one output row, out_w entries) and the SIMD
 * kernel's col (null fields: call-local). Throws unless
 * group == in_c == out_c.
 */
void qconv2d_depthwise(const QConv2dArgs &args,
                       const QConv2dScratch *scratch = nullptr);

/** The requantize constants every qconv lowering derives from its args:
 *  output zero point, fused-activation clamp bounds, and the per-channel
 *  multiplier x_scale * w_scale[oc] / y_scale. */
struct QConvRequant {
    explicit QConvRequant(const QConv2dArgs &args);
    float multiplier(std::int64_t oc) const;

    std::int32_t zero_point;
    std::int32_t lo = 0;
    std::int32_t hi = 255;

  private:
    const QConv2dArgs *args_;
};

// Per-ISA entry points (defined in qconv_avx2.cpp with the matching ISA
// flags; reached only through qconv2d / qconv2d_depthwise).
#if defined(ORPHEUS_SIMD_X86)
/** out[i] = requantize(acc[i] + offset, multiplier, rq) for i < n. */
void qconv2d_requantize_row_avx2(const std::int32_t *acc, std::int64_t n,
                                 std::int32_t offset, float multiplier,
                                 const QConvRequant &rq, std::uint8_t *out);
/** @p col holds qconv2d_depthwise_col_count() bytes. */
void qconv2d_depthwise_avx2(const QConv2dArgs &args, const QConvRequant &rq,
                            std::uint8_t *col);
#endif

} // namespace orpheus
