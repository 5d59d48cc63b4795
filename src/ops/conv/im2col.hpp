/**
 * @file
 * im2col: lowers convolution input windows into a dense matrix so the
 * convolution becomes a single GEMM. One implementation serves the fp32
 * conv (padding written as 0) and the quantized conv (padding written as
 * the activation zero point, which dequantizes to exactly 0).
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/op_params.hpp"

namespace orpheus {

/** True for a 1x1, stride-1, pad-0 conv, whose input already is its
 *  column matrix: the GEMM lowerings skip im2col for it. */
bool is_pointwise_conv(const Conv2dParams &params);

/** Entries of the column matrix of one (image, group):
 *  (in_c/group) * kernel_h * kernel_w * out_h * out_w, or 0 when
 *  is_pointwise_conv(). */
std::size_t im2col_col_count(std::int64_t in_c, const Conv2dParams &params,
                             std::int64_t out_h, std::int64_t out_w);

/**
 * Expands @p data (one image / one group: channels x height x width,
 * contiguous) into @p col with layout
 * [channels * kernel_h * kernel_w, out_h * out_w] row-major;
 * out-of-bounds samples take @p pad_value. Instantiated for float and
 * uint8_t.
 */
template <typename T>
void im2col(const T *data, std::int64_t channels, std::int64_t height,
            std::int64_t width, const Conv2dParams &params,
            std::int64_t out_h, std::int64_t out_w, T pad_value, T *col);

} // namespace orpheus
