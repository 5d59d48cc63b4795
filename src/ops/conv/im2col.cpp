#include "ops/conv/im2col.hpp"

#include <algorithm>
#include <cstring>

namespace orpheus {

bool
is_pointwise_conv(const Conv2dParams &p)
{
    return p.kernel_h == 1 && p.kernel_w == 1 && p.stride_h == 1 &&
           p.stride_w == 1 && p.pad_top == 0 && p.pad_left == 0 &&
           p.pad_bottom == 0 && p.pad_right == 0;
}

std::size_t
im2col_col_count(std::int64_t in_c, const Conv2dParams &p,
                 std::int64_t out_h, std::int64_t out_w)
{
    if (is_pointwise_conv(p))
        return 0;
    return static_cast<std::size_t>(in_c / p.group * p.kernel_h *
                                    p.kernel_w * out_h * out_w);
}

template <typename T>
void
im2col(const T *data, std::int64_t channels, std::int64_t height,
       std::int64_t width, const Conv2dParams &p, std::int64_t out_h,
       std::int64_t out_w, T pad_value, T *col)
{
    // One output row of `col` per (channel, kh, kw) triple; the inner
    // loops walk output coordinates so writes are fully sequential.
    for (std::int64_t c = 0; c < channels; ++c) {
        const T *plane = data + c * height * width;
        for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
            for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
                T *row = col + ((c * p.kernel_h + kh) * p.kernel_w + kw) *
                                   out_h * out_w;
                for (std::int64_t oh = 0; oh < out_h; ++oh) {
                    const std::int64_t ih =
                        oh * p.stride_h - p.pad_top + kh * p.dilation_h;
                    T *out_row = row + oh * out_w;
                    if (ih < 0 || ih >= height) {
                        std::fill_n(out_row, out_w, pad_value);
                        continue;
                    }
                    const T *in_row = plane + ih * width;
                    const std::int64_t base =
                        kw * p.dilation_w - p.pad_left;
                    if (p.stride_w == 1) {
                        // Fast path: one bounds split, then memcpy.
                        std::int64_t ow = 0;
                        for (; ow < out_w && base + ow < 0; ++ow)
                            out_row[ow] = pad_value;
                        std::int64_t valid = out_w;
                        while (valid > ow && base + valid - 1 >= width)
                            --valid;
                        if (valid > ow)
                            std::memcpy(out_row + ow, in_row + base + ow,
                                        static_cast<std::size_t>(valid - ow) *
                                            sizeof(T));
                        for (ow = valid; ow < out_w; ++ow)
                            out_row[ow] = pad_value;
                    } else {
                        for (std::int64_t ow = 0; ow < out_w; ++ow) {
                            const std::int64_t iw = base + ow * p.stride_w;
                            out_row[ow] = (iw >= 0 && iw < width)
                                              ? in_row[iw]
                                              : pad_value;
                        }
                    }
                }
            }
        }
    }
}

template void im2col<float>(const float *, std::int64_t, std::int64_t,
                            std::int64_t, const Conv2dParams &, std::int64_t,
                            std::int64_t, float, float *);
template void im2col<std::uint8_t>(const std::uint8_t *, std::int64_t,
                                   std::int64_t, std::int64_t,
                                   const Conv2dParams &, std::int64_t,
                                   std::int64_t, std::uint8_t,
                                   std::uint8_t *);

} // namespace orpheus
