/** @file Unit tests for the im2col lowering. */
#include "ops/conv/im2col.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "core/status.hpp"

namespace orpheus {
namespace {

/** Reference im2col: direct index arithmetic, no fast paths. */
template <typename T>
void
im2col_reference(const T *data, std::int64_t channels, std::int64_t h,
                 std::int64_t w, const Conv2dParams &p, std::int64_t out_h,
                 std::int64_t out_w, T pad_value, T *col)
{
    std::int64_t row = 0;
    for (std::int64_t c = 0; c < channels; ++c) {
        for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
            for (std::int64_t kw = 0; kw < p.kernel_w; ++kw, ++row) {
                for (std::int64_t oh = 0; oh < out_h; ++oh) {
                    for (std::int64_t ow = 0; ow < out_w; ++ow) {
                        const std::int64_t ih =
                            oh * p.stride_h - p.pad_top + kh * p.dilation_h;
                        const std::int64_t iw =
                            ow * p.stride_w - p.pad_left +
                            kw * p.dilation_w;
                        const bool inside =
                            ih >= 0 && ih < h && iw >= 0 && iw < w;
                        col[row * out_h * out_w + oh * out_w + ow] =
                            inside ? data[(c * h + ih) * w + iw] : pad_value;
                    }
                }
            }
        }
    }
}

struct Im2colCase {
    std::int64_t channels, h, w, kernel, stride, pad, dilation;
};

class Im2colVsReference : public ::testing::TestWithParam<Im2colCase>
{
};

TEST_P(Im2colVsReference, Matches)
{
    const Im2colCase &c = GetParam();
    Conv2dParams p;
    p.kernel_h = p.kernel_w = c.kernel;
    p.stride_h = p.stride_w = c.stride;
    p.pad_top = p.pad_left = p.pad_bottom = p.pad_right = c.pad;
    p.dilation_h = p.dilation_w = c.dilation;

    const std::int64_t out_h = p.out_h(c.h);
    const std::int64_t out_w = p.out_w(c.w);
    const std::size_t col_size = static_cast<std::size_t>(
        c.channels * c.kernel * c.kernel * out_h * out_w);

    Rng rng(0x101);
    std::vector<float> data(static_cast<std::size_t>(c.channels * c.h *
                                                     c.w));
    for (float &value : data)
        value = rng.uniform(-1.0f, 1.0f);

    std::vector<float> expected(col_size, -99.0f), actual(col_size, -99.0f);
    im2col_reference(data.data(), c.channels, c.h, c.w, p, out_h, out_w,
                     0.0f, expected.data());
    im2col(data.data(), c.channels, c.h, c.w, p, out_h, out_w, 0.0f,
           actual.data());
    EXPECT_EQ(actual, expected);

    // The quantized conv's instantiation pads with the zero point.
    std::vector<std::uint8_t> data_u8(data.size());
    for (std::uint8_t &value : data_u8)
        value = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::vector<std::uint8_t> expected_u8(col_size, 0), actual_u8(col_size, 0);
    im2col_reference<std::uint8_t>(data_u8.data(), c.channels, c.h, c.w, p,
                                   out_h, out_w, 117, expected_u8.data());
    im2col<std::uint8_t>(data_u8.data(), c.channels, c.h, c.w, p, out_h,
                         out_w, 117, actual_u8.data());
    EXPECT_EQ(actual_u8, expected_u8);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, Im2colVsReference,
    ::testing::Values(Im2colCase{1, 4, 4, 3, 1, 1, 1},
                      Im2colCase{3, 8, 8, 3, 1, 1, 1},
                      Im2colCase{2, 7, 9, 3, 2, 1, 1},
                      Im2colCase{2, 8, 8, 5, 1, 2, 1},
                      Im2colCase{1, 9, 9, 3, 1, 2, 2},
                      Im2colCase{4, 6, 6, 1, 1, 0, 1},
                      Im2colCase{2, 10, 5, 3, 3, 0, 1}),
    [](const ::testing::TestParamInfo<Im2colCase> &info) {
        const Im2colCase &c = info.param;
        return "c" + std::to_string(c.channels) + "h" + std::to_string(c.h) +
               "w" + std::to_string(c.w) + "k" + std::to_string(c.kernel) +
               "s" + std::to_string(c.stride) + "p" + std::to_string(c.pad) +
               "d" + std::to_string(c.dilation);
    });

TEST(Im2col, PointwiseIsIdentityLayout)
{
    // For 1x1 stride-1 no-pad, the col matrix equals the input.
    Conv2dParams p; // all defaults: 1x1, stride 1, no padding
    std::vector<float> data = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<float> col(8, 0.0f);
    im2col(data.data(), 2, 2, 2, p, 2, 2, 0.0f, col.data());
    EXPECT_EQ(col, data);
    EXPECT_TRUE(is_pointwise_conv(p));
    EXPECT_EQ(im2col_col_count(2, p, 2, 2), 0u);
    p.pad_top = 1;
    EXPECT_FALSE(is_pointwise_conv(p));
    EXPECT_EQ(im2col_col_count(2, p, 3, 2), 12u);
}

} // namespace
} // namespace orpheus
