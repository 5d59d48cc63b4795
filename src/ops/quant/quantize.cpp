#include "ops/quant/quantize.hpp"

#include <algorithm>

namespace orpheus {

QuantParams
choose_uint8_params(float min, float max)
{
    // Widen to include zero and guard against degenerate ranges.
    min = std::min(min, 0.0f);
    max = std::max(max, 0.0f);
    if (max - min < 1e-8f)
        max = min + 1e-8f;

    QuantParams params;
    params.scale = (max - min) / 255.0f;
    // Nudge the zero point onto the grid so that real 0.0 is exact.
    const float zero = -min / params.scale;
    params.zero_point = round_saturate(zero);
    params.zero_point =
        std::clamp(params.zero_point, std::int32_t{0}, std::int32_t{255});
    return params;
}

QuantParams
choose_int8_symmetric_params(float abs_max)
{
    QuantParams params;
    params.scale = std::max(abs_max, 1e-8f) / 127.0f;
    params.zero_point = 0;
    return params;
}

void
quantize_to_uint8(const Tensor &input, const QuantParams &params,
                  Tensor &output)
{
    ORPHEUS_CHECK(output.dtype() == DataType::kUInt8 &&
                      output.shape() == input.shape(),
                  "quantize_to_uint8 needs a uint8 output of shape "
                      << input.shape());
    const float *in = input.data<float>();
    std::uint8_t *out = output.data<std::uint8_t>();
    const float inv_scale = 1.0f / params.scale;
    const std::int64_t count = input.numel();
    for (std::int64_t i = 0; i < count; ++i) {
        const std::int32_t q =
            round_saturate(in[i] * inv_scale) + params.zero_point;
        out[i] = static_cast<std::uint8_t>(
            std::clamp(q, std::int32_t{0}, std::int32_t{255}));
    }
}

void
quantize_to_int8(const Tensor &input, const QuantParams &params,
                 Tensor &output)
{
    ORPHEUS_CHECK(output.dtype() == DataType::kInt8 &&
                      output.shape() == input.shape(),
                  "quantize_to_int8 needs an int8 output of shape "
                      << input.shape());
    const float *in = input.data<float>();
    std::int8_t *out = output.data<std::int8_t>();
    const float inv_scale = 1.0f / params.scale;
    const std::int64_t count = input.numel();
    for (std::int64_t i = 0; i < count; ++i) {
        const std::int32_t q =
            round_saturate(in[i] * inv_scale) + params.zero_point;
        out[i] = static_cast<std::int8_t>(
            std::clamp(q, std::int32_t{-127}, std::int32_t{127}));
    }
}

void
dequantize_to_float(const Tensor &input, const QuantParams &params,
                    Tensor &output)
{
    ORPHEUS_CHECK(output.dtype() == DataType::kFloat32 &&
                      output.shape() == input.shape(),
                  "dequantize_to_float needs a fp32 output of shape "
                      << input.shape());
    float *out = output.data<float>();
    const std::int64_t count = input.numel();
    switch (input.dtype()) {
      case DataType::kUInt8: {
        const std::uint8_t *in = input.data<std::uint8_t>();
        for (std::int64_t i = 0; i < count; ++i)
            out[i] = params.dequantize(in[i]);
        return;
      }
      case DataType::kInt8: {
        const std::int8_t *in = input.data<std::int8_t>();
        for (std::int64_t i = 0; i < count; ++i)
            out[i] = params.dequantize(in[i]);
        return;
      }
      case DataType::kInt32: {
        const std::int32_t *in = input.data<std::int32_t>();
        for (std::int64_t i = 0; i < count; ++i)
            out[i] = params.dequantize(in[i]);
        return;
      }
      default:
        throw Error("dequantize_to_float: unsupported input dtype " +
                    std::string(to_string(input.dtype())));
    }
}

void
tensor_min_max(const Tensor &input, float &min, float &max)
{
    const float *data = input.data<float>();
    const std::int64_t count = input.numel();
    min = max = count > 0 ? data[0] : 0.0f;
    for (std::int64_t i = 1; i < count; ++i) {
        min = std::min(min, data[i]);
        max = std::max(max, data[i]);
    }
}

} // namespace orpheus
