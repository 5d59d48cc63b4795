#include "ops/activation.hpp"

#include <limits>

namespace orpheus {

const char *
to_string(ActivationKind kind)
{
    switch (kind) {
      case ActivationKind::kNone: return "none";
      case ActivationKind::kRelu: return "relu";
      case ActivationKind::kLeakyRelu: return "leaky_relu";
      case ActivationKind::kClip: return "clip";
      case ActivationKind::kSigmoid: return "sigmoid";
      case ActivationKind::kTanh: return "tanh";
    }
    return "invalid";
}

ActivationSpec
ActivationSpec::from_fused_attrs(const AttributeMap &attrs)
{
    const std::string name = attrs.get_string("fused_activation", "");
    if (name.empty())
        return none();
    if (name == "relu")
        return relu();
    if (name == "leaky_relu")
        return leaky_relu(attrs.get_float("fused_alpha", 0.01f));
    if (name == "clip")
        return clip(attrs.get_float("fused_min",
                                    std::numeric_limits<float>::lowest()),
                    attrs.get_float("fused_max",
                                    std::numeric_limits<float>::max()));
    throw Error("unknown fused activation: " + name);
}

void
ActivationSpec::apply_inplace(float *data, std::int64_t count) const
{
    if (is_identity())
        return;
    for (std::int64_t i = 0; i < count; ++i)
        data[i] = apply(data[i]);
}

void
activation_forward(const ActivationSpec &spec, const Tensor &input,
                   Tensor &output)
{
    ORPHEUS_CHECK(input.shape() == output.shape(),
                  "activation shape mismatch: " << input.shape() << " vs "
                                                << output.shape());
    const float *in = input.data<float>();
    float *out = output.data<float>();
    const std::int64_t count = input.numel();
    for (std::int64_t i = 0; i < count; ++i)
        out[i] = spec.apply(in[i]);
}

} // namespace orpheus
