/**
 * @file
 * Adapter registering minnl's kernels with the Orpheus registry.
 *
 * This file is the complete cost of integrating a third-party backend:
 * translate the node's static description into the vendor descriptor at
 * plan time, call the vendor entry point at forward time, register. The
 * engine, graph and selection machinery are untouched.
 */
#include "backend/kernel_registry.hpp"
#include "backend/minnl/minnl.h"
#include "graph/op_params.hpp"
#include "ops/activation.hpp"

namespace orpheus {

namespace {

class MinnlConvLayer : public Layer
{
  public:
    explicit MinnlConvLayer(const LayerInit &init)
        : activation_(ActivationSpec::from_fused_attrs(init.node->attrs())),
          has_bias_(init.node->has_input(2))
    {
        const Conv2dParams p =
            Conv2dParams::from_attrs(init.node->attrs(),
                                     init.input(1).shape);
        const Shape &in = init.input(0).shape;
        desc_.batch = static_cast<int>(in.dim(0));
        desc_.in_channels = static_cast<int>(in.dim(1));
        desc_.in_height = static_cast<int>(in.dim(2));
        desc_.in_width = static_cast<int>(in.dim(3));
        desc_.out_channels = static_cast<int>(init.output(0).shape.dim(1));
        desc_.kernel_h = static_cast<int>(p.kernel_h);
        desc_.kernel_w = static_cast<int>(p.kernel_w);
        desc_.stride_h = static_cast<int>(p.stride_h);
        desc_.stride_w = static_cast<int>(p.stride_w);
        desc_.pad_top = static_cast<int>(p.pad_top);
        desc_.pad_left = static_cast<int>(p.pad_left);
        desc_.pad_bottom = static_cast<int>(p.pad_bottom);
        desc_.pad_right = static_cast<int>(p.pad_right);
        desc_.groups = static_cast<int>(p.group);
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        const float *bias = has_bias_ ? inputs[2]->data<float>() : nullptr;
        const int status =
            minnl_conv2d_f32(&desc_, inputs[0]->data<float>(),
                             inputs[1]->data<float>(), bias,
                             outputs[0]->data<float>());
        ORPHEUS_CHECK(status == MINNL_OK,
                      "minnl_conv2d_f32 failed with status " << status);
        activation_.apply_inplace(outputs[0]->data<float>(),
                                  outputs[0]->numel());
    }

  private:
    minnl_conv_desc desc_ = {};
    ActivationSpec activation_;
    bool has_bias_;
};

class MinnlGemmLayer : public Layer
{
  public:
    explicit MinnlGemmLayer(const LayerInit &) {}

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        const Shape &a = inputs[0]->shape();
        const Shape &b = inputs[1]->shape();
        const int status = minnl_gemm_f32(
            static_cast<int>(a.dim(0)), static_cast<int>(b.dim(1)),
            static_cast<int>(a.dim(1)), inputs[0]->data<float>(),
            inputs[1]->data<float>(), outputs[0]->data<float>());
        ORPHEUS_CHECK(status == MINNL_OK,
                      "minnl_gemm_f32 failed with status " << status);
    }
};

class MinnlReluLayer : public Layer
{
  public:
    explicit MinnlReluLayer(const LayerInit &) {}

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        const int status = minnl_relu_f32(
            inputs[0]->data<float>(), outputs[0]->data<float>(),
            static_cast<std::size_t>(inputs[0]->numel()));
        ORPHEUS_CHECK(status == MINNL_OK,
                      "minnl_relu_f32 failed with status " << status);
    }
};

bool
third_party_allowed(const LayerInit &init)
{
    // minnl only handles dilation-1 convolutions.
    if (init.node->op_type() == op_names::kConv) {
        const Conv2dParams p = Conv2dParams::from_attrs(
            init.node->attrs(), init.input(1).shape);
        if (p.dilation_h != 1 || p.dilation_w != 1)
            return false;
    }
    return init.config->allow_third_party;
}

} // namespace

void
register_minnl_kernels(KernelRegistry &registry)
{
    registry.add({op_names::kConv, "minnl", 20, third_party_allowed,
                  [](const LayerInit &init) {
                      return std::make_unique<MinnlConvLayer>(init);
                  }});
    registry.add({op_names::kMatMul, "minnl", 20, third_party_allowed,
                  [](const LayerInit &init) {
                      return std::make_unique<MinnlGemmLayer>(init);
                  }});
    registry.add({op_names::kRelu, "minnl", 5, third_party_allowed,
                  [](const LayerInit &init) {
                      return std::make_unique<MinnlReluLayer>(init);
                  }});
}

} // namespace orpheus
