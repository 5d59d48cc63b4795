/** @file Tests for kernel-selection strategies (heuristic, pinned,
 *  auto-tune). */
#include "runtime/selection.hpp"

#include <gtest/gtest.h>

#include "core/cpu_features.hpp"
#include "models/builder.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::expect_close;
using testing::make_random;

/** A 2-conv graph: one depthwise, one dense 3x3. */
Graph
two_conv_graph()
{
    GraphBuilder b("g", 0x5e1);
    std::string x = b.input("input", Shape({1, 8, 10, 10}));
    x = b.conv_k(x, 8, 3, 1, 1, /*group=*/8, /*bias=*/true);   // depthwise
    x = b.conv_k(x, 16, 3, 1, 1, /*group=*/1, /*bias=*/true);  // dense
    b.output(x);
    return b.take();
}

/** Impl name selected for each Conv node in plan order. */
std::vector<std::string>
conv_impls(const Engine &engine)
{
    std::vector<std::string> impls;
    for (const PlanStep &step : engine.steps()) {
        if (step.op_type == op_names::kConv)
            impls.push_back(step.layer->impl_name());
    }
    return impls;
}

TEST(Selection, HeuristicPicksSpecialisedKernels)
{
    // On a host with the SIMD tier the heuristic prefers the vector
    // variants of the same specialised kernels.
    const std::string suffix =
        simd_enabled() ? std::string("_") + simd_isa_compiled() : "";
    Engine engine(two_conv_graph());
    const auto impls = conv_impls(engine);
    ASSERT_EQ(impls.size(), 2u);
    EXPECT_EQ(impls[0], "depthwise" + (suffix.empty() ? "_direct" : suffix));
    EXPECT_EQ(impls[1], "im2col_gemm" + suffix);
}

TEST(Selection, ForcedImplAppliesToAllNodesOfOp)
{
    EngineOptions options;
    options.backend.forced_impl[op_names::kConv] = "spatial_pack";
    Engine engine(two_conv_graph(), options);
    for (const std::string &impl : conv_impls(engine))
        EXPECT_EQ(impl, "spatial_pack");
}

TEST(Selection, NodePinOverridesOpPin)
{
    Graph graph = two_conv_graph();
    // Find the second conv's node name.
    std::string second_conv;
    for (const Node &node : graph.nodes()) {
        if (node.op_type() == op_names::kConv)
            second_conv = node.name();
    }

    EngineOptions options;
    options.backend.forced_impl[op_names::kConv] = "spatial_pack";
    options.backend.node_impl[second_conv] = "direct";
    Engine engine(std::move(graph), options);
    const auto impls = conv_impls(engine);
    ASSERT_EQ(impls.size(), 2u);
    EXPECT_EQ(impls[0], "spatial_pack");
    EXPECT_EQ(impls[1], "direct");
}

TEST(Selection, UnknownPinFailsAtCompileTime)
{
    EngineOptions options;
    options.backend.forced_impl[op_names::kConv] = "does_not_exist";
    EXPECT_THROW(Engine(two_conv_graph(), options), Error);
}

TEST(Selection, DepthwiseDisabledFallsBackToGenericPath)
{
    EngineOptions options;
    options.backend.allow_depthwise_specialization = false;
    const std::string expected =
        simd_enabled() ? std::string("im2col_gemm_") + simd_isa_compiled()
                       : std::string("im2col_gemm");
    Engine engine(two_conv_graph(), options);
    const auto impls = conv_impls(engine);
    ASSERT_EQ(impls.size(), 2u);
    EXPECT_EQ(impls[0], expected) << "depthwise must take the grouped "
                                     "GEMM path when specialisation "
                                     "is disabled";
}

TEST(Selection, AutoTuneSelectsAndLogsMeasurements)
{
    EngineOptions options;
    options.selection = SelectionStrategy::kAutoTune;
    options.autotune_runs = 1;
    Engine engine(two_conv_graph(), options);

    EXPECT_FALSE(engine.autotune_log().empty());
    for (const auto &[node, measurements] : engine.autotune_log()) {
        EXPECT_GE(measurements.size(), 2u)
            << node << " should have timed several candidates";
        for (const auto &[impl, ms] : measurements)
            EXPECT_GE(ms, 0.0) << impl;
    }
}

TEST(Selection, AutoTuneProducesSameNumericsAsHeuristic)
{
    Engine heuristic(two_conv_graph());
    EngineOptions options;
    options.selection = SelectionStrategy::kAutoTune;
    options.autotune_runs = 1;
    Engine tuned(two_conv_graph(), options);

    Tensor input = make_random(Shape({1, 8, 10, 10}), 0x5e2);
    expect_close(tuned.run(input), heuristic.run(input), 1e-3f, 1e-3f);
}

/** A Relu kernel that refuses to run unprepared or without a bound
 *  workspace, as a kernel with plan-time packs and scratch would. */
class PreparedOnlyRelu : public Layer
{
  public:
    void
    prepare(PlanContext &ctx) override
    {
        scratch_ = ctx.reserve(64);
        prepared_ = true;
    }

    void
    bind_workspace(const Workspace &workspace) override
    {
        workspace_ = workspace;
    }

    void
    forward(const std::vector<const Tensor *> &inputs,
            const std::vector<Tensor *> &outputs) override
    {
        ORPHEUS_CHECK(prepared_ && workspace_.at<float>(scratch_) != nullptr,
                      "forward before prepare() and bind_workspace()");
        const float *in = inputs[0]->data<float>();
        float *out = outputs[0]->data<float>();
        for (std::int64_t i = 0; i < inputs[0]->numel(); ++i)
            out[i] = in[i] > 0.0f ? in[i] : 0.0f;
    }

  private:
    bool prepared_ = false;
    std::size_t scratch_ = 0;
    Workspace workspace_;
};

TEST(Selection, AutoTuneTimesPreparedCandidates)
{
    const std::string node_name = "autotune_prepared_only_relu";
    KernelRegistry::instance().add(
        {op_names::kRelu, "prepared_only", -100,
         [node_name](const LayerInit &init) {
             return init.node->name() == node_name;
         },
         [](const LayerInit &) {
             return std::make_unique<PreparedOnlyRelu>();
         }});

    Graph graph("prepared_only");
    graph.add_input("x", Shape({1, 16}));
    graph.add_node(op_names::kRelu, {"x"}, {"y"}, {}, node_name);
    graph.add_output("y");
    EngineOptions options;
    options.selection = SelectionStrategy::kAutoTune;
    options.autotune_runs = 1;
    std::unique_ptr<Engine> engine;
    ASSERT_NO_THROW(engine = std::make_unique<Engine>(std::move(graph),
                                                      options));

    bool timed = false;
    for (const auto &[impl, ms] : engine->autotune_log().at(node_name))
        timed |= impl == "prepared_only";
    EXPECT_TRUE(timed);
    const Tensor y = engine->run(
        Tensor::from_values(Shape({1, 16}), std::vector<float>(16, -1.0f)));
    EXPECT_EQ(y.data<float>()[0], 0.0f);
}

TEST(Selection, StrategyNames)
{
    EXPECT_STREQ(to_string(SelectionStrategy::kHeuristic), "heuristic");
    EXPECT_STREQ(to_string(SelectionStrategy::kAutoTune), "autotune");
}

} // namespace
} // namespace orpheus
