/** @file Unit + equivalence tests for the graph simplification passes. */
#include "graph/passes/pass.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "models/builder.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::expect_close;
using testing::make_random;

/** Counts nodes of @p op_type. */
std::size_t
count_ops(const Graph &graph, const std::string &op_type)
{
    std::size_t count = 0;
    for (const Node &node : graph.nodes())
        count += node.op_type() == op_type ? 1 : 0;
    return count;
}

/** Runs @p graph before/after simplification and checks equal results. */
void
expect_equivalent_after_simplification(Graph graph, float atol = 1e-4f)
{
    EngineOptions raw_options;
    raw_options.apply_simplifications = false;
    Graph raw_graph = graph; // Copy before simplification mutates it.
    Engine raw(std::move(raw_graph), raw_options);

    EngineOptions simplified_options;
    simplified_options.apply_simplifications = true;
    Engine simplified(std::move(graph), simplified_options);

    Tensor input = make_random(raw.graph().inputs().front().shape, 0xe1);
    expect_close(simplified.run(input), raw.run(input), atol, 1e-3f);
}

TEST(EliminateIdentity, RemovesIdentityChain)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 4}));
    graph.add_node(op_names::kIdentity, {"x"}, {"a"});
    graph.add_node(op_names::kIdentity, {"a"}, {"b"});
    graph.add_node(op_names::kRelu, {"b"}, {"y"});
    graph.add_output("y");

    auto pass = make_eliminate_identity_pass();
    EXPECT_TRUE(pass->run(graph));
    EXPECT_EQ(graph.nodes().size(), 1u);
    EXPECT_EQ(graph.nodes()[0].input(0), "x");
    EXPECT_NO_THROW(graph.validate());
    EXPECT_FALSE(pass->run(graph)) << "second run must be a no-op";
}

TEST(EliminateIdentity, RemovesInferenceDropout)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 4}));
    graph.add_node(op_names::kDropout, {"x"}, {"a"});
    graph.add_node(op_names::kRelu, {"a"}, {"y"});
    graph.add_output("y");

    EXPECT_TRUE(make_eliminate_identity_pass()->run(graph));
    EXPECT_EQ(count_ops(graph, op_names::kDropout), 0u);
}

TEST(EliminateIdentity, IdentityFeedingGraphOutput)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 4}));
    graph.add_node(op_names::kRelu, {"x"}, {"a"});
    graph.add_node(op_names::kIdentity, {"a"}, {"y"});
    graph.add_output("y");

    EXPECT_TRUE(make_eliminate_identity_pass()->run(graph));
    // The graph output was rewired to the relu's value.
    EXPECT_TRUE(graph.is_graph_output("a"));
    EXPECT_NO_THROW(graph.validate());
}

TEST(FoldBatchNorm, FoldsIntoConvAndPreservesNumerics)
{
    GraphBuilder b("g", 0xb1);
    std::string x = b.input("input", Shape({1, 3, 8, 8}));
    x = b.batchnorm(b.conv_k(x, 8, 3, 1, 1));
    b.output(x);
    Graph graph = b.take();

    Graph folded = graph;
    auto pass = make_fold_batchnorm_pass();
    EXPECT_TRUE(pass->run(folded));
    EXPECT_EQ(count_ops(folded, op_names::kBatchNormalization), 0u);
    // The conv gained a bias input.
    for (const Node &node : folded.nodes()) {
        if (node.op_type() == op_names::kConv)
            EXPECT_TRUE(node.has_input(2));
    }

    expect_equivalent_after_simplification(std::move(graph));
}

/** A conv+BN graph whose weights are fixed by the builder seed. */
Graph
conv_bn_graph()
{
    GraphBuilder b("g", 0xbd);
    std::string x = b.input("input", Shape({1, 3, 8, 8}));
    b.output(b.batchnorm(b.conv_k(x, 8, 3, 1, 1)));
    return b.take();
}

/** The weight initializer of the graph's only Conv. */
const Tensor &
conv_weight(const Graph &graph)
{
    for (const Node &node : graph.nodes())
        if (node.op_type() == op_names::kConv)
            return graph.initializer(node.input(1));
    throw Error("graph has no Conv");
}

TEST(FoldBatchNorm, ScalesOnlyUnsharedWeightsInPlace)
{
    // Two Graph copies share initializer buffers: folding one must not
    // touch the other's weight.
    Graph folded = conv_bn_graph();
    Graph shared = folded;
    const Tensor shared_weight = conv_weight(shared).clone();
    simplify_graph(folded);
    const Tensor &untouched = conv_weight(shared);
    ASSERT_EQ(untouched.byte_size(), shared_weight.byte_size());
    EXPECT_EQ(std::memcmp(untouched.raw_data(), shared_weight.raw_data(),
                          untouched.byte_size()),
              0);

    // ...and compiles to the same bits as a copy that never shared.
    Engine from_shared(std::move(shared));
    Engine unshared(conv_bn_graph());
    const Tensor input = make_random(Shape({1, 3, 8, 8}), 0xbe);
    const Tensor expected = unshared.run(input);
    const Tensor actual = from_shared.run(input);
    ASSERT_EQ(actual.byte_size(), expected.byte_size());
    EXPECT_EQ(std::memcmp(actual.raw_data(), expected.raw_data(),
                          actual.byte_size()),
              0);

    // A weight nothing else references is scaled where it lies.
    Graph sole = conv_bn_graph();
    const void *storage = conv_weight(sole).raw_data();
    simplify_graph(sole);
    EXPECT_EQ(conv_weight(sole).raw_data(), storage);
}

TEST(FoldBatchNorm, LeavesBnWithMultipleConsumersOfConv)
{
    GraphBuilder b("g", 0xbb);
    std::string x = b.input("input", Shape({1, 3, 8, 8}));
    std::string conv = b.conv_k(x, 3, 3, 1, 1);
    std::string bn = b.batchnorm(conv);
    std::string merged = b.add(bn, conv); // conv has 2 consumers
    b.output(merged);
    Graph graph = b.take();

    EXPECT_FALSE(make_fold_batchnorm_pass()->run(graph));
    EXPECT_EQ(count_ops(graph, op_names::kBatchNormalization), 1u);
}

TEST(FoldBatchNorm, StandaloneBnUntouched)
{
    GraphBuilder b("g", 0xbc);
    std::string x = b.input("input", Shape({1, 4, 6, 6}));
    b.output(b.batchnorm(x));
    Graph graph = b.take();
    EXPECT_FALSE(make_fold_batchnorm_pass()->run(graph));
}

TEST(FuseConvActivation, FusesReluIntoConv)
{
    GraphBuilder b("g", 0xfa);
    std::string x = b.input("input", Shape({1, 3, 8, 8}));
    x = b.relu(b.conv_k(x, 8, 3, 1, 1));
    b.output(x);
    Graph graph = b.take();

    Graph fused = graph;
    EXPECT_TRUE(make_fuse_conv_activation_pass()->run(fused));
    EXPECT_EQ(count_ops(fused, op_names::kRelu), 0u);
    for (const Node &node : fused.nodes()) {
        if (node.op_type() == op_names::kConv)
            EXPECT_EQ(node.attrs().get_string("fused_activation", ""),
                      "relu");
    }

    expect_equivalent_after_simplification(std::move(graph));
}

TEST(FuseConvActivation, FusesLeakyReluWithAlpha)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 2, 6, 6}));
    graph.add_initializer("w", Tensor(Shape({4, 2, 3, 3})));
    AttributeMap conv_attrs;
    conv_attrs.set("kernel_shape", std::vector<std::int64_t>{3, 3});
    conv_attrs.set("pads", std::vector<std::int64_t>{1, 1, 1, 1});
    graph.add_node(op_names::kConv, {"x", "w"}, {"c"},
                   std::move(conv_attrs));
    AttributeMap leaky_attrs;
    leaky_attrs.set("alpha", 0.2f);
    graph.add_node(op_names::kLeakyRelu, {"c"}, {"y"},
                   std::move(leaky_attrs));
    graph.add_output("y");

    EXPECT_TRUE(make_fuse_conv_activation_pass()->run(graph));
    const Node &conv = graph.nodes()[0];
    EXPECT_EQ(conv.attrs().get_string("fused_activation", ""),
              "leaky_relu");
    EXPECT_FLOAT_EQ(conv.attrs().get_float("fused_alpha", 0), 0.2f);
}

TEST(FuseConvActivation, DoesNotFuseWhenConvHasOtherConsumers)
{
    GraphBuilder b("g", 0xfb);
    std::string x = b.input("input", Shape({1, 3, 8, 8}));
    std::string conv = b.conv_k(x, 3, 3, 1, 1);
    std::string act = b.relu(conv);
    b.output(b.add(act, conv));
    Graph graph = b.take();
    EXPECT_FALSE(make_fuse_conv_activation_pass()->run(graph));
}

TEST(FoldPad, MergesZeroPadIntoConv)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 2, 8, 8}));
    AttributeMap pad_attrs;
    pad_attrs.set("pads",
                  std::vector<std::int64_t>{0, 0, 1, 2, 0, 0, 3, 4});
    graph.add_node(op_names::kPad, {"x"}, {"p"}, std::move(pad_attrs));
    graph.add_initializer("w", Tensor(Shape({4, 2, 3, 3})));
    AttributeMap conv_attrs;
    conv_attrs.set("kernel_shape", std::vector<std::int64_t>{3, 3});
    conv_attrs.set("pads", std::vector<std::int64_t>{1, 1, 1, 1});
    graph.add_node(op_names::kConv, {"p", "w"}, {"y"},
                   std::move(conv_attrs));
    graph.add_output("y");

    EXPECT_TRUE(make_fold_pad_pass()->run(graph));
    EXPECT_EQ(count_ops(graph, op_names::kPad), 0u);
    const Node &conv = graph.nodes()[0];
    const auto pads = conv.attrs().get_ints("pads", {});
    ASSERT_EQ(pads.size(), 4u);
    EXPECT_EQ(pads[0], 2); // top: 1 + 1
    EXPECT_EQ(pads[1], 3); // left: 2 + 1
    EXPECT_EQ(pads[2], 4); // bottom: 3 + 1
    EXPECT_EQ(pads[3], 5); // right: 4 + 1
}

TEST(FoldPad, LeavesNonZeroValuePad)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 2, 8, 8}));
    AttributeMap pad_attrs;
    pad_attrs.set("pads",
                  std::vector<std::int64_t>{0, 0, 1, 1, 0, 0, 1, 1});
    pad_attrs.set("value", 1.0f);
    graph.add_node(op_names::kPad, {"x"}, {"p"}, std::move(pad_attrs));
    graph.add_initializer("w", Tensor(Shape({4, 2, 3, 3})));
    AttributeMap conv_attrs;
    conv_attrs.set("kernel_shape", std::vector<std::int64_t>{3, 3});
    graph.add_node(op_names::kConv, {"p", "w"}, {"y"},
                   std::move(conv_attrs));
    graph.add_output("y");

    EXPECT_FALSE(make_fold_pad_pass()->run(graph));
}

TEST(ConstantFolding, ConstantNodeBecomesInitializer)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 2}));
    AttributeMap attrs;
    attrs.set("value", Tensor::from_values(Shape({1, 2}), {1, 2}));
    graph.add_node(op_names::kConstant, {}, {"c"}, std::move(attrs));
    graph.add_node(op_names::kAdd, {"x", "c"}, {"y"});
    graph.add_output("y");

    EXPECT_TRUE(make_constant_folding_pass()->run(graph));
    EXPECT_EQ(count_ops(graph, op_names::kConstant), 0u);
    EXPECT_TRUE(graph.has_initializer("c"));
    EXPECT_NO_THROW(graph.validate());
}

TEST(ConstantFolding, ReshapeOfInitializerFolds)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 6}));
    graph.add_initializer("w",
                          Tensor::from_values(Shape({2, 3}),
                                              {1, 2, 3, 4, 5, 6}));
    graph.add_initializer("spec", Tensor::from_int64s({1, 6}));
    graph.add_node(op_names::kReshape, {"w", "spec"}, {"wr"});
    graph.add_node(op_names::kAdd, {"x", "wr"}, {"y"});
    graph.add_output("y");

    EXPECT_TRUE(make_constant_folding_pass()->run(graph));
    EXPECT_EQ(count_ops(graph, op_names::kReshape), 0u);
    ASSERT_TRUE(graph.has_initializer("wr"));
    EXPECT_EQ(graph.initializer("wr").shape(), Shape({1, 6}));
    EXPECT_EQ(graph.initializer("wr").data<float>()[5], 6.0f);
}

TEST(EliminateDeadNodes, RemovesUnreachableAndGcsInitializers)
{
    Graph graph("g");
    graph.add_input("x", Shape({1, 4}));
    graph.add_initializer("unused", Tensor(Shape({2})));
    graph.add_node(op_names::kRelu, {"x"}, {"y"});
    graph.add_node(op_names::kRelu, {"x"}, {"dead"});
    graph.add_output("y");

    EXPECT_TRUE(make_eliminate_dead_nodes_pass()->run(graph));
    EXPECT_EQ(graph.nodes().size(), 1u);
    EXPECT_FALSE(graph.has_initializer("unused"));
    EXPECT_NO_THROW(graph.validate());
}

TEST(PassManager, PipelineConvergesAndReports)
{
    GraphBuilder b("g", 0xcafe);
    std::string x = b.input("input", Shape({1, 3, 16, 16}));
    x = b.cbr(x, 8, 3, 1, 1);
    x = b.cbr(x, 8, 3, 1, 1);
    b.output(x);
    Graph graph = b.take();

    const std::size_t nodes_before = graph.nodes().size();
    const PassManagerReport report = simplify_graph(graph);
    EXPECT_TRUE(report.changed());
    EXPECT_GE(report.iterations, 2);
    EXPECT_LT(graph.nodes().size(), nodes_before);
    // conv+bn+relu stacks collapse to two fused convs.
    EXPECT_EQ(graph.nodes().size(), 2u);
    EXPECT_EQ(count_ops(graph, op_names::kBatchNormalization), 0u);
    EXPECT_EQ(count_ops(graph, op_names::kRelu), 0u);
}

TEST(PassManager, FullPipelinePreservesResNetStyleBlockNumerics)
{
    GraphBuilder b("g", 0x1e5);
    std::string x = b.input("input", Shape({1, 3, 16, 16}));
    std::string trunk = b.cbr(x, 8, 3, 1, 1);
    std::string path = b.cbr(trunk, 8, 3, 1, 1);
    path = b.batchnorm(b.conv_k(path, 8, 3, 1, 1));
    std::string merged = b.relu(b.add(path, trunk));
    merged = b.global_average_pool(merged);
    merged = b.flatten(merged);
    merged = b.dense(merged, 10);
    b.output(b.softmax(merged));

    expect_equivalent_after_simplification(b.take());
}

} // namespace
} // namespace orpheus
