/** @file Integration tests for the inference engine. */
#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include "models/builder.hpp"
#include "models/model_zoo.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::expect_close;
using testing::make_random;

TEST(Engine, TinyCnnProducesValidDistribution)
{
    Engine engine(models::tiny_cnn());
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xe10);
    const Tensor output = engine.run(input);
    ASSERT_EQ(output.shape(), Shape({1, 10}));
    double sum = 0.0;
    for (int i = 0; i < 10; ++i) {
        EXPECT_GE(output.data<float>()[i], 0.0f);
        sum += output.data<float>()[i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Engine, RunIsDeterministic)
{
    Engine engine(models::tiny_cnn());
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xe11);
    const Tensor first = engine.run(input);
    const Tensor second = engine.run(input);
    EXPECT_EQ(max_abs_diff(first, second), 0.0f);
}

TEST(Engine, TwoEnginesOfSameModelAgree)
{
    Engine a(models::tiny_cnn());
    Engine b(models::tiny_cnn());
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xe12);
    expect_close(a.run(input), b.run(input), 1e-6f, 1e-6f);
}

TEST(Engine, MissingInputRejected)
{
    Engine engine(models::tiny_cnn());
    EXPECT_THROW(engine.run(std::map<std::string, Tensor>{}), Error);
}

TEST(Engine, WrongInputShapeRejected)
{
    Engine engine(models::tiny_cnn());
    Tensor wrong = make_random(Shape({1, 3, 9, 9}));
    EXPECT_THROW(engine.run(wrong), Error);
}

TEST(Engine, MultiOutputGraph)
{
    Graph graph("multi");
    graph.add_input("x", Shape({1, 4}));
    graph.add_node(op_names::kRelu, {"x"}, {"pos"});
    graph.add_node(op_names::kSoftmax, {"x"}, {"probs"});
    graph.add_output("pos");
    graph.add_output("probs");

    Engine engine(std::move(graph));
    Tensor input = Tensor::from_values(Shape({1, 4}), {-1, 0, 1, 2});
    const auto outputs = engine.run({{"x", input}});
    ASSERT_EQ(outputs.size(), 2u);
    EXPECT_FLOAT_EQ(outputs.at("pos").data<float>()[0], 0.0f);
    EXPECT_FLOAT_EQ(outputs.at("pos").data<float>()[3], 2.0f);
    EXPECT_GT(outputs.at("probs").data<float>()[3], 0.5f);
}

TEST(Engine, SingleTensorRunRequiresSingleIo)
{
    Graph graph("multi");
    graph.add_input("x", Shape({1, 2}));
    graph.add_input("y", Shape({1, 2}));
    graph.add_node(op_names::kAdd, {"x", "y"}, {"z"});
    graph.add_output("z");
    Engine engine(std::move(graph));
    EXPECT_THROW(engine.run(make_random(Shape({1, 2}))), Error);

    const auto outputs =
        engine.run({{"x", Tensor::from_values(Shape({1, 2}), {1, 2})},
                    {"y", Tensor::from_values(Shape({1, 2}), {10, 20})}});
    EXPECT_FLOAT_EQ(outputs.at("z").data<float>()[1], 22.0f);
}

TEST(Engine, SimplificationsReducePlanSize)
{
    EngineOptions raw;
    raw.apply_simplifications = false;
    Engine unsimplified(models::tiny_cnn(), raw);
    Engine simplified(models::tiny_cnn());
    EXPECT_LT(simplified.steps().size(), unsimplified.steps().size());
    EXPECT_TRUE(simplified.simplification_report().changed());

    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xe13);
    expect_close(simplified.run(input), unsimplified.run(input), 1e-4f,
                 1e-3f);
}

TEST(Engine, TimesEveryStepOnEveryRun)
{
    Engine engine(models::tiny_cnn());
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xe14);
    (void)engine.run(input);
    (void)engine.run(input);

    ASSERT_FALSE(engine.steps().empty());
    for (const PlanStep &step : engine.steps()) {
        EXPECT_EQ(step.calls, 2) << step.node_name;
        EXPECT_GT(step.total_ms, 0.0) << step.node_name;
    }

    engine.reset_timings();
    for (const PlanStep &step : engine.steps()) {
        EXPECT_EQ(step.calls, 0) << step.node_name;
        EXPECT_EQ(step.total_ms, 0.0) << step.node_name;
    }

    // A fused batch is one plan execution: one call per step.
    EngineOptions batched;
    batched.max_batch = 4;
    Engine batch_engine(models::tiny_cnn(), batched);
    ASSERT_EQ(batch_engine.batch_capacity(), 4);
    const std::map<std::string, Tensor> request{
        {batch_engine.request_inputs().front().name, input}};
    (void)batch_engine.run_batch({&request, &request, &request});
    for (const PlanStep &step : batch_engine.steps())
        EXPECT_EQ(step.calls, 1) << step.node_name;
}

TEST(Engine, PlanSummaryListsEveryStep)
{
    Engine engine(models::tiny_mlp());
    const std::string summary = engine.plan_summary();
    EXPECT_NE(summary.find("Gemm"), std::string::npos);
    EXPECT_NE(summary.find("Softmax"), std::string::npos);
    EXPECT_NE(summary.find("#0"), std::string::npos);
}

TEST(Engine, RunStepExecutesInPlace)
{
    Engine engine(models::tiny_mlp());
    Tensor input = make_random(Shape({1, 32}), 0xe15);
    (void)engine.run(input); // Populate inputs.
    EXPECT_NO_THROW(engine.run_step(0));
    EXPECT_THROW(engine.run_step(engine.steps().size()), Error);
}

TEST(Engine, GraphOutputFedDirectlyByInput)
{
    // Degenerate but legal: the graph output IS a node output that is
    // also consumed, plus an output that comes straight from an
    // initializer.
    Graph graph("degenerate");
    graph.add_input("x", Shape({1, 2}));
    graph.add_initializer("const_out",
                          Tensor::from_values(Shape({2}), {5, 6}));
    graph.add_node(op_names::kRelu, {"x"}, {"y"});
    graph.add_output("y");
    graph.add_output("const_out");

    Engine engine(std::move(graph));
    const auto outputs =
        engine.run({{"x", Tensor::from_values(Shape({1, 2}), {-1, 3})}});
    EXPECT_FLOAT_EQ(outputs.at("y").data<float>()[1], 3.0f);
    EXPECT_FLOAT_EQ(outputs.at("const_out").data<float>()[0], 5.0f);
}

TEST(Engine, UnsupportedOpFailsAtCompileTime)
{
    Graph graph("bad");
    graph.add_input("x", Shape({1, 2}));
    graph.add_node(op_names::kIdentity, {"x"}, {"y"}); // keep type known
    graph.add_output("y");
    // Sanity: this compiles fine.
    EXPECT_NO_THROW(Engine(std::move(graph)));

    Graph graph2("bad2");
    graph2.add_input("x", Shape({1, 2}));
    graph2.add_node("TotallyUnknownOp", {"x"}, {"y"});
    graph2.add_output("y");
    EXPECT_THROW(Engine(std::move(graph2)), Error);
}

TEST(Engine, ArenaAccountingExposed)
{
    Engine engine(models::tiny_cnn());
    EXPECT_GT(engine.arena_bytes(), 0u);
    EXPECT_GE(engine.naive_arena_bytes(), engine.arena_bytes());
}

TEST(Engine, MlpThroughDensePath)
{
    Engine engine(models::tiny_mlp());
    Tensor input = make_random(Shape({1, 32}), 0xe16);
    const Tensor output = engine.run(input);
    ASSERT_EQ(output.shape(), Shape({1, 10}));
    double sum = 0.0;
    for (int i = 0; i < 10; ++i)
        sum += output.data<float>()[i];
    EXPECT_NEAR(sum, 1.0, 1e-4);
}

} // namespace
} // namespace orpheus
