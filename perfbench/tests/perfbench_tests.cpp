// Unit tests of the benchmark's own logic: tail selection, seeding, the
// FLOP formulas, op-class bucketing of the paper models' plans and the
// host speed reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <random>

#include "models/model_zoo.hpp"
#include "perfbench.hpp"
#include "quant/quantizer.hpp"
#include "runtime/engine.hpp"

namespace {

using namespace perfbench;

std::vector<double>
shuffled_range(int n)
{
    std::vector<double> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    std::shuffle(v.begin(), v.end(), std::mt19937(7));
    return v;
}

TEST(Stats, MedianOddAndEven)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0);
}

TEST(Stats, SupportedPercentileLeavesAtLeastTenSamplesBeyond)
{
    EXPECT_EQ(supported_percentile(0), 50);
    EXPECT_EQ(supported_percentile(19), 50);
    EXPECT_EQ(supported_percentile(100), 90);
    EXPECT_EQ(supported_percentile(199), 90);
    EXPECT_EQ(supported_percentile(200), 95);
    EXPECT_EQ(supported_percentile(399), 95);
    EXPECT_EQ(supported_percentile(600), 97.5);
    EXPECT_EQ(supported_percentile(999), 97.5);
    EXPECT_EQ(supported_percentile(1000), 99);
    EXPECT_EQ(supported_percentile(10000), 99.9);
    // The rule the workloads' fixed tails come from: the highest ladder
    // percentile whose tail still holds ten samples.
    for (int n : {20, 57, 100, 150, 300, 600, 1000, 2500}) {
        const std::vector<double> v = shuffled_range(n);
        const Tail tail = percentile(v, supported_percentile(n));
        EXPECT_GE(tail.beyond, 10u) << n;
        for (double p : kTailLadder) {
            if (p > tail.percentile) {
                EXPECT_LT(percentile(v, p).beyond, 10u) << n << " p" << p;
            }
        }
    }
}

TEST(Stats, PercentileIsNearestRankAndCountsTheSamplesAbove)
{
    const Tail p90 = percentile(shuffled_range(100), 90);
    EXPECT_EQ(p90.value, 90);
    EXPECT_EQ(p90.beyond, 10u);
    EXPECT_EQ(p90.samples, 100u);
    const Tail p95 = percentile(shuffled_range(190), 95);
    EXPECT_EQ(p95.value, 181); // ceil(0.95 * 190) = 181st smallest
    EXPECT_EQ(p95.beyond, 9u);
    EXPECT_EQ(percentile({5, 5, 5, 7}, 50).beyond, 1u);
    EXPECT_EQ(percentile({}, 90).samples, 0u);
}

TEST(Seeding, SameSeedSameInputsOtherSeedOtherInputs)
{
    EXPECT_EQ(seeded_input(5, 0, 64), seeded_input(5, 0, 64));
    EXPECT_NE(seeded_input(5, 0, 64), seeded_input(6, 0, 64));
    EXPECT_NE(seeded_input(5, 0, 64), seeded_input(5, 1, 64));
    for (float x : seeded_input(5, 3, 4096)) {
        EXPECT_GE(x, -1.0f);
        EXPECT_LT(x, 1.0f);
    }
}

TEST(Seeding, SameSeedSameScheduleOtherSeedOtherSchedule)
{
    const std::vector<double> a = poisson_schedule(9, 30, 10);
    EXPECT_EQ(a, poisson_schedule(9, 30, 10));
    EXPECT_NE(a, poisson_schedule(10, 30, 10));
    ASSERT_EQ(a.size(), 300u);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_GE(a.front(), 0);
    EXPECT_LT(a.back(), 10);
    // Exponential gaps: about 63 % are shorter than the mean gap.
    int short_gaps = 0;
    for (std::size_t i = 1; i < a.size(); ++i)
        short_gaps += a[i] - a[i - 1] < 1.0 / 30;
    EXPECT_NEAR(short_gaps / 299.0, 1 - std::exp(-1.0), 0.1);
}

TEST(WorkModel, ResNet18ConvFlopsByHand)
{
    // layer1 3x3 conv, 64 -> 64 channels on 56x56:
    // 2 * (64 * 56 * 56 outputs) * (64 * 3 * 3 MACs each).
    const StepWork w = step_work("Conv",
                                 {{{1, 64, 56, 56}}, {{64, 64, 3, 3}}, {{64}}},
                                 {{{1, 64, 56, 56}}});
    EXPECT_EQ(w.cls, OpClass::kConv);
    EXPECT_DOUBLE_EQ(w.flops, 231211008.0);
    EXPECT_DOUBLE_EQ(w.bytes, 4.0 * (200704 + 36864 + 64 + 200704));

    // conv1: 7x7 stride 2, 3 -> 64 channels, 224x224 -> 112x112.
    const StepWork c1 = step_work("Conv", {{{1, 3, 224, 224}}, {{64, 3, 7, 7}}},
                                  {{{1, 64, 112, 112}}});
    EXPECT_DOUBLE_EQ(c1.flops, 236027904.0);
}

TEST(WorkModel, MobileNetDepthwiseFlopsByHand)
{
    // First depthwise layer: 32 channels, 3x3, stride 1, 112x112:
    // 2 * (32 * 112 * 112) * 9.
    const StepWork w = step_work(
        "Conv", {{{1, 32, 112, 112}}, {{32, 1, 3, 3}}, {{32}}},
        {{{1, 32, 112, 112}}});
    EXPECT_EQ(w.cls, OpClass::kDwConv);
    EXPECT_DOUBLE_EQ(w.flops, 7225344.0);

    // The same layer quantized stays in the qconv class; its weight is
    // input 3 and its operands are one byte wide.
    const StepWork q = step_work("QLinearConv",
                                 {{{1, 32, 112, 112}, 1},
                                  {{}},
                                  {{}, 1},
                                  {{32, 1, 3, 3}, 1}},
                                 {{{1, 32, 112, 112}, 1}});
    EXPECT_EQ(q.cls, OpClass::kQConv);
    EXPECT_DOUBLE_EQ(q.flops, 7225344.0);
}

TEST(WorkModel, GemmFlopsByHand)
{
    // ResNet-18 classifier: 1x512 times 512x1000.
    const StepWork w = step_work("Gemm", {{{1, 512}}, {{1000, 512}}, {{1000}}},
                                 {{{1, 1000}}});
    EXPECT_EQ(w.cls, OpClass::kGemm);
    EXPECT_DOUBLE_EQ(w.flops, 1024000.0);
    const StepWork t = step_work("Gemm", {{{512, 1}}, {{1000, 512}}},
                                 {{{1, 1000}}}, /*trans_a=*/true);
    EXPECT_DOUBLE_EQ(t.flops, 1024000.0);
}

std::vector<Operand>
plan_operands(const std::vector<const orpheus::Tensor *> &tensors)
{
    std::vector<Operand> out;
    for (const orpheus::Tensor *t : tensors) {
        if (t != nullptr)
            out.push_back({t->shape().dims(),
                           static_cast<int>(orpheus::dtype_size(t->dtype()))});
    }
    return out;
}

/** Class of every step of @p graph's plan; fails on unknown ops. */
std::map<OpClass, int>
bucket_plan(orpheus::Graph graph, bool simplify)
{
    orpheus::EngineOptions options;
    options.apply_simplifications = simplify;
    orpheus::Engine engine(std::move(graph), options);
    std::map<OpClass, int> counts;
    for (const orpheus::PlanStep &step : engine.steps()) {
        std::vector<const orpheus::Tensor *> outs(step.outputs.begin(),
                                                  step.outputs.end());
        const StepWork w = step_work(step.op_type, plan_operands(step.inputs),
                                     plan_operands(outs));
        EXPECT_TRUE(w.known) << step.op_type << " is not bucketed";
        ++counts[w.cls];
    }
    return counts;
}

TEST(Bucketing, EveryOpOfThePaperModelsHasAClass)
{
    for (const char *name :
         {"wrn-40-2", "mobilenet-v1", "resnet-18", "resnet-50",
          "inception-v3"}) {
        SCOPED_TRACE(name);
        bucket_plan(orpheus::models::by_name(name), false);
        bucket_plan(orpheus::models::by_name(name), true);
    }
}

TEST(Bucketing, PaperModelsLandInTheExpectedClasses)
{
    auto resnet = bucket_plan(orpheus::models::resnet18(), true);
    EXPECT_EQ(resnet[OpClass::kConv], 20);
    EXPECT_EQ(resnet[OpClass::kDwConv], 0);
    EXPECT_EQ(resnet[OpClass::kGemm], 1);

    auto mobilenet = bucket_plan(orpheus::models::mobilenet_v1(), true);
    EXPECT_EQ(mobilenet[OpClass::kDwConv], 13);
    EXPECT_EQ(mobilenet[OpClass::kConv], 14);

    orpheus::QuantizationOptions q;
    q.per_channel_weights = true;
    auto int8 = bucket_plan(
        orpheus::quantize_model(orpheus::models::mobilenet_v1(), q), true);
    EXPECT_EQ(int8[OpClass::kQConv], 27);
    EXPECT_EQ(int8[OpClass::kConv] + int8[OpClass::kDwConv], 0);
    EXPECT_GE(int8[OpClass::kQdq], 2);
}

TEST(HostSpeed, RescalesByTheMeanOfTheBracketingPasses)
{
    // At nominal speed nothing changes; a host running 2x slow (passes
    // twice the nominal time) halves the time; a faster one scales it up.
    EXPECT_DOUBLE_EQ(
        at_reference_speed(40, kReferencePassMs, kReferencePassMs), 40);
    EXPECT_DOUBLE_EQ(
        at_reference_speed(40, 2 * kReferencePassMs, 2 * kReferencePassMs),
        20);
    EXPECT_DOUBLE_EQ(at_reference_speed(40, 0.5 * kReferencePassMs,
                                        1.5 * kReferencePassMs),
                     40);
    EXPECT_DOUBLE_EQ(
        at_reference_speed(40, 0.5 * kReferencePassMs, 0.5 * kReferencePassMs),
        80);
}

TEST(HostSpeed, PassesTakeTimeAndBuffersStayPut)
{
    SpeedReference speed;
    const std::size_t footprint = speed.footprint_bytes();
    EXPECT_GT(footprint, std::size_t{8} << 20);
    for (const PassTime &t :
         {speed.pass(), speed.median(3), speed.all_cpus(1)}) {
        EXPECT_GT(t.wall_ms, 0);
        EXPECT_GT(t.cpu_ms, 0);
        // A little slack: the two clocks are read a moment apart.
        EXPECT_LE(t.cpu_ms, t.wall_ms * 1.05 + 0.1);
    }
    EXPECT_EQ(speed.footprint_bytes(), footprint);
}

} // namespace
