/**
 * @file
 * Guarded-execution tests: silent-corruption detection, the per-step
 * circuit breaker, and recovery probes.
 *
 * The central property under test: with the guard enabled, a run whose
 * kernel produced corrupted data NEVER returns that data — it either
 * fails with kDataCorruption or serves the reference re-execution.
 * All corruption here is injected deterministically (FaultInjector::
 * arm_corruption), so every breaker transition is reproducible.
 */
#include "runtime/guard.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "core/rng.hpp"
#include "models/model_zoo.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::make_random;

constexpr float kQuietNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// --- scan_floats / ulp_distance (core helpers) ----------------------------

TEST(FloatScan, CleanTensorIsAllFinite)
{
    const Tensor t = Tensor::from_values(Shape({4}), {1.0f, -2.5f, 0.0f, 3e8f});
    const FloatScan scan = scan_floats(t);
    EXPECT_TRUE(scan.all_finite());
    EXPECT_FLOAT_EQ(scan.max_abs, 3e8f);
    EXPECT_EQ(scan.first_non_finite, -1);
}

TEST(FloatScan, FindsFirstNaN)
{
    const Tensor t =
        Tensor::from_values(Shape({4}), {1.0f, kQuietNaN, kInf, 2.0f});
    const FloatScan scan = scan_floats(t);
    EXPECT_TRUE(scan.has_nan);
    EXPECT_TRUE(scan.has_inf);
    EXPECT_EQ(scan.first_non_finite, 1);
}

TEST(FloatScan, DenormalsNegativeZeroAndExactZeroAreClean)
{
    // fp32 edge cases: a denormal, -0.0 and exact zero are legitimate
    // values, not corruption.
    const Tensor t =
        Tensor::from_values(Shape({3}), {1e-42f, -0.0f, 0.0f});
    const FloatScan scan = scan_floats(t);
    EXPECT_TRUE(scan.all_finite());
    EXPECT_FLOAT_EQ(scan.max_abs, 1e-42f);
}

TEST(FloatScan, NonFloatTensorsPassTrivially)
{
    const Tensor t(Shape({4}), DataType::kInt32);
    EXPECT_TRUE(scan_floats(t).all_finite());
}

TEST(UlpDistance, AdjacentFloatsAreOneUlpApart)
{
    const float one = 1.0f;
    const float next = std::nextafter(one, 2.0f);
    EXPECT_EQ(ulp_distance(one, next), 1);
    EXPECT_EQ(ulp_distance(one, one), 0);
}

TEST(UlpDistance, SignedZerosAreZeroApart)
{
    EXPECT_EQ(ulp_distance(0.0f, -0.0f), 0);
}

TEST(UlpDistance, CrossesZeroMonotonically)
{
    const float pos = std::nextafter(0.0f, 1.0f);  // Smallest denormal.
    const float neg = std::nextafter(0.0f, -1.0f); // Its negative twin.
    EXPECT_EQ(ulp_distance(neg, pos), 2);
}

TEST(UlpDistance, NaNIsInfinitelyFar)
{
    EXPECT_GT(ulp_distance(kQuietNaN, 1.0f),
              std::int64_t{1} << 60);
}

// --- scan_output ----------------------------------------------------------

GuardPolicy
enabled_policy()
{
    GuardPolicy policy;
    policy.enabled = true;
    // Keep breakers from auto-recovering mid-test unless a test says so.
    policy.cooldown_ms = 1e9;
    return policy;
}

TEST(ScanOutput, CleanOutputPasses)
{
    const Tensor t = Tensor::from_values(Shape({3}), {1.0f, -1.0f, 0.5f});
    EXPECT_TRUE(scan_output(t, enabled_policy()).ok());
}

TEST(ScanOutput, NaNTripsNonFinite)
{
    const Tensor t = Tensor::from_values(Shape({3}), {1.0f, kQuietNaN, 2.0f});
    const GuardVerdict verdict = scan_output(t, enabled_policy());
    EXPECT_EQ(verdict.trip, GuardTrip::kNonFinite);
    EXPECT_EQ(verdict.element_index, 1);
}

TEST(ScanOutput, NonFiniteCheckCanBeDisabled)
{
    GuardPolicy policy = enabled_policy();
    policy.check_non_finite = false;
    const Tensor t = Tensor::from_values(Shape({1}), {kInf});
    EXPECT_TRUE(scan_output(t, policy).ok());
}

TEST(ScanOutput, MagnitudeLimitTripsOnFiniteBlowUp)
{
    GuardPolicy policy = enabled_policy();
    policy.magnitude_limit = 1e6f;
    const Tensor t = Tensor::from_values(Shape({2}), {3.0f, 1e30f});
    const GuardVerdict verdict = scan_output(t, policy);
    EXPECT_EQ(verdict.trip, GuardTrip::kMagnitude);
    // Zero limit disables the check entirely.
    policy.magnitude_limit = 0.0f;
    EXPECT_TRUE(scan_output(t, policy).ok());
}

// --- compare_shadow -------------------------------------------------------

TEST(CompareShadow, IdenticalTensorsPass)
{
    const Tensor a = make_random(Shape({16}), 0x6a01);
    EXPECT_FALSE(compare_shadow(a, a, enabled_policy()).diverged);
}

TEST(CompareShadow, MatchingNaNsAndInfinitiesPass)
{
    // A legitimately overflowing model produces the same non-finite
    // values on both kernels; bitwise equality must short-circuit.
    const Tensor a =
        Tensor::from_values(Shape({3}), {kQuietNaN, kInf, -kInf});
    EXPECT_FALSE(compare_shadow(a, a.clone(), enabled_policy()).diverged);
}

TEST(CompareShadow, ExactZeroReferenceUsesAbsoluteToleranceOnly)
{
    // rtol * |ref| is zero here; the multiply-form tolerance must not
    // divide and must still pass values within atol.
    const Tensor fast = Tensor::from_values(Shape({2}), {5e-6f, -0.0f});
    const Tensor ref = Tensor::from_values(Shape({2}), {0.0f, 0.0f});
    EXPECT_FALSE(compare_shadow(fast, ref, enabled_policy()).diverged);
}

TEST(CompareShadow, DenormalDifferencePassesWithinUlps)
{
    const float denorm = std::nextafter(0.0f, 1.0f);
    const Tensor fast = Tensor::from_values(Shape({1}), {denorm});
    const Tensor ref = Tensor::from_values(Shape({1}), {denorm * 4});
    EXPECT_FALSE(compare_shadow(fast, ref, enabled_policy()).diverged);
}

TEST(CompareShadow, RealDivergenceIsFlaggedWithLocation)
{
    const Tensor fast = Tensor::from_values(Shape({3}), {1.0f, 1.5f, 2.0f});
    const Tensor ref = Tensor::from_values(Shape({3}), {1.0f, 1.0f, 2.0f});
    const ShadowComparison cmp =
        compare_shadow(fast, ref, enabled_policy());
    EXPECT_TRUE(cmp.diverged);
    EXPECT_EQ(cmp.element_index, 1);
    EXPECT_FLOAT_EQ(cmp.fast_value, 1.5f);
    EXPECT_FLOAT_EQ(cmp.reference_value, 1.0f);
}

TEST(CompareShadow, NaNOnlyInFastDiverges)
{
    const Tensor fast = Tensor::from_values(Shape({1}), {kQuietNaN});
    const Tensor ref = Tensor::from_values(Shape({1}), {1.0f});
    EXPECT_TRUE(compare_shadow(fast, ref, enabled_policy()).diverged);
}

// --- FaultInjector corruption matcher -------------------------------------

TEST(CorruptionInjection, AppliesEachKindDeterministically)
{
    Tensor t = Tensor::from_values(Shape({5}), {1.f, 2.f, 3.f, 4.f, 5.f});
    apply_corruption(CorruptionKind::kNaNPoke, t);
    EXPECT_TRUE(std::isnan(t.data<float>()[0]));

    t = Tensor::from_values(Shape({5}), {1.f, 2.f, 3.f, 4.f, 5.f});
    apply_corruption(CorruptionKind::kBitFlip, t);
    // Middle element flipped to a different but finite value.
    EXPECT_TRUE(std::isfinite(t.data<float>()[2]));
    EXPECT_NE(t.data<float>()[2], 3.0f);

    t = Tensor::from_values(Shape({5}), {1.f, 2.f, 3.f, 4.f, 5.f});
    apply_corruption(CorruptionKind::kMagnitudeSpike, t);
    EXPECT_FLOAT_EQ(t.data<float>()[0], 1e30f);
}

TEST(CorruptionInjection, MatcherHonoursOrdinalAndCap)
{
    FaultInjector injector;
    injector.arm_corruption("n", "impl", CorruptionKind::kNaNPoke,
                            /*corrupt_from_call=*/1, /*max_corruptions=*/1);
    EXPECT_EQ(injector.decide("n", "other").corruption,
              CorruptionKind::kNone);
    EXPECT_EQ(injector.decide("n", "impl").corruption,
              CorruptionKind::kNone);
    EXPECT_EQ(injector.decide("n", "impl").corruption,
              CorruptionKind::kNaNPoke);
    EXPECT_EQ(injector.decide("n", "impl").corruption,
              CorruptionKind::kNone);
    EXPECT_EQ(injector.corruptions_injected(), 1);
    EXPECT_EQ(injector.corruption_calls_seen(), 3);
    injector.reset();
    EXPECT_EQ(injector.decide("n", "impl").corruption,
              CorruptionKind::kNone);
}

// --- Engine: guarded execution end to end ---------------------------------

std::size_t
first_step_of(const Engine &engine, const std::string &op_type)
{
    for (std::size_t i = 0; i < engine.steps().size(); ++i) {
        if (engine.steps()[i].op_type == op_type)
            return i;
    }
    ADD_FAILURE() << "no step with op " << op_type << "\n"
                  << engine.plan_summary();
    return 0;
}

Graph
matmul_graph()
{
    Graph graph("mm");
    graph.add_input("x", Shape({4, 8}));
    Rng rng(0x6a03);
    graph.add_initializer("w", random_tensor(Shape({8, 5}), rng));
    graph.add_node(op_names::kMatMul, {"x", "w"}, {"y"});
    graph.add_output("y");
    return graph;
}

/** Documents the gap the guard closes: without it, injected NaN
 *  corruption flows straight to the caller as a successful run. */
TEST(GuardedEngine, UnguardedRunServesCorruptedDataSilently)
{
    EngineOptions options;
    options.backend.forced_impl["MatMul"] = "minnl";
    options.fault_injector = std::make_shared<FaultInjector>();
    options.fault_injector->arm_corruption("", "minnl",
                                           CorruptionKind::kNaNPoke);
    Engine engine(matmul_graph(), options);

    const Tensor out = engine.run(make_random(Shape({4, 8}), 0x6a04));
    EXPECT_TRUE(std::isnan(out.data<float>()[0]))
        << "corruption injection should have poisoned the output";
}

TEST(GuardedEngine, NaNCorruptionSurfacesAsDataCorruption)
{
    EngineOptions options;
    options.backend.forced_impl["MatMul"] = "minnl";
    options.guard = enabled_policy();
    options.fault_injector = std::make_shared<FaultInjector>();
    options.fault_injector->arm_corruption("", "minnl",
                                           CorruptionKind::kNaNPoke);
    Engine engine(matmul_graph(), options);

    Tensor input = make_random(Shape({4, 8}), 0x6a05);
    EXPECT_THROW(engine.run(input), DataCorruptionError);

    std::map<std::string, Tensor> outputs;
    const Status status = engine.try_run({{"x", input}}, outputs);
    EXPECT_EQ(status.code(), StatusCode::kDataCorruption);
    EXPECT_TRUE(outputs.empty());
    EXPECT_GE(engine.steps().front().health.trips_total, 1);
}

/** fail_on_corruption=false: the request succeeds and serves the
 *  reference re-execution, bitwise-identical to a reference-pinned
 *  engine — corrupted data still never escapes. */
TEST(GuardedEngine, AvailabilityModeServesReferenceResult)
{
    EngineOptions options;
    options.backend.forced_impl["MatMul"] = "minnl";
    options.guard = enabled_policy();
    options.guard.fail_on_corruption = false;
    options.fault_injector = std::make_shared<FaultInjector>();
    options.fault_injector->arm_corruption("", "minnl",
                                           CorruptionKind::kNaNPoke);
    Engine engine(matmul_graph(), options);

    EngineOptions reference_options;
    reference_options.backend.forced_impl["MatMul"] = "reference";
    Engine reference(matmul_graph(), reference_options);

    Tensor input = make_random(Shape({4, 8}), 0x6a06);
    const Tensor guarded = engine.run(input);
    EXPECT_EQ(max_abs_diff(guarded, reference.run(input)), 0.0f);
    EXPECT_GE(engine.steps().front().health.trips_total, 1);
}

TEST(GuardedEngine, BreakerOpensAfterRepeatedTripsAndRoutesToReference)
{
    auto injector = std::make_shared<FaultInjector>();
    EngineOptions options;
    options.backend.forced_impl["Conv"] = "im2col_gemm";
    options.guard = enabled_policy();
    options.fault_injector = injector;
    Engine engine(models::tiny_cnn(), options);

    const std::size_t conv = first_step_of(engine, op_names::kConv);
    const std::string conv_node = engine.steps()[conv].node_name;
    injector->arm_corruption(conv_node, "im2col_gemm",
                             CorruptionKind::kNaNPoke);

    Tensor input = make_random(Shape({1, 3, 8, 8}), 0x6a07);
    std::map<std::string, Tensor> outputs;

    // Two confirmed trips (open_after_trips default) open the breaker.
    for (int i = 0; i < 2; ++i) {
        const Status status = engine.try_run({{"input", input}}, outputs);
        EXPECT_EQ(status.code(), StatusCode::kDataCorruption) << i;
    }
    EXPECT_EQ(engine.steps()[conv].health.state, BreakerState::kOpen);
    EXPECT_TRUE(engine.steps()[conv].degraded());
    EXPECT_EQ(engine.steps()[conv].health.opens_total, 1);

    // Open breaker: the step runs on the reference kernel, the armed
    // corruption no longer matches, and the result is bitwise equal to
    // an engine pinned to the reference for exactly that node.
    const Status routed = engine.try_run({{"input", input}}, outputs);
    ASSERT_TRUE(routed.is_ok()) << routed.to_string();

    EngineOptions pinned_options;
    pinned_options.backend.forced_impl["Conv"] = "im2col_gemm";
    pinned_options.backend.node_impl[conv_node] =
        engine.steps()[conv].reference_impl;
    Engine pinned(models::tiny_cnn(), pinned_options);
    EXPECT_EQ(max_abs_diff(outputs.begin()->second, pinned.run(input)),
              0.0f);
    // The fast layer is still in place, only routed around.
    EXPECT_EQ(engine.steps()[conv].layer->impl_name(), "im2col_gemm");
}

TEST(GuardedEngine, HalfOpenProbeRestoresFastKernelAfterCorruptionStops)
{
    auto injector = std::make_shared<FaultInjector>();
    EngineOptions options;
    options.backend.forced_impl["Conv"] = "im2col_gemm";
    options.guard = enabled_policy();
    // Conv impls differ by more than the strict default tolerance;
    // the probe's shadow comparison is about catching corruption, not
    // cross-kernel rounding.
    options.guard.shadow_atol = 1e-3f;
    options.guard.shadow_rtol = 1e-2f;
    options.fault_injector = injector;
    Engine engine(models::tiny_cnn(), options);

    const std::size_t conv = first_step_of(engine, op_names::kConv);
    const std::string conv_node = engine.steps()[conv].node_name;
    // Exactly two corruptions: enough to open the breaker, then gone —
    // a transient miscompile/bit-rot episode.
    injector->arm_corruption(conv_node, "im2col_gemm",
                             CorruptionKind::kNaNPoke, 0,
                             /*max_corruptions=*/2);

    Tensor input = make_random(Shape({1, 3, 8, 8}), 0x6a08);
    std::map<std::string, Tensor> outputs;
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(engine.try_run({{"input", input}}, outputs).code(),
                  StatusCode::kDataCorruption);
    ASSERT_EQ(engine.steps()[conv].health.state, BreakerState::kOpen);

    // Let the breaker cool down instantly; the next run probes.
    GuardPolicy recovered = options.guard;
    recovered.cooldown_ms = 0;
    engine.set_guard_policy(recovered);

    const Status probe = engine.try_run({{"input", input}}, outputs);
    ASSERT_TRUE(probe.is_ok()) << probe.to_string();
    EXPECT_EQ(engine.steps()[conv].health.state, BreakerState::kClosed);
    EXPECT_FALSE(engine.steps()[conv].degraded());
    EXPECT_EQ(engine.steps()[conv].health.recoveries_total, 1);
    // The probe was shadow-verified, not waved through.
    EXPECT_GE(engine.steps()[conv].health.shadow_runs, 1);

    // Fully recovered: matches a clean im2col engine bitwise.
    EngineOptions clean_options;
    clean_options.backend.forced_impl["Conv"] = "im2col_gemm";
    Engine clean(models::tiny_cnn(), clean_options);
    const Status after = engine.try_run({{"input", input}}, outputs);
    ASSERT_TRUE(after.is_ok());
    EXPECT_EQ(max_abs_diff(outputs.begin()->second, clean.run(input)),
              0.0f);
}

TEST(GuardedEngine, AllowRecoveryFalseKeepsBreakerOpenForever)
{
    auto injector = std::make_shared<FaultInjector>();
    EngineOptions options;
    options.backend.forced_impl["Conv"] = "im2col_gemm";
    options.guard = enabled_policy();
    options.guard.cooldown_ms = 0;
    options.guard.allow_recovery = false;
    options.fault_injector = injector;
    Engine engine(models::tiny_cnn(), options);

    const std::size_t conv = first_step_of(engine, op_names::kConv);
    injector->arm_corruption(engine.steps()[conv].node_name, "im2col_gemm",
                             CorruptionKind::kNaNPoke, 0, 2);

    Tensor input = make_random(Shape({1, 3, 8, 8}), 0x6a09);
    std::map<std::string, Tensor> outputs;
    for (int i = 0; i < 2; ++i)
        engine.try_run({{"input", input}}, outputs);
    ASSERT_EQ(engine.steps()[conv].health.state, BreakerState::kOpen);

    // Even with an elapsed cool-down, no probe happens.
    ASSERT_TRUE(engine.try_run({{"input", input}}, outputs).is_ok());
    EXPECT_EQ(engine.steps()[conv].health.state, BreakerState::kOpen);
    EXPECT_EQ(engine.steps()[conv].health.recoveries_total, 0);
}

/** A bit-flip is finite and plausible — only shadow execution sees it. */
TEST(GuardedEngine, BitFlipIsInvisibleToScanButCaughtByShadow)
{
    const auto build = [](int shadow_every_n) {
        EngineOptions options;
        options.backend.forced_impl["MatMul"] = "minnl";
        options.guard = enabled_policy();
        options.guard.shadow_every_n = shadow_every_n;
        // ULP-dominated tolerance: legitimate accumulation-order
        // differences are a few ULPs at any magnitude, while a mantissa
        // bit-flip moves the value millions of ULPs.
        options.guard.shadow_atol = 1e-6f;
        options.guard.shadow_rtol = 0.0f;
        options.fault_injector = std::make_shared<FaultInjector>();
        options.fault_injector->arm_corruption("", "minnl",
                                               CorruptionKind::kBitFlip);
        return options;
    };

    Tensor input = make_random(Shape({4, 8}), 0x6a0a);
    std::map<std::string, Tensor> outputs;

    // No shadowing: the scan alone cannot catch a finite wrong value.
    Engine unshadowed(matmul_graph(), build(0));
    EXPECT_TRUE(
        unshadowed.try_run({{"x", input}}, outputs).is_ok());

    // Shadow every invocation: the divergence is confirmed corruption.
    Engine shadowed(matmul_graph(), build(1));
    const Status status = shadowed.try_run({{"x", input}}, outputs);
    EXPECT_EQ(status.code(), StatusCode::kDataCorruption);
    EXPECT_GE(shadowed.steps().front().health.shadow_runs, 1);
}

TEST(GuardedEngine, MagnitudeSpikeCaughtByLimit)
{
    EngineOptions options;
    options.backend.forced_impl["MatMul"] = "minnl";
    options.guard = enabled_policy();
    options.guard.magnitude_limit = 1e6f;
    options.fault_injector = std::make_shared<FaultInjector>();
    options.fault_injector->arm_corruption("", "minnl",
                                           CorruptionKind::kMagnitudeSpike);
    Engine engine(matmul_graph(), options);

    std::map<std::string, Tensor> outputs;
    const Status status =
        engine.try_run({{"x", make_random(Shape({4, 8}), 0x6a0b)}},
                       outputs);
    EXPECT_EQ(status.code(), StatusCode::kDataCorruption);
}

/** A model that legitimately overflows to Inf on EVERY kernel must run
 *  guarded: the reference reproduces the Inf, so it is the model's true
 *  answer, not corruption. */
TEST(GuardedEngine, LegitimateAllInfOutputRunsGuarded)
{
    Graph graph("overflow");
    graph.add_input("x", Shape({1, 1, 4, 4}));
    Tensor weights(Shape({2, 1, 3, 3}));
    weights.fill(1e38f); // Accumulating 9 of these overflows fp32.
    graph.add_initializer("w", std::move(weights));
    AttributeMap attrs;
    attrs.set("kernel_shape", std::vector<std::int64_t>{3, 3});
    attrs.set("pads", std::vector<std::int64_t>{1, 1, 1, 1});
    graph.add_node(op_names::kConv, {"x", "w"}, {"y"}, std::move(attrs));
    graph.add_output("y");

    EngineOptions options;
    options.backend.forced_impl["Conv"] = "im2col_gemm";
    options.guard = enabled_policy();
    options.guard.shadow_every_n = 1;
    Engine engine(std::move(graph), options);

    Tensor input(Shape({1, 1, 4, 4}));
    input.fill(1.0f);
    std::map<std::string, Tensor> outputs;
    const Status status = engine.try_run({{"x", input}}, outputs);
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    const Tensor &y = outputs.at("y");
    // The interior of the output really is Inf (the overflow is real).
    EXPECT_TRUE(std::isinf(y.data<float>()[5]));
    // And the guard never tripped: this is the model's true answer.
    EXPECT_EQ(engine.steps().front().health.trips_total, 0);
    EXPECT_EQ(engine.steps().front().health.state, BreakerState::kClosed);
}

/** Gemm has only the reference implementation: with no second opinion
 *  the policy decides whether to trust or flag the only kernel. */
TEST(GuardedEngine, ReferenceOnlyKernelFollowsFlagPolicy)
{
    const auto build = [](bool flag_reference_outputs) {
        EngineOptions options;
        // Keep the SIMD packed-GEMM tier out so Gemm really has a single
        // implementation — the premise this test is about.
        options.backend.allow_simd = false;
        options.guard = enabled_policy();
        options.guard.flag_reference_outputs = flag_reference_outputs;
        options.fault_injector = std::make_shared<FaultInjector>();
        return options;
    };

    Tensor input = make_random(Shape({1, 32}), 0x6a0c);
    std::map<std::string, Tensor> outputs;

    // Default: the only implementation is the trusted root; its NaN
    // output is served (exactly like an unguarded reference engine).
    {
        EngineOptions options = build(false);
        Engine engine(models::tiny_mlp(), options);
        const std::size_t gemm = first_step_of(engine, op_names::kGemm);
        ASSERT_TRUE(engine.steps()[gemm].reference_impl.empty())
            << "test premise: Gemm must have no fallback";
        options.fault_injector->arm_corruption(
            engine.steps()[gemm].node_name, "",
            CorruptionKind::kNaNPoke);
        EXPECT_TRUE(engine.try_run({{"input", input}}, outputs).is_ok());
    }

    // Fail-stop deployments can flag even the reference kernel.
    {
        EngineOptions options = build(true);
        Engine engine(models::tiny_mlp(), options);
        const std::size_t gemm = first_step_of(engine, op_names::kGemm);
        options.fault_injector->arm_corruption(
            engine.steps()[gemm].node_name, "",
            CorruptionKind::kNaNPoke);
        EXPECT_EQ(engine.try_run({{"input", input}}, outputs).code(),
                  StatusCode::kDataCorruption);
    }
}

/** Kernel faults route through the same breaker in guard mode, so a
 *  watchdog demotion is recoverable instead of permanent. */
TEST(GuardedEngine, DemoteStepOpensBreakerAndRestoreStepCloses)
{
    EngineOptions options;
    options.backend.forced_impl["Conv"] = "im2col_gemm";
    options.guard = enabled_policy();
    Engine engine(models::tiny_cnn(), options);
    const std::size_t conv = first_step_of(engine, op_names::kConv);
    const std::string conv_node = engine.steps()[conv].node_name;

    engine.demote_step(conv, "watchdog: step hung");
    EXPECT_EQ(engine.steps()[conv].health.state, BreakerState::kOpen);
    EXPECT_TRUE(engine.steps()[conv].degraded());
    EXPECT_GE(engine.steps()[conv].health.faults_total, 1);

    // Demoted: routed to the reference kernel for that node.
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0x6a0d);
    EngineOptions pinned_options;
    pinned_options.backend.forced_impl["Conv"] = "im2col_gemm";
    pinned_options.backend.node_impl[conv_node] =
        engine.steps()[conv].reference_impl;
    Engine pinned(models::tiny_cnn(), pinned_options);
    EXPECT_EQ(max_abs_diff(engine.run(input), pinned.run(input)), 0.0f);

    // Manual operator restore: back on the fast kernel.
    engine.restore_step(conv);
    EXPECT_EQ(engine.steps()[conv].health.state, BreakerState::kClosed);
    EXPECT_FALSE(engine.steps()[conv].degraded());
    EngineOptions clean_options;
    clean_options.backend.forced_impl["Conv"] = "im2col_gemm";
    Engine clean(models::tiny_cnn(), clean_options);
    EXPECT_EQ(max_abs_diff(engine.run(input), clean.run(input)), 0.0f);
}

/** restore_step also reverses the guard-off fallback, whose breaker
 *  never half-opens on its own. */
TEST(GuardedEngine, RestoreStepReversesLegacyDegradation)
{
    auto injector = std::make_shared<FaultInjector>();
    EngineOptions options;
    options.backend.forced_impl["Conv"] = "im2col_gemm";
    options.fault_injector = injector;
    Engine engine(models::tiny_cnn(), options);
    injector->arm("", "im2col_gemm");

    Tensor input = make_random(Shape({1, 3, 8, 8}), 0x6a0e);
    engine.run(input); // Every conv degrades to the reference.
    injector->reset();

    for (std::size_t i = 0; i < engine.steps().size(); ++i) {
        if (engine.steps()[i].op_type != op_names::kConv)
            continue;
        ASSERT_TRUE(engine.steps()[i].degraded());
        engine.restore_step(i);
        EXPECT_FALSE(engine.steps()[i].degraded());
        EXPECT_EQ(engine.steps()[i].layer->impl_name(), "im2col_gemm");
    }

    EngineOptions clean_options;
    clean_options.backend.forced_impl["Conv"] = "im2col_gemm";
    Engine clean(models::tiny_cnn(), clean_options);
    EXPECT_EQ(max_abs_diff(engine.run(input), clean.run(input)), 0.0f);
}

TEST(GuardedEngine, CleanGuardedRunMatchesUnguardedBitwise)
{
    EngineOptions guarded_options;
    guarded_options.guard = enabled_policy();
    guarded_options.guard.shadow_every_n = 1;
    guarded_options.guard.shadow_atol = 1e-3f;
    guarded_options.guard.shadow_rtol = 1e-2f;
    Engine guarded(models::tiny_cnn(), guarded_options);
    Engine plain(models::tiny_cnn(), {});

    Tensor input = make_random(Shape({1, 3, 8, 8}), 0x6a0f);
    EXPECT_EQ(max_abs_diff(guarded.run(input), plain.run(input)), 0.0f);
    for (const PlanStep &step : guarded.steps()) {
        EXPECT_EQ(step.health.trips_total, 0) << step.node_name;
        EXPECT_EQ(step.health.state, BreakerState::kClosed)
            << step.node_name;
    }
}

// --- Kernel-health table ---------------------------------------------------

/** The CLI's kernel-health table is derived from the engines' StepHealth:
 *  two engines faulting on the same kernel sum into one row. */
TEST(KernelHealthTable, SumsStepHealthAcrossEngines)
{
    Tensor input = make_random(Shape({4, 8}), 0x6a10);
    std::map<std::string, Tensor> outputs;

    // Guarded engine: two confirmed corruptions open the breaker.
    auto corrupting = std::make_shared<FaultInjector>();
    corrupting->arm_corruption("", "minnl", CorruptionKind::kNaNPoke);
    EngineOptions guarded_options;
    guarded_options.backend.forced_impl["MatMul"] = "minnl";
    guarded_options.guard = enabled_policy();
    guarded_options.fault_injector = corrupting;
    Engine guarded(matmul_graph(), guarded_options);
    for (int i = 0; i < 2; ++i)
        guarded.try_run({{"x", input}}, outputs);

    // Unguarded engine: one thrown fault opens the breaker at once.
    auto faulting = std::make_shared<FaultInjector>();
    faulting->arm("", "minnl");
    EngineOptions plain_options;
    plain_options.backend.forced_impl["MatMul"] = "minnl";
    plain_options.fault_injector = faulting;
    Engine plain(matmul_graph(), plain_options);
    ASSERT_TRUE(plain.try_run({{"x", input}}, outputs).is_ok());

    // A clean engine adds no row.
    Engine clean(matmul_graph(), {});
    clean.run(input);

    const auto table = kernel_health({&guarded, &plain, &clean});
    ASSERT_EQ(table.size(), 1u);
    const auto row = table.find("MatMul.minnl");
    ASSERT_NE(row, table.end());
    EXPECT_EQ(row->second.trips, 2);
    EXPECT_EQ(row->second.faults, 1);
    EXPECT_EQ(row->second.opens, 2);
    EXPECT_EQ(row->second.recoveries, 0);
    EXPECT_TRUE(kernel_health({&clean}).empty());
}

TEST(GuardToStrings, AreStable)
{
    EXPECT_STREQ(to_string(GuardTrip::kNonFinite), "non-finite output");
    EXPECT_STREQ(to_string(GuardTrip::kShadowDiverged),
                 "shadow divergence");
    EXPECT_STREQ(to_string(BreakerState::kClosed), "closed");
    EXPECT_STREQ(to_string(BreakerState::kHalfOpen), "half-open");
    EXPECT_STREQ(to_string(CorruptionKind::kBitFlip), "bit-flip");
}

} // namespace
} // namespace orpheus
