/**
 * @file
 * SIMD microkernel tier: cpu-probe sanity, scalar-vs-vector
 * equivalence (bitwise for the integer kernels, ULP-bounded for fp32),
 * and dispatch behaviour under the ORPHEUS_DISABLE_SIMD override.
 *
 * The equivalence tests deliberately sweep ragged shapes (M not a
 * multiple of the micro-kernel MR, N not a multiple of the panel width,
 * tiny/odd/block-straddling K) so every tail path in the vector kernels
 * is exercised. All fp32 test data is positive, so ULP comparisons are
 * not inflated by cancellation.
 */
#include "core/cpu_features.hpp"

#include <cstdlib>
#include <gtest/gtest.h>

#include "core/tensor.hpp"
#include "models/builder.hpp"
#include "ops/conv/conv.hpp"
#include "ops/gemm/gemm.hpp"
#include "ops/quant/qconv.hpp"
#include "ops/quant/qgemm.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::make_random;

/** Restores the forced-disable override on scope exit. */
struct SimdOverrideGuard {
    ~SimdOverrideGuard() { force_disable_simd(false); }
};

/** Positive uniform values in [0.1, 1.1): no cancellation in sums. */
std::vector<float>
positive_values(std::size_t count, unsigned seed)
{
    std::vector<float> values(count);
    unsigned state = seed * 2654435761u + 1u;
    for (auto &v : values) {
        state = state * 1664525u + 1013904223u;
        v = 0.1f + static_cast<float>(state >> 8) /
                       static_cast<float>(1u << 24);
    }
    return values;
}

std::int64_t
max_ulp_diff(const std::vector<float> &a, const std::vector<float> &b)
{
    std::int64_t worst = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, ulp_distance(a[i], b[i]));
    return worst;
}

TEST(CpuFeatures, ProbeMatchesCompilerBuiltins)
{
    const CpuFeatures &f = cpu_features();
#if defined(__x86_64__) || defined(_M_X64)
    EXPECT_EQ(f.avx2, bool(__builtin_cpu_supports("avx2")));
    EXPECT_EQ(f.fma, bool(__builtin_cpu_supports("fma")));
    EXPECT_EQ(f.sse42, bool(__builtin_cpu_supports("sse4.2")));
    EXPECT_EQ(f.neon, false);
#elif defined(__aarch64__)
    EXPECT_TRUE(f.neon);
#endif
    // The probe is cached: repeated calls return the same object.
    EXPECT_EQ(&cpu_features(), &f);
}

TEST(CpuFeatures, ForceDisableOverridesProbe)
{
    SimdOverrideGuard guard;
    force_disable_simd(true);
    EXPECT_TRUE(simd_disabled());
    EXPECT_FALSE(simd_enabled());
    force_disable_simd(false);
    // Clearing the force flag restores the probe verdict — unless the
    // environment override is active (e.g. the whole suite runs under
    // ORPHEUS_DISABLE_SIMD=1), which is an independent disable channel.
    EXPECT_EQ(simd_enabled(), simd_isa_supported() && !simd_disabled());
}

TEST(CpuFeatures, EnvVarDisablesSimd)
{
    const char *ambient = std::getenv("ORPHEUS_DISABLE_SIMD");
    const std::string saved = ambient ? ambient : "";
    ::setenv("ORPHEUS_DISABLE_SIMD", "1", 1);
    EXPECT_TRUE(simd_disabled());
    EXPECT_FALSE(simd_enabled());
    EXPECT_FALSE(gemm_packed_simd_available());
    EXPECT_FALSE(qgemm_simd_available());
    EXPECT_FALSE(conv2d_depthwise_simd_available());
    ::unsetenv("ORPHEUS_DISABLE_SIMD");
    EXPECT_FALSE(simd_disabled());
    if (ambient)
        ::setenv("ORPHEUS_DISABLE_SIMD", saved.c_str(), 1);
}

TEST(CpuFeatures, DisabledSimdEntryPointsMatchScalarBitwise)
{
    // With the tier disabled the *_simd entry points must route to the
    // scalar kernels — outputs are bitwise identical, not just close.
    SimdOverrideGuard guard;
    force_disable_simd(true);
    const std::int64_t m = 5, n = 17, k = 33;
    const auto a = positive_values(static_cast<std::size_t>(m * k), 1);
    const auto b = positive_values(static_cast<std::size_t>(k * n), 2);
    std::vector<float> c_scalar(static_cast<std::size_t>(m * n));
    std::vector<float> c_simd(c_scalar.size());
    gemm_packed(m, n, k, a.data(), k, b.data(), n, c_scalar.data(), n);
    gemm_packed_simd(m, n, k, a.data(), k, b.data(), n, c_simd.data(), n);
    EXPECT_EQ(c_scalar, c_simd);
}

// --- fp32 packed GEMM: scalar vs SIMD, ragged-shape sweep -------------------

struct GemmShape {
    std::int64_t m, n, k;
};

class SimdGemmEquivalence : public ::testing::TestWithParam<GemmShape>
{
};

TEST_P(SimdGemmEquivalence, WithinFourUlps)
{
    if (!simd_enabled())
        GTEST_SKIP() << "SIMD tier unavailable on this host";
    const GemmShape s = GetParam();
    const auto a =
        positive_values(static_cast<std::size_t>(s.m * s.k), 0xa0);
    const auto b =
        positive_values(static_cast<std::size_t>(s.k * s.n), 0xb0);
    std::vector<float> c_scalar(static_cast<std::size_t>(s.m * s.n));
    std::vector<float> c_simd(c_scalar.size());
    gemm_packed(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                c_scalar.data(), s.n);
    gemm_packed_simd(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                     c_simd.data(), s.n);
    EXPECT_LE(max_ulp_diff(c_scalar, c_simd), 4)
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;
}

INSTANTIATE_TEST_SUITE_P(
    RaggedSweep, SimdGemmEquivalence,
    ::testing::Values(
        // M sweeps the micro-kernel row tails (scalar MR=4, AVX2 MR=6).
        GemmShape{1, 16, 3}, GemmShape{3, 16, 3}, GemmShape{4, 16, 3},
        GemmShape{5, 16, 3}, GemmShape{6, 16, 3}, GemmShape{7, 16, 3},
        GemmShape{13, 16, 3},
        // N sweeps the 16-column panel tails.
        GemmShape{6, 1, 7}, GemmShape{6, 7, 7}, GemmShape{6, 15, 7},
        GemmShape{6, 17, 7}, GemmShape{6, 31, 7}, GemmShape{6, 33, 7},
        // K: unit, odd, and one past the 256-deep pack block.
        GemmShape{7, 17, 1}, GemmShape{7, 17, 3}, GemmShape{7, 17, 257},
        // A dense-ish production shape.
        GemmShape{64, 96, 128}),
    [](const ::testing::TestParamInfo<GemmShape> &info) {
        const GemmShape &s = info.param;
        return "m" + std::to_string(s.m) + "n" + std::to_string(s.n) +
               "k" + std::to_string(s.k);
    });

// --- int8 qgemm: scalar vs SIMD must be bitwise identical -------------------

class SimdQgemmEquivalence : public ::testing::TestWithParam<GemmShape>
{
};

TEST_P(SimdQgemmEquivalence, BitwiseEqualAcrossZeroPoints)
{
    if (!simd_enabled())
        GTEST_SKIP() << "SIMD tier unavailable on this host";
    const GemmShape s = GetParam();
    std::vector<std::uint8_t> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(s.k * s.n));
    unsigned state = 0x51ce;
    for (auto &v : a) {
        state = state * 1664525u + 1013904223u;
        v = static_cast<std::uint8_t>(state >> 16);
    }
    for (auto &v : b) {
        state = state * 1664525u + 1013904223u;
        v = static_cast<std::int8_t>(state >> 16);
    }
    std::vector<std::int32_t> c_scalar(static_cast<std::size_t>(s.m * s.n));
    std::vector<std::int32_t> c_simd(c_scalar.size());
    for (std::int32_t zp : {0, 7, 128, 255}) {
        qgemm_u8i8(s.m, s.n, s.k, a.data(), s.k, zp, b.data(), s.n,
                   c_scalar.data(), s.n);
        qgemm_u8i8_simd(s.m, s.n, s.k, a.data(), s.k, zp, b.data(), s.n,
                        c_simd.data(), s.n);
        EXPECT_EQ(c_scalar, c_simd)
            << "zp=" << zp << " m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
}

TEST_P(SimdQgemmEquivalence, WeightStationaryBitwiseEqual)
{
    if (!simd_enabled())
        GTEST_SKIP() << "SIMD tier unavailable on this host";
    const GemmShape s = GetParam();
    std::vector<std::int8_t> w(static_cast<std::size_t>(s.m * s.k));
    std::vector<std::uint8_t> col(static_cast<std::size_t>(s.k * s.n));
    unsigned state = 0x3817;
    for (auto &v : w) {
        state = state * 1664525u + 1013904223u;
        v = static_cast<std::int8_t>(state >> 16);
    }
    for (auto &v : col) {
        state = state * 1664525u + 1013904223u;
        v = static_cast<std::uint8_t>(state >> 16);
    }
    std::vector<std::int32_t> c_scalar(static_cast<std::size_t>(s.m * s.n));
    std::vector<std::int32_t> c_simd(c_scalar.size());
    qgemm_w8a8(s.m, s.n, s.k, w.data(), s.k, col.data(), s.n,
               c_scalar.data(), s.n);
    qgemm_w8a8_simd(s.m, s.n, s.k, w.data(), s.k, col.data(), s.n,
                    c_simd.data(), s.n);
    EXPECT_EQ(c_scalar, c_simd);
}

INSTANTIATE_TEST_SUITE_P(
    RaggedSweep, SimdQgemmEquivalence,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 31, 3},
                      GemmShape{4, 32, 64}, GemmShape{5, 33, 17},
                      GemmShape{7, 16, 257}, GemmShape{8, 65, 9},
                      GemmShape{16, 40, 27}),
    [](const ::testing::TestParamInfo<GemmShape> &info) {
        const GemmShape &s = info.param;
        return "m" + std::to_string(s.m) + "n" + std::to_string(s.n) +
               "k" + std::to_string(s.k);
    });

// --- quantized conv: SIMD accumulation path is bitwise identical ------------

TEST(SimdQconv, SimdFlagProducesBitwiseIdenticalOutput)
{
    if (!simd_enabled())
        GTEST_SKIP() << "SIMD tier unavailable on this host";
    Tensor x_q(Shape({1, 6, 9, 9}), DataType::kUInt8);
    Tensor w_q(Shape({8, 6, 3, 3}), DataType::kInt8);
    Tensor bias(Shape({8}), DataType::kInt32);
    unsigned state = 0x9c0;
    for (std::int64_t i = 0; i < x_q.numel(); ++i) {
        state = state * 1664525u + 1013904223u;
        x_q.data<std::uint8_t>()[i] =
            static_cast<std::uint8_t>(state >> 16);
    }
    for (std::int64_t i = 0; i < w_q.numel(); ++i) {
        state = state * 1664525u + 1013904223u;
        w_q.data<std::int8_t>()[i] = static_cast<std::int8_t>(state >> 16);
    }
    for (std::int64_t i = 0; i < bias.numel(); ++i) {
        state = state * 1664525u + 1013904223u;
        bias.data<std::int32_t>()[i] =
            static_cast<std::int32_t>(state >> 12) - (1 << 18);
    }

    QConv2dArgs args;
    args.input = &x_q;
    args.input_params = {0.02f, 13};
    args.weight = &w_q;
    args.weight_params = {0.05f, 0};
    args.bias = &bias;
    args.output_params = {0.1f, 7};
    args.params.kernel_h = args.params.kernel_w = 3;
    args.params.pad_top = args.params.pad_left = 1;
    args.params.pad_bottom = args.params.pad_right = 1;
    args.activation = ActivationSpec::relu();

    Tensor y_scalar(Shape({1, 8, 9, 9}), DataType::kUInt8);
    Tensor y_simd(Shape({1, 8, 9, 9}), DataType::kUInt8);
    args.output = &y_scalar;
    args.simd = false;
    qconv2d(args);
    args.output = &y_simd;
    args.simd = true;
    qconv2d(args);
    for (std::int64_t i = 0; i < y_scalar.numel(); ++i)
        ASSERT_EQ(y_scalar.data<std::uint8_t>()[i],
                  y_simd.data<std::uint8_t>()[i])
            << "pixel " << i;
}

// --- depthwise conv: direct vs SIMD -----------------------------------------

struct DepthwiseCase {
    std::string label;
    std::int64_t channels, hw, multiplier, kernel, stride, pad, dilation;
};

class SimdDepthwiseEquivalence
    : public ::testing::TestWithParam<DepthwiseCase>
{
};

TEST_P(SimdDepthwiseEquivalence, WithinFourUlps)
{
    if (!simd_enabled())
        GTEST_SKIP() << "SIMD tier unavailable on this host";
    const DepthwiseCase &c = GetParam();
    Conv2dParams p;
    p.kernel_h = p.kernel_w = c.kernel;
    p.stride_h = p.stride_w = c.stride;
    p.pad_top = p.pad_left = p.pad_bottom = p.pad_right = c.pad;
    p.dilation_h = p.dilation_w = c.dilation;
    p.group = c.channels;

    const std::int64_t out_c = c.channels * c.multiplier;
    Tensor input(Shape({1, c.channels, c.hw, c.hw}));
    Tensor weight(Shape({out_c, 1, c.kernel, c.kernel}));
    Tensor bias(Shape({out_c}));
    const auto in_vals = positive_values(
        static_cast<std::size_t>(input.numel()), 0xdd1);
    const auto w_vals = positive_values(
        static_cast<std::size_t>(weight.numel()), 0xdd2);
    const auto b_vals = positive_values(
        static_cast<std::size_t>(bias.numel()), 0xdd3);
    std::copy(in_vals.begin(), in_vals.end(), input.data<float>());
    std::copy(w_vals.begin(), w_vals.end(), weight.data<float>());
    std::copy(b_vals.begin(), b_vals.end(), bias.data<float>());

    const Shape out_shape({1, out_c, p.out_h(c.hw), p.out_w(c.hw)});
    Tensor expected(out_shape), actual(out_shape);
    conv2d(ConvAlgo::kDepthwiseDirect, input, weight, &bias, p,
           ActivationSpec::relu(), expected);
    conv2d(ConvAlgo::kDepthwiseSimd, input, weight, &bias, p,
           ActivationSpec::relu(), actual);
    std::int64_t worst = 0;
    for (std::int64_t i = 0; i < expected.numel(); ++i)
        worst = std::max(worst, ulp_distance(expected.data<float>()[i],
                                             actual.data<float>()[i]));
    EXPECT_LE(worst, 4) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimdDepthwiseEquivalence,
    ::testing::Values(
        DepthwiseCase{"s1_3x3", 16, 14, 1, 3, 1, 1, 1},
        DepthwiseCase{"s2_3x3", 16, 14, 1, 3, 2, 1, 1},
        DepthwiseCase{"s1_5x5", 6, 12, 1, 5, 1, 2, 1},
        DepthwiseCase{"multiplier2", 8, 10, 2, 3, 1, 1, 1},
        DepthwiseCase{"dilated", 8, 13, 1, 3, 1, 2, 2},
        DepthwiseCase{"narrow", 4, 5, 1, 3, 1, 1, 1},
        DepthwiseCase{"no_pad", 8, 9, 1, 3, 1, 0, 1}),
    [](const ::testing::TestParamInfo<DepthwiseCase> &info) {
        return info.param.label;
    });

// --- engine dispatch --------------------------------------------------------

/** A small net covering depthwise conv, dense conv and a Gemm head. */
Graph
simd_probe_graph()
{
    GraphBuilder b("simd_probe", 0x51d);
    std::string x = b.input("input", Shape({1, 8, 10, 10}));
    x = b.conv_k(x, 8, 3, 1, 1, /*group=*/8, /*bias=*/true);
    x = b.conv_k(x, 16, 3, 1, 1, /*group=*/1, /*bias=*/true);
    x = b.flatten(x);
    x = b.dense(x, 10);
    b.output(x);
    return b.take();
}

/** impl selected per op type, in plan order. */
std::vector<std::pair<std::string, std::string>>
plan_impls(const Engine &engine)
{
    std::vector<std::pair<std::string, std::string>> impls;
    for (const PlanStep &step : engine.steps())
        impls.emplace_back(step.op_type, step.layer->impl_name());
    return impls;
}

TEST(SimdDispatch, SimdImplsSelectedWhenAvailable)
{
    if (!simd_enabled())
        GTEST_SKIP() << "SIMD tier unavailable on this host";
    const std::string isa = simd_isa_compiled();
    Engine engine(simd_probe_graph());
    bool saw_depthwise = false, saw_im2col = false, saw_gemm = false;
    for (const auto &[op, impl] : plan_impls(engine)) {
        if (impl == "depthwise_" + isa)
            saw_depthwise = true;
        if (impl == "im2col_gemm_" + isa)
            saw_im2col = true;
        if (impl == "packed_" + isa)
            saw_gemm = true;
    }
    EXPECT_TRUE(saw_depthwise);
    EXPECT_TRUE(saw_im2col);
    EXPECT_TRUE(saw_gemm);
}

TEST(SimdDispatch, DisableOverrideSelectsScalarImpls)
{
    if (simd_isa_compiled()[0] == '\0')
        GTEST_SKIP() << "no SIMD tier compiled into this binary";
    const bool ambient = std::getenv("ORPHEUS_DISABLE_SIMD") != nullptr;
    ::setenv("ORPHEUS_DISABLE_SIMD", "1", 1);
    Engine engine(simd_probe_graph());
    if (!ambient)
        ::unsetenv("ORPHEUS_DISABLE_SIMD");
    for (const auto &[op, impl] : plan_impls(engine)) {
        if (op == op_names::kConv)
            EXPECT_TRUE(impl == "depthwise_direct" ||
                        impl == "im2col_gemm")
                << impl;
        if (op == op_names::kGemm)
            EXPECT_EQ(impl, "reference");
    }
}

TEST(SimdDispatch, AllowSimdConfigRemovesSimdImpls)
{
    if (!simd_enabled())
        GTEST_SKIP() << "SIMD tier unavailable on this host";
    EngineOptions options;
    options.backend.allow_simd = false;
    Engine engine(simd_probe_graph(), options);
    const std::string isa = simd_isa_compiled();
    for (const auto &[op, impl] : plan_impls(engine)) {
        EXPECT_EQ(impl.find("_" + isa), std::string::npos)
            << op << " selected " << impl;
    }
}

TEST(SimdDispatch, SimdAndScalarEnginesAgree)
{
    if (!simd_enabled())
        GTEST_SKIP() << "SIMD tier unavailable on this host";
    Engine simd_engine(simd_probe_graph());
    EngineOptions scalar_options;
    scalar_options.backend.allow_simd = false;
    Engine scalar_engine(simd_probe_graph(), scalar_options);
    Tensor input = make_random(Shape({1, 8, 10, 10}), 0x5ee);
    const Tensor a = simd_engine.run(input);
    const Tensor b = scalar_engine.run(input);
    ASSERT_EQ(a.shape(), b.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i)
        EXPECT_LE(ulp_distance(a.data<float>()[i], b.data<float>()[i]),
                  256)
            << "output " << i;
}

} // namespace
} // namespace orpheus
