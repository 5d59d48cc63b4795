/** @file Tests for the quantization subsystem: parameter selection,
 *  quantized kernels, calibration and whole-model PTQ. */
#include <cfloat>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "models/builder.hpp"
#include "models/model_zoo.hpp"
#include "onnx/exporter.hpp"
#include "onnx/importer.hpp"
#include "ops/conv/conv.hpp"
#include "ops/quant/qconv.hpp"
#include "ops/quant/qgemm.hpp"
#include "ops/quant/quantize.hpp"
#include "qconv_cases.hpp"
#include "quant/quantizer.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::make_random;

std::size_t
count_ops(const Graph &graph, const std::string &op_type)
{
    std::size_t count = 0;
    for (const Node &node : graph.nodes())
        count += node.op_type() == op_type ? 1 : 0;
    return count;
}

// --- Parameter selection -----------------------------------------------

TEST(QuantParams, Uint8CoversRangeAndRepresentsZero)
{
    const QuantParams p = choose_uint8_params(-2.0f, 6.0f);
    EXPECT_NEAR(p.scale, 8.0f / 255.0f, 1e-6f);
    // Zero must quantize exactly to the zero point.
    EXPECT_EQ(p.quantize(0.0f), p.zero_point);
    EXPECT_NEAR(p.dequantize(p.zero_point), 0.0f, 1e-7f);
    // Range endpoints land inside [0, 255].
    EXPECT_GE(p.quantize(-2.0f), 0);
    EXPECT_LE(p.quantize(6.0f), 255);
}

TEST(QuantParams, AllPositiveRangeWidenedToZero)
{
    const QuantParams p = choose_uint8_params(1.0f, 5.0f);
    EXPECT_EQ(p.zero_point, 0);
    EXPECT_NEAR(p.scale, 5.0f / 255.0f, 1e-6f);
}

TEST(QuantParams, DegenerateRangeHandled)
{
    const QuantParams p = choose_uint8_params(0.0f, 0.0f);
    EXPECT_GT(p.scale, 0.0f);
}

TEST(QuantParams, SymmetricInt8)
{
    const QuantParams p = choose_int8_symmetric_params(3.0f);
    EXPECT_EQ(p.zero_point, 0);
    EXPECT_NEAR(p.scale, 3.0f / 127.0f, 1e-6f);
}

// --- Tensor round trips ---------------------------------------------------

TEST(Quantize, RoundTripErrorBoundedByHalfScale)
{
    Tensor values = make_random(Shape({1000}), 0x9a0, -3.0f, 3.0f);
    float lo, hi;
    tensor_min_max(values, lo, hi);
    const QuantParams params = choose_uint8_params(lo, hi);

    Tensor quantized(values.shape(), DataType::kUInt8);
    quantize_to_uint8(values, params, quantized);
    Tensor restored(values.shape());
    dequantize_to_float(quantized, params, restored);

    for (std::int64_t i = 0; i < values.numel(); ++i) {
        EXPECT_LE(std::fabs(restored.data<float>()[i] -
                            values.data<float>()[i]),
                  params.scale * 0.5f + 1e-6f)
            << "element " << i;
    }
}

TEST(Quantize, Int8SymmetricRoundTrip)
{
    Tensor values = make_random(Shape({256}), 0x9a1, -1.5f, 1.5f);
    float lo, hi;
    tensor_min_max(values, lo, hi);
    const QuantParams params = choose_int8_symmetric_params(
        std::max(std::fabs(lo), std::fabs(hi)));

    Tensor quantized(values.shape(), DataType::kInt8);
    quantize_to_int8(values, params, quantized);
    Tensor restored(values.shape());
    dequantize_to_float(quantized, params, restored);
    EXPECT_LE(max_abs_diff(restored, values), params.scale * 0.5f + 1e-6f);
}

TEST(Quantize, MinMaxHelper)
{
    Tensor t = Tensor::from_values(Shape({4}), {-2, 7, 0, 3});
    float lo, hi;
    tensor_min_max(t, lo, hi);
    EXPECT_EQ(lo, -2.0f);
    EXPECT_EQ(hi, 7.0f);
}

// --- Quantized GEMM ---------------------------------------------------------

TEST(QGemm, MatchesNaiveReference)
{
    Rng rng(0x9a2);
    const std::int64_t m = 7, n = 13, k = 21;
    std::vector<std::int8_t> w(static_cast<std::size_t>(m * k));
    std::vector<std::uint8_t> col(static_cast<std::size_t>(k * n));
    for (auto &value : w)
        value = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    for (auto &value : col)
        value = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    w[3] = 0; // the scalar kernel skips zero weights

    std::vector<std::int32_t> expected(static_cast<std::size_t>(m * n));
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            for (std::int64_t p = 0; p < k; ++p)
                expected[i * n + j] += w[i * k + p] * col[p * n + j];
    std::vector<std::int32_t> actual(expected.size(), -1);
    qgemm_w8a8(m, n, k, w.data(), k, col.data(), n, actual.data(), n);
    EXPECT_EQ(actual, expected);
}

// --- Quantized convolution ---------------------------------------------------

TEST(QConv, MatchesFakeQuantFloatConv)
{
    // qconv on quantized data == float conv on dequantized data, up to
    // output requantization (half an output scale).
    Rng rng(0x9a4);
    Tensor x_f32 = make_random(Shape({1, 3, 10, 10}), 0x9a5, -1.0f, 1.0f);
    Tensor w_f32 = make_random(Shape({8, 3, 3, 3}), 0x9a6, -0.5f, 0.5f);

    const QuantParams x_params = choose_uint8_params(-1.0f, 1.0f);
    const QuantParams w_params = choose_int8_symmetric_params(0.5f);

    Tensor x_q(x_f32.shape(), DataType::kUInt8);
    quantize_to_uint8(x_f32, x_params, x_q);
    Tensor w_q(w_f32.shape(), DataType::kInt8);
    quantize_to_int8(w_f32, w_params, w_q);

    // "Fake quant" reference: float conv over the dequantized tensors.
    Tensor x_dq(x_f32.shape()), w_dq(w_f32.shape());
    dequantize_to_float(x_q, x_params, x_dq);
    dequantize_to_float(w_q, w_params, w_dq);

    Conv2dParams p;
    p.kernel_h = p.kernel_w = 3;
    p.pad_top = p.pad_left = p.pad_bottom = p.pad_right = 1;

    Tensor reference(Shape({1, 8, 10, 10}));
    conv2d(ConvAlgo::kDirect, x_dq, w_dq, nullptr, p,
           ActivationSpec::none(), reference);

    float y_min, y_max;
    tensor_min_max(reference, y_min, y_max);
    const QuantParams y_params = choose_uint8_params(y_min, y_max);

    QConv2dArgs args;
    Tensor y_q(Shape({1, 8, 10, 10}), DataType::kUInt8);
    args.input = &x_q;
    args.input_params = x_params;
    args.weight = &w_q;
    args.weight_params = w_params;
    args.output = &y_q;
    args.output_params = y_params;
    args.params = p;
    qconv2d(args);

    Tensor y_dq(reference.shape());
    dequantize_to_float(y_q, y_params, y_dq);
    EXPECT_LE(max_abs_diff(y_dq, reference), y_params.scale * 0.51f + 1e-5f);
}

TEST(QConv, FusedReluClampsAtZero)
{
    Tensor x_q(Shape({1, 1, 4, 4}), DataType::kUInt8);
    Tensor w_q(Shape({1, 1, 1, 1}), DataType::kInt8);
    *w_q.data<std::int8_t>() = -100; // Strongly negative weight.
    for (std::int64_t i = 0; i < 16; ++i)
        x_q.data<std::uint8_t>()[i] = 200;

    QConv2dArgs args;
    Tensor y_q(Shape({1, 1, 4, 4}), DataType::kUInt8);
    args.input = &x_q;
    args.input_params = {0.1f, 0};
    args.weight = &w_q;
    args.weight_params = {0.1f, 0};
    args.output = &y_q;
    args.output_params = {0.1f, 10};
    args.params = Conv2dParams{};
    args.activation = ActivationSpec::relu();
    qconv2d(args);

    // All outputs are negative pre-activation; relu clamps to y_zp.
    for (std::int64_t i = 0; i < 16; ++i)
        EXPECT_EQ(y_q.data<std::uint8_t>()[i], 10);
}

TEST(QConv, RejectsAsymmetricWeights)
{
    Tensor x_q(Shape({1, 1, 2, 2}), DataType::kUInt8);
    Tensor w_q(Shape({1, 1, 1, 1}), DataType::kInt8);
    Tensor y_q(Shape({1, 1, 2, 2}), DataType::kUInt8);
    QConv2dArgs args;
    args.input = &x_q;
    args.weight = &w_q;
    args.output = &y_q;
    args.weight_params = {0.1f, 5};
    EXPECT_THROW(qconv2d(args), Error);
}

// --- Requantize rounding and saturation -------------------------------------

TEST(Requantize, RoundSaturateEqualsLroundInRange)
{
    // Ties, just-below-ties, the 2^23 boundary where floats become
    // integers, and the +-2^30 saturation ends.
    std::vector<float> values = {0.0f,       -0.0f,      0.5f,
                                 -0.5f,      1.5f,       -1.5f,
                                 2.5f,       -2.5f,      0.49999997f,
                                 -0.49999997f, 8388607.5f, -8388607.5f,
                                 8388609.0f, 1073741824.0f, -1073741824.0f};
    unsigned state = 0x5a7;
    for (int i = 0; i < 100000; ++i) {
        state = state * 1664525u + 1013904223u;
        const float unit = static_cast<float>(state >> 8) / 16777216.0f;
        // Magnitudes from 2^-4 to 2^26, both signs.
        values.push_back((state & 1u ? -1.0f : 1.0f) *
                         std::ldexp(unit, static_cast<int>(state % 31) - 4));
    }
    for (float v : values)
        ASSERT_EQ(round_saturate(v), static_cast<std::int32_t>(std::lround(v)))
            << v;
}

TEST(Requantize, SaturatesInsteadOfWrapping)
{
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(round_saturate(3e9f), 1 << 30);
    EXPECT_EQ(round_saturate(inf), 1 << 30);
    EXPECT_EQ(round_saturate(-inf), -(1 << 30));
    EXPECT_EQ(round_saturate(std::nanf("")), 0);

    const QuantParams params{1.0f, 10};
    EXPECT_GT(params.quantize(FLT_MAX), 255);
    EXPECT_LT(params.quantize(std::numeric_limits<float>::lowest()), 0);

    Tensor in(Shape({7}));
    const float values[] = {3e9f, 1e20f, inf, -3e9f, -inf, std::nanf(""),
                            100.0f};
    std::copy(values, values + 7, in.data<float>());
    Tensor u8(in.shape(), DataType::kUInt8);
    quantize_to_uint8(in, params, u8);
    const std::uint8_t want_u8[] = {255, 255, 255, 0, 0, 10, 110};
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(u8.data<std::uint8_t>()[i], want_u8[i]) << values[i];

    Tensor i8(in.shape(), DataType::kInt8);
    quantize_to_int8(in, QuantParams{1.0f, 0}, i8);
    const std::int8_t want_i8[] = {127, 127, 127, -127, -127, 0, 100};
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(i8.data<std::int8_t>()[i], want_i8[i]) << values[i];
}

TEST(QConv, OneSidedClipKeepsTheOpenSide)
{
    // fuse_conv_activation fills a Clip's missing bound with +-FLT_MAX:
    // Clip(0, FLT_MAX) is a ReLU and Clip(lowest, 6) an upper clamp only.
    const testing::QConvCase c{4, 14, 1, 1, 1, true, true,
                               ActivationKind::kRelu};
    testing::QConvProblem relu(c), open_max(c), open_min(c),
        finite_min(c);
    open_max.args.activation = ActivationSpec::clip(0.0f, FLT_MAX);
    open_min.args.activation =
        ActivationSpec::clip(std::numeric_limits<float>::lowest(), 6.0f);
    finite_min.args.activation = ActivationSpec::clip(-1e6f, 6.0f);
    for (auto *problem : {&relu, &open_max, &open_min, &finite_min}) {
        qconv2d(problem->args);
        Tensor depthwise(problem->y.shape(), DataType::kUInt8);
        problem->args.output = &depthwise;
        qconv2d_depthwise(problem->args);
        problem->args.output = &problem->y;
        ASSERT_EQ(testing::first_difference(depthwise, problem->y), -1);
    }
    EXPECT_EQ(testing::first_difference(open_max.y, relu.y), -1);
    EXPECT_EQ(testing::first_difference(open_min.y, finite_min.y), -1);
    // The reference problem does reach below the zero point.
    const std::uint8_t *y = open_min.y.data<std::uint8_t>();
    EXPECT_LT(*std::min_element(y, y + open_min.y.numel()),
              open_min.args.output_params.zero_point);
}

// --- Depthwise and pointwise kernels against an independent formula ---------

TEST(QConv, ImplsMatchIndependentFormula)
{
    // Every QLinearConv impl on its scalar and SIMD tier (args.simd
    // falls back to scalar where the tier is off), over the depthwise
    // and the dense 3x3 sweeps; the depthwise kernels only claim the
    // depthwise cases.
    std::vector<testing::QConvCase> cases = testing::qdepthwise_sweep();
    const std::vector<testing::QConvCase> dense = testing::qdense_sweep();
    cases.insert(cases.end(), dense.begin(), dense.end());
    for (const testing::QConvCase &c : cases) {
        testing::QConvProblem problem(c);
        const Tensor expected = testing::qconv_expected(problem.args);
        ASSERT_EQ(expected.shape(), problem.y.shape()) << c.label();

        for (const bool simd : {false, true}) {
            problem.args.simd = simd;
            qconv2d(problem.args);
            ASSERT_EQ(testing::first_difference(problem.y, expected), -1)
                << "im2col_qgemm simd=" << simd << ", " << c.label();
            if (!c.depthwise())
                continue;
            qconv2d_depthwise(problem.args);
            ASSERT_EQ(testing::first_difference(problem.y, expected), -1)
                << "qdepthwise simd=" << simd << ", " << c.label();
        }
    }
}

TEST(QDepthwise, RejectsNonDepthwiseArgs)
{
    testing::QConvProblem problem(
        {4, 7, 1, 1, 1, false, false, ActivationKind::kNone});
    problem.args.params.group = 2;
    EXPECT_THROW(qconv2d_depthwise(problem.args), Error);
}

TEST(QConv, PointwiseReadsInputAsColumnsAndMatchesFormula)
{
    // 1x1/stride-1/pad-0 convs take no column buffer
    // (is_pointwise_conv); grouped and dense, both qgemm tiers.
    for (std::int64_t group : {1, 2}) {
        testing::QConvProblem problem(
            {8, 9, 1, 0, 2, true, true, ActivationKind::kRelu});
        Tensor w(Shape({6, 8 / group, 1, 1}), DataType::kInt8);
        for (std::int64_t i = 0; i < w.numel(); ++i)
            w.data<std::int8_t>()[i] =
                static_cast<std::int8_t>(i * 37 % 256 - 128);
        Tensor b(Shape({6}), DataType::kInt32);
        for (std::int64_t i = 0; i < 6; ++i)
            b.data<std::int32_t>()[i] =
                static_cast<std::int32_t>(i) * 901 - 2000;
        Tensor y(Shape({2, 6, 9, 9}), DataType::kUInt8);
        QConv2dArgs &args = problem.args;
        args.weight = &w;
        args.bias = &b;
        args.output = &y;
        args.weight_channel_scales.resize(6, 0.03f);
        args.params = Conv2dParams{};
        args.params.group = group;
        const Tensor expected = testing::qconv_expected(args);
        for (bool simd : {false, true}) {
            args.simd = simd;
            qconv2d(args);
            EXPECT_EQ(testing::first_difference(y, expected), -1)
                << "group " << group << " simd " << simd;
        }
    }
}

// --- The engine runs the depthwise kernel, bitwise equal to im2col ----------

/** Copies of every QLinearConv step's output after one run_batch. */
std::vector<Tensor>
qconv_step_outputs(Engine &engine, const std::vector<Tensor> &images)
{
    std::vector<std::map<std::string, Tensor>> requests;
    for (const Tensor &image : images)
        requests.push_back(
            {{engine.request_inputs().front().name, image.clone()}});
    std::vector<const std::map<std::string, Tensor> *> pointers;
    for (const auto &request : requests)
        pointers.push_back(&request);
    engine.run_batch(pointers);

    std::vector<Tensor> outputs;
    for (const PlanStep &step : engine.steps())
        if (step.op_type == op_names::kQLinearConv)
            outputs.push_back(step.outputs.front()->clone());
    return outputs;
}

TEST(QDepthwise, EngineSelectsItAndMatchesIm2colStepByStep)
{
    QuantizationOptions quant;
    quant.calibration_runs = 1;
    const Graph quantized =
        quantize_model(models::mobilenet_v1(1000, 0.5f), quant);

    // Separate allocations keep every step's output readable after the
    // run; capacity 3 serves both the n=1 and the n=3 runs.
    EngineOptions on;
    on.use_memory_planner = false;
    on.max_batch = 3;
    EngineOptions off = on;
    off.backend.allow_depthwise_specialization = false;
    Engine with_kernel(Graph(quantized), on);
    Engine without_kernel(Graph(quantized), off);
    ASSERT_EQ(with_kernel.batch_capacity(), 3)
        << with_kernel.batch_fallback_reason();

    int depthwise_steps = 0;
    for (const PlanStep &step : with_kernel.steps()) {
        if (step.op_type != op_names::kQLinearConv)
            continue;
        // OIHW weights with one input channel per group.
        if (step.inputs[3]->shape().dim(1) != 1)
            continue;
        ++depthwise_steps;
        EXPECT_EQ(step.layer->impl_name().rfind("qdepthwise_", 0), 0u)
            << step.node_name << " ran " << step.layer->impl_name();
    }
    EXPECT_EQ(depthwise_steps, 13);
    for (const PlanStep &step : without_kernel.steps())
        EXPECT_EQ(step.layer->impl_name().find("qdepthwise"),
                  std::string::npos);

    const Shape image_shape({1, 3, 224, 224});
    std::vector<Tensor> images;
    for (std::uint64_t seed : {0xd1u, 0xd2u, 0xd3u})
        images.push_back(testing::make_random(image_shape, seed));

    for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
        const std::vector<Tensor> batch(images.begin(), images.begin() + n);
        const std::vector<Tensor> a = qconv_step_outputs(with_kernel, batch);
        const std::vector<Tensor> b =
            qconv_step_outputs(without_kernel, batch);
        ASSERT_EQ(a.size(), 27u);
        ASSERT_EQ(b.size(), a.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].numel(), b[i].numel());
            EXPECT_EQ(testing::first_difference(a[i], b[i]), -1)
                << "QLinearConv step " << i << " at n=" << n;
        }
    }
}

// --- Shape inference for the quant ops --------------------------------------

TEST(QuantShapes, RulesProduceQuantizedSignatures)
{
    Graph graph("q");
    graph.add_input("x", Shape({1, 3, 8, 8}));
    graph.add_initializer("xs", Tensor::scalar(0.1f));
    Tensor zp(Shape{}, DataType::kUInt8);
    graph.add_initializer("xzp", zp.clone());
    graph.add_node(op_names::kQuantizeLinear, {"x", "xs", "xzp"}, {"xq"});
    graph.add_node(op_names::kDequantizeLinear, {"xq", "xs", "xzp"},
                   {"xf"});
    graph.add_output("xf");

    const auto infos = infer_shapes(graph);
    EXPECT_EQ(infos.at("xq").dtype, DataType::kUInt8);
    EXPECT_EQ(infos.at("xq").shape, Shape({1, 3, 8, 8}));
    EXPECT_EQ(infos.at("xf").dtype, DataType::kFloat32);
}

// --- Whole-model PTQ -----------------------------------------------------

TEST(Quantizer, TinyCnnEndToEnd)
{
    const Graph float_graph = models::tiny_cnn();

    QuantizationReport report;
    QuantizationOptions options;
    options.calibration_runs = 2;
    Graph quantized = quantize_model(Graph(float_graph), options, &report);

    EXPECT_EQ(report.quantized_convs, 2);
    EXPECT_EQ(report.skipped_convs, 0);
    EXPECT_GE(report.removed_quant_pairs, 0);
    EXPECT_EQ(count_ops(quantized, op_names::kConv), 0u);
    EXPECT_EQ(count_ops(quantized, op_names::kQLinearConv), 2u);

    // Numerics: the quantized model tracks the float model closely.
    Engine float_engine{Graph(float_graph)};
    Engine quant_engine(std::move(quantized));
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0x9a7, -1.0f, 1.0f);
    const Tensor expected = float_engine.run(input);
    const Tensor actual = quant_engine.run(input);
    EXPECT_LE(max_abs_diff(actual, expected), 0.05f)
        << "quantized class probabilities drifted too far";

    // The predicted class survives quantization.
    const auto argmax = [](const Tensor &t) {
        int best = 0;
        for (int i = 1; i < t.numel(); ++i) {
            if (t.data<float>()[i] > t.data<float>()[best])
                best = i;
        }
        return best;
    };
    EXPECT_EQ(argmax(actual), argmax(expected));
}

TEST(Quantizer, ConsecutiveConvsStayInIntegerDomain)
{
    GraphBuilder b("chain", 0x9a8);
    std::string x = b.input("input", Shape({1, 3, 12, 12}));
    x = b.conv_k(x, 8, 3, 1, 1, 1, true);
    x = b.relu(x);
    x = b.conv_k(x, 8, 3, 1, 1, 1, true);
    x = b.relu(x);
    b.output(x);

    QuantizationReport report;
    Graph quantized = quantize_model(b.take(), {}, &report);
    EXPECT_EQ(report.quantized_convs, 2);
    EXPECT_GE(report.removed_quant_pairs, 1)
        << "the DQ->Q bridge between the convs must be eliminated";
    // One Quantize at the front, one Dequantize at the back.
    EXPECT_EQ(count_ops(quantized, op_names::kQuantizeLinear), 1u);
    EXPECT_EQ(count_ops(quantized, op_names::kDequantizeLinear), 1u);
}

TEST(Quantizer, QuantizedGraphSurvivesOnnxRoundTrip)
{
    Graph quantized = quantize_model(models::tiny_cnn());
    const std::vector<std::uint8_t> bytes = export_onnx(quantized);

    Graph imported;
    ASSERT_TRUE(import_onnx(bytes, imported).is_ok());
    EXPECT_EQ(imported.nodes().size(), quantized.nodes().size());

    Engine engine_a(std::move(quantized));
    Engine engine_b(std::move(imported));
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0x9a9);
    EXPECT_EQ(max_abs_diff(engine_a.run(input), engine_b.run(input)), 0.0f);
}

TEST(Quantizer, WrnQuantizesEveryConv)
{
    QuantizationReport report;
    QuantizationOptions options;
    options.calibration_runs = 1;
    Graph quantized =
        quantize_model(models::wrn_40_2(), options, &report);
    EXPECT_GE(report.quantized_convs, 40);
    EXPECT_EQ(report.skipped_convs, 0);

    // It still runs and produces a distribution.
    Engine engine(std::move(quantized));
    const Tensor output =
        engine.run(make_random(Shape({1, 3, 32, 32}), 0x9aa));
    double sum = 0.0;
    for (int i = 0; i < 10; ++i)
        sum += output.data<float>()[i];
    EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Quantizer, PerChannelBeatsPerTensorOnSkewedFilters)
{
    // A conv whose filters differ in magnitude by 100x: a single tensor
    // scale wastes most of the int8 range on the small filters. Measure
    // the weight reconstruction error of each mode directly.
    GraphBuilder b("skew", 0x9ac);
    std::string x = b.input("input", Shape({1, 3, 10, 10}));
    x = b.conv_k(x, 8, 3, 1, 1, 1, /*bias=*/true);
    b.output(x);
    Graph graph = b.take();

    // Scale half of the filters down by 100x and keep a copy.
    Tensor original;
    for (const Node &node : graph.nodes()) {
        if (node.op_type() != op_names::kConv)
            continue;
        Tensor &weight =
            const_cast<Tensor &>(graph.initializer(node.input(1)));
        float *w = weight.data<float>();
        const std::int64_t per_filter = weight.numel() / 8;
        for (std::int64_t oc = 4; oc < 8; ++oc) {
            for (std::int64_t k = 0; k < per_filter; ++k)
                w[oc * per_filter + k] *= 0.01f;
        }
        original = weight.clone();
    }

    // Reconstructs the fp32 weights from a quantized graph and returns
    // the max error over the *small* filters (oc >= 4).
    const auto small_filter_error = [&](bool per_channel) {
        QuantizationOptions options;
        options.calibration_runs = 1;
        options.per_channel_weights = per_channel;
        Graph quantized = quantize_model(Graph(graph), options);
        for (const Node &node : quantized.nodes()) {
            if (node.op_type() != op_names::kQLinearConv)
                continue;
            const Tensor &w_q = quantized.initializer(node.input(3));
            const Tensor &scales = quantized.initializer(node.input(4));
            const std::int8_t *q = w_q.data<std::int8_t>();
            const float *s = scales.data<float>();
            const std::int64_t per_filter = w_q.numel() / 8;
            float worst = 0.0f;
            for (std::int64_t oc = 4; oc < 8; ++oc) {
                const float scale = scales.numel() == 1
                                        ? s[0]
                                        : s[oc];
                for (std::int64_t k = 0; k < per_filter; ++k) {
                    const float restored = scale * q[oc * per_filter + k];
                    worst = std::max(
                        worst,
                        std::fabs(restored -
                                  original.data<float>()[oc * per_filter +
                                                         k]));
                }
            }
            return worst;
        }
        return -1.0f;
    };

    const float per_tensor_error = small_filter_error(false);
    const float per_channel_error = small_filter_error(true);
    ASSERT_GE(per_tensor_error, 0.0f);
    ASSERT_GE(per_channel_error, 0.0f);
    EXPECT_LT(per_channel_error, per_tensor_error * 0.1f)
        << "per-channel scales must recover the small filters "
        << "(per-tensor " << per_tensor_error << ", per-channel "
        << per_channel_error << ")";
}

TEST(Quantizer, PerChannelGraphHas1dWeightScales)
{
    QuantizationOptions options;
    options.calibration_runs = 1;
    options.per_channel_weights = true;
    Graph quantized = quantize_model(models::tiny_cnn(), options);

    bool saw_vector_scale = false;
    for (const Node &node : quantized.nodes()) {
        if (node.op_type() != op_names::kQLinearConv)
            continue;
        const Tensor &w_scale = quantized.initializer(node.input(4));
        saw_vector_scale |= w_scale.shape().rank() == 1 &&
                            w_scale.numel() > 1;
    }
    EXPECT_TRUE(saw_vector_scale);
}

TEST(Calibration, TableCoversEveryFloatValue)
{
    Graph graph = models::tiny_mlp();
    simplify_graph(graph);
    const RangeTable table = calibrate_ranges(graph, 2, 0x9ab);

    EXPECT_GT(table.count("input"), 0u);
    for (const Node &node : graph.nodes()) {
        for (const std::string &out : node.outputs())
            EXPECT_GT(table.count(out), 0u) << out;
    }
    for (const auto &[name, range] : table)
        EXPECT_LE(range.first, range.second) << name;
}

} // namespace
} // namespace orpheus
