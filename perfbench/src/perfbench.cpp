#include "perfbench.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    if (values.size() % 2 == 1)
        return values[mid];
    const double upper = values[mid];
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return (lower + upper) / 2;
}

namespace {

/** 1-based nearest rank of @p percentile among @p n samples; the small
 *  slack keeps exact products such as 0.9 * 100 from rounding up. */
std::size_t
nearest_rank(double percentile, std::size_t n)
{
    const double rank =
        std::ceil(percentile / 100 * static_cast<double>(n) - 1e-9);
    return static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(std::max<std::size_t>(n, 1))));
}

} // namespace

double
supported_percentile(std::size_t samples, std::size_t beyond)
{
    double best = kTailLadder[0];
    for (double p : kTailLadder) {
        const std::size_t rank = nearest_rank(p, samples);
        if (samples >= rank && samples - rank >= beyond)
            best = p;
    }
    return best;
}

Tail
percentile(std::vector<double> values, double percentile)
{
    Tail tail;
    tail.percentile = percentile;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    tail.value = values[nearest_rank(percentile, values.size()) - 1];
    tail.beyond = static_cast<std::size_t>(
        values.end() - std::upper_bound(values.begin(), values.end(),
                                        tail.value));
    return tail;
}

std::uint64_t
mix_seed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

/** Uniform double in [0, 1) from the top 53 bits of a SplitMix64 draw. */
double
unit_draw(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    const std::uint64_t bits = mix_seed(state, 0);
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

} // namespace

std::vector<float>
seeded_floats(std::uint64_t seed, std::size_t count)
{
    std::vector<float> out(count);
    std::uint64_t state = seed;
    for (float &value : out)
        value = static_cast<float>(2.0 * unit_draw(state) - 1.0);
    return out;
}

std::vector<float>
seeded_input(std::uint64_t seed, std::size_t index, std::size_t count)
{
    return seeded_floats(mix_seed(seed, 1000 + index), count);
}

std::vector<double>
poisson_schedule(std::uint64_t seed, double rate_per_s, double seconds)
{
    const auto count =
        static_cast<std::size_t>(std::llround(rate_per_s * seconds));
    std::vector<double> times(count);
    std::uint64_t state = seed;
    for (double &t : times)
        t = unit_draw(state) * seconds;
    std::sort(times.begin(), times.end());
    return times;
}

const char *
class_name(OpClass cls)
{
    switch (cls) {
    case OpClass::kConv: return "conv";
    case OpClass::kDwConv: return "dwconv";
    case OpClass::kQConv: return "qconv";
    case OpClass::kQdq: return "qdq";
    case OpClass::kGemm: return "gemm";
    case OpClass::kPool: return "pool";
    case OpClass::kEltwise: return "eltwise";
    case OpClass::kAct: return "act";
    case OpClass::kOther: return "other";
    }
    return "other";
}

std::int64_t
Operand::numel() const
{
    std::int64_t n = 1;
    for (std::int64_t d : dims)
        n *= d;
    return n;
}

namespace {

/** Every operator the five paper models use before and after
 *  simplification and quantization, plus the rest of the supported set. */
const std::map<std::string, OpClass> &
class_table()
{
    static const std::map<std::string, OpClass> table = {
        {"Conv", OpClass::kConv},
        {"QLinearConv", OpClass::kQConv},
        {"QuantizeLinear", OpClass::kQdq},
        {"DequantizeLinear", OpClass::kQdq},
        {"Gemm", OpClass::kGemm},
        {"MatMul", OpClass::kGemm},
        {"MaxPool", OpClass::kPool},
        {"AveragePool", OpClass::kPool},
        {"GlobalAveragePool", OpClass::kPool},
        {"GlobalMaxPool", OpClass::kPool},
        {"Add", OpClass::kEltwise},
        {"Sub", OpClass::kEltwise},
        {"Mul", OpClass::kEltwise},
        {"Div", OpClass::kEltwise},
        {"Relu", OpClass::kAct},
        {"LeakyRelu", OpClass::kAct},
        {"Sigmoid", OpClass::kAct},
        {"Tanh", OpClass::kAct},
        {"Clip", OpClass::kAct},
        {"Neg", OpClass::kAct},
        {"Exp", OpClass::kAct},
        {"Sqrt", OpClass::kAct},
        {"Abs", OpClass::kAct},
        {"BatchNormalization", OpClass::kOther},
        {"Softmax", OpClass::kOther},
        {"Concat", OpClass::kOther},
        {"Flatten", OpClass::kOther},
        {"Reshape", OpClass::kOther},
        {"Pad", OpClass::kOther},
        {"ReduceMean", OpClass::kOther},
        {"ArgMax", OpClass::kOther},
        {"Identity", OpClass::kOther},
        {"Dropout", OpClass::kOther},
        {"Constant", OpClass::kOther},
    };
    return table;
}

double
operand_bytes(const std::vector<Operand> &operands)
{
    double bytes = 0;
    for (const Operand &op : operands)
        bytes += static_cast<double>(op.numel()) * op.elem_bytes;
    return bytes;
}

} // namespace

StepWork
step_work(const std::string &op_type, const std::vector<Operand> &inputs,
          const std::vector<Operand> &outputs, bool trans_a)
{
    StepWork work;
    const auto it = class_table().find(op_type);
    work.known = it != class_table().end();
    work.cls = work.known ? it->second : OpClass::kOther;
    work.bytes = operand_bytes(inputs) + operand_bytes(outputs);
    const double out_numel =
        outputs.empty() ? 0.0 : static_cast<double>(outputs[0].numel());

    if (work.cls == OpClass::kConv || work.cls == OpClass::kQConv) {
        // Weights are OIHW: input 1 of Conv, input 3 of QLinearConv
        // (after x, x_scale, x_zero_point).
        const std::size_t w_index = work.cls == OpClass::kConv ? 1 : 3;
        if (inputs.size() <= w_index || inputs[w_index].dims.size() != 4 ||
            inputs[0].dims.size() != 4)
            throw std::invalid_argument(op_type + ": expected NCHW/OIHW");
        const auto &w = inputs[w_index].dims;
        work.flops = 2.0 * out_numel * static_cast<double>(w[1] * w[2] * w[3]);
        const std::int64_t in_channels = inputs[0].dims[1];
        if (work.cls == OpClass::kConv && w[1] == 1 && in_channels > 1)
            work.cls = OpClass::kDwConv;
    } else if (work.cls == OpClass::kGemm) {
        if (inputs.empty() || inputs[0].dims.empty())
            throw std::invalid_argument(op_type + ": expected an A operand");
        const auto &a = inputs[0].dims;
        const std::int64_t k =
            op_type == "Gemm" && trans_a ? a.front() : a.back();
        work.flops = 2.0 * out_numel * static_cast<double>(k);
    }
    return work;
}

} // namespace perfbench
