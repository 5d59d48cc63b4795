/**
 * @file
 * The testable core of the repository benchmark: sample statistics,
 * seeded inputs and arrival schedules, op-class bucketing with computed
 * work counts, the host roofline probes and the host speed reference.
 *
 * Everything here is measured from outside the library: the benchmark
 * only calls public Orpheus entry points and derives work counts from
 * plan shapes. Nothing is read from hardware counters.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// --- Statistics -------------------------------------------------------

double median(std::vector<double> values);

/** A tail latency together with the percentile it was taken at. */
struct Tail {
    double value = 0;
    double percentile = 0;
    std::size_t samples = 0;
    /** Samples strictly above the reported value. */
    std::size_t beyond = 0;
};

/** Percentiles a tail may be reported at. */
inline constexpr double kTailLadder[] = {50, 90, 95, 97.5, 99, 99.9};

/** The highest ladder percentile that leaves at least @p beyond of
 *  @p samples above it (50 when none does). */
double supported_percentile(std::size_t samples, std::size_t beyond = 10);

/** Nearest-rank @p percentile of @p values (the ceil(p/100 * n)-th
 *  smallest) and the number of samples above it. */
Tail percentile(std::vector<double> values, double percentile);

// --- Seeded inputs ----------------------------------------------------

/** SplitMix64 step: derives independent streams from one seed. */
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/** @p count floats uniform in [-1, 1), fully determined by @p seed
 *  (bit-exact on every platform; no std distributions). */
std::vector<float> seeded_floats(std::uint64_t seed, std::size_t count);

/** Input number @p index of a run seeded with @p seed: @p count floats
 *  from its own stream, so input i is the same however many are made. */
std::vector<float> seeded_input(std::uint64_t seed, std::size_t index,
                                std::size_t count);

/**
 * Open-loop arrival times (seconds from the start) of a Poisson
 * process of @p rate_per_s over @p seconds, conditioned on its
 * expected count: round(rate * seconds) arrival times drawn uniformly
 * and sorted. Conditioning fixes the request count per run so the
 * offered load does not vary with the seed; gaps stay exponential.
 */
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double seconds);

// --- Op classes and computed work -------------------------------------

enum class OpClass {
    kConv,    ///< fp32 Conv, dense or grouped
    kDwConv,  ///< fp32 depthwise Conv (one input channel per group)
    kQConv,   ///< QLinearConv, any grouping
    kQdq,     ///< QuantizeLinear / DequantizeLinear
    kGemm,    ///< Gemm / MatMul
    kPool,    ///< Max/Average pooling, global or windowed
    kEltwise, ///< binary elementwise arithmetic
    kAct,     ///< activations and unary elementwise math
    kOther,   ///< layout and everything else
};

inline constexpr int kOpClassCount = 9;

/** Metric-name stem: "conv", "dwconv", "qconv", ... */
const char *class_name(OpClass cls);

/** One tensor operand as the work model sees it. */
struct Operand {
    std::vector<std::int64_t> dims;
    int elem_bytes = 4;

    std::int64_t numel() const;
};

/** Computed (not hardware-counted) work of one plan step. */
struct StepWork {
    OpClass cls = OpClass::kOther;
    /** False when the op type is missing from the bucketing table. */
    bool known = true;
    /** Multiply and add each count as one operation. */
    double flops = 0;
    /** Compulsory traffic: every input (weights included) read once,
     *  every output written once. */
    double bytes = 0;
};

/** Buckets @p op_type and counts its work from operand shapes.
 *  @p inputs holds only present operands, index-aligned with the node
 *  for the leading ones the formulas read (data, then weight). */
StepWork step_work(const std::string &op_type,
                   const std::vector<Operand> &inputs,
                   const std::vector<Operand> &outputs, bool trans_a = false);

// --- Host roofline ----------------------------------------------------

/** Peak fp32 FMA rate of one core in GFLOP/s (an AVX2+FMA loop when
 *  the CPU has it, scalar otherwise). */
double measure_peak_gflops();

/** Streaming-copy bandwidth of one core in GB/s, counting bytes read
 *  plus bytes written. */
double measure_stream_gbps();

// --- Host speed reference ---------------------------------------------

/** Time one or more reference passes took, in ms. */
struct PassTime {
    double wall_ms = 0;
    /** CPU time of the running thread: it leaves out time the thread
     *  waited for a CPU, such as a virtual CPU the host took away. */
    double cpu_ms = 0;
};

/**
 * A fixed piece of work written in the benchmark itself: a copy that
 * streams through the last-level cache, then a blocked fp32 matrix
 * product out of L2. No change to Orpheus moves its time, so the ratio
 * of a measured time to the reference passes next to it cancels the
 * speed swings of a shared host (clock changes, neighbours on the
 * caches and memory) while every change to the program still shows.
 */
class SpeedReference {
public:
    /** Allocates and touches every buffer, so footprint_bytes() stays
     *  resident from here on. */
    SpeedReference();

    /** Runs one pass. */
    PassTime pass();

    /** Field-wise medians of @p passes passes. */
    PassTime median(int passes);

    /** Each CPU's median(@p passes), run on every CPU the process may
     *  use, one after another; the field-wise mean over CPUs. The speed
     *  of the whole guest, whose CPUs other threads run on: the speed of
     *  one virtual CPU moves on its own as well as with the host's.
     *  (Linux; elsewhere median on the calling thread.) */
    PassTime all_cpus(int passes);

    /** Resident bytes of the buffers. */
    std::size_t footprint_bytes() const;

private:
    std::vector<float> a_, b_, c_;
    std::vector<char> src_, dst_;
};

/** Nominal time of one reference pass. A time "at reference speed"
 *  reads as if measured on a host where one pass takes this long. */
inline constexpr double kReferencePassMs = 5.0;

/** @p ms, measured between reference passes of @p before_ms and
 *  @p after_ms, rescaled to reference speed: multiplied by nominal /
 *  mean pass. */
double at_reference_speed(double ms, double before_ms, double after_ms);

} // namespace perfbench
