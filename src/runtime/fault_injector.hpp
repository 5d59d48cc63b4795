/**
 * @file
 * Deterministic kernel-fault and delay/hang injection.
 *
 * The engine's fault-tolerance policy (fall back to the reference
 * implementation when a kernel throws) is only trustworthy if it can be
 * exercised on demand. A FaultInjector is armed with a (node, impl)
 * pattern and a call ordinal; the engine consults it immediately before
 * every kernel invocation and raises a KernelFault when the injector
 * says so — exactly the failure path a misbehaving third-party backend
 * would take by throwing from Layer::forward().
 *
 * A second, independently armed matcher injects *delays*: the engine
 * sleeps for the configured duration (in cancellation-aware slices)
 * before running the kernel, simulating a slow or wedged backend. This
 * is what makes the deadline and watchdog paths deterministically
 * testable — a hang on demand, at a chosen kernel invocation.
 *
 * A third matcher injects *silent corruption*: after a matching kernel
 * completes, the engine deterministically damages its first output
 * (NaN poke, mantissa bit-flip, or magnitude spike) — exactly what a
 * miscompiled or bit-rotted backend produces, with no exception for
 * the fallback path and no hang for the watchdog. This is what makes
 * the output guard, shadow execution and circuit breaker (guard.hpp)
 * testable without a real miscompile. A fourth scopes corruption to a
 * model instead of a (node, impl) pattern. All four share one matcher
 * type (pattern, first ordinal, cap, counters).
 *
 * Thread-safe: one injector may be shared by engines running on
 * different threads (counters are guarded by a mutex).
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "core/status.hpp"
#include "core/tensor.hpp"

namespace orpheus {

/** How arm_corruption() damages a matching kernel's output. */
enum class CorruptionKind {
    kNone = 0,
    /** Element 0 becomes a quiet NaN (caught by the non-finite scan). */
    kNaNPoke,
    /** The top mantissa bit of the middle element flips — a finite,
     *  plausible-looking value only shadow execution can catch. */
    kBitFlip,
    /** Element 0 becomes 1e30f (caught by the magnitude limit or
     *  shadow execution, but not the non-finite scan). */
    kMagnitudeSpike,
};

const char *to_string(CorruptionKind kind);

/** Applies @p kind to @p output in place (fp32 only; no-op otherwise
 *  or when the tensor is empty). Deterministic. */
void apply_corruption(CorruptionKind kind, Tensor &output);

/**
 * The injector's complete verdict for one kernel invocation, computed
 * atomically under a single lock acquisition. Engines in a replica pool
 * consult a shared injector concurrently; evaluating the matchers as
 * separate locked calls would let a concurrent re-arm (chaos harnesses
 * re-arm between phases) interleave between them and hand a step half
 * of the old schedule and half of the new one.
 */
struct InjectionDecision {
    /** The invocation must throw KernelFault before running. */
    bool fail = false;
    /** Milliseconds to stall before running (0 = none). */
    double delay_ms = 0;
    /** Corruption to apply to the first output after running. */
    CorruptionKind corruption = CorruptionKind::kNone;
};

class FaultInjector
{
  public:
    /**
     * Arms the injector. A kernel invocation matches when @p node_name
     * (if non-empty) equals the step's node name and @p impl_name (if
     * non-empty) equals the executing layer's implementation name.
     * Matching invocations are counted from 0; those with ordinal
     * >= @p fail_from_call fail. @p max_faults < 0 means "no cap".
     */
    void arm(std::string node_name, std::string impl_name,
             std::int64_t fail_from_call = 0, std::int64_t max_faults = -1);

    /**
     * Arms delay injection, independent of fault arming. Matching
     * invocations (same pattern semantics as arm()) with ordinal
     * >= @p delay_from_call stall for @p delay_ms milliseconds before
     * the kernel runs. @p max_delays < 0 means "no cap".
     */
    void arm_delay(std::string node_name, std::string impl_name,
                   double delay_ms, std::int64_t delay_from_call = 0,
                   std::int64_t max_delays = -1);

    /**
     * Arms corruption injection, independent of the fault and delay
     * matchers (same pattern semantics as arm()). Matching invocations
     * with ordinal >= @p corrupt_from_call have their first output
     * damaged per @p kind after the kernel runs. @p max_corruptions < 0
     * means "no cap".
     */
    void arm_corruption(std::string node_name, std::string impl_name,
                        CorruptionKind kind,
                        std::int64_t corrupt_from_call = 0,
                        std::int64_t max_corruptions = -1);

    /**
     * Arms corruption injection scoped to a *model*: kernel invocations
     * belonging to an engine whose graph name equals @p model_name are
     * corrupted per @p kind, regardless of node or implementation.
     * This is how chaos harnesses forge a bad canary on an injector
     * shared across generations: the incumbent keeps running clean
     * while every step of the named model misbehaves. Matching
     * invocations with ordinal >= @p corrupt_from_call are damaged;
     * @p max_corruptions < 0 means "no cap". Independent of the
     * (node, impl) corruption matcher.
     */
    void arm_model_corruption(std::string model_name, CorruptionKind kind,
                              std::int64_t corrupt_from_call = 0,
                              std::int64_t max_corruptions = -1);

    /** Disarms all matchers and resets all counters. */
    void reset();

    /**
     * Evaluates all matchers for one kernel invocation under one lock
     * acquisition and advances their counters together. This is the
     * engine's only entry point: it keeps the per-invocation schedule
     * coherent when multiple pool replicas share one injector and a
     * chaos harness re-arms it concurrently. @p model_name is the
     * executing engine's graph name (consulted by the model-corruption
     * matcher only; "" never matches it). Node/impl corruption wins
     * over model corruption, and the model matcher counts an
     * invocation only when node/impl corruption did not fire.
     */
    InjectionDecision decide(const std::string &node_name,
                             const std::string &impl_name,
                             const std::string &model_name = std::string());

    /** Total faults injected since the last arm()/reset(). */
    std::int64_t faults_injected() const;

    /** Matching kernel invocations observed since the last arm(). */
    std::int64_t calls_seen() const;

    /** Total delays injected since the last arm_delay()/reset(). */
    std::int64_t delays_injected() const;

    /** Invocations matching the delay pattern since the last
     *  arm_delay(). */
    std::int64_t delay_calls_seen() const;

    /** Total corruptions injected since the last
     *  arm_corruption()/reset(). */
    std::int64_t corruptions_injected() const;

    /** Invocations matching the corruption pattern since the last
     *  arm_corruption(). */
    std::int64_t corruption_calls_seen() const;

  private:
    /**
     * One armed pattern: an invocation matches when each non-empty name
     * equals the invocation's. Matching invocations are counted from 0;
     * those with ordinal >= from_call fire until max_hits is reached
     * (< 0: no cap). A default-constructed matcher is disarmed.
     */
    struct Matcher {
        bool armed = false;
        std::string node_name;
        std::string impl_name;
        std::int64_t from_call = 0;
        std::int64_t max_hits = -1;
        std::int64_t calls_seen = 0;
        std::int64_t hits = 0;

        /** Counts a matching invocation; true when it fires. */
        bool fire(const std::string &node, const std::string &impl);
    };

    mutable std::mutex mutex_;
    Matcher fault_;
    Matcher delay_;
    Matcher corruption_;
    /** node_name holds the model name; impl_name is unused. */
    Matcher model_corruption_;
    /** What a firing matcher injects (stale but inert once disarmed). */
    double delay_ms_ = 0;
    CorruptionKind corruption_kind_ = CorruptionKind::kNone;
    CorruptionKind model_corruption_kind_ = CorruptionKind::kNone;
};

} // namespace orpheus
