/**
 * @file
 * The inference engine: compiles a Graph into an executable plan and
 * runs it.
 *
 * Compilation pipeline (all plan-time, nothing is deferred to run()):
 *   1. validate + (optionally) simplify the graph,
 *   2. infer every value's shape/dtype,
 *   3. plan intermediate-activation memory into one shared arena,
 *   4. select one kernel implementation per node (heuristic, pinned or
 *      auto-tuned) and instantiate its Layer.
 *
 * run() then walks the plan copying nothing but the user's inputs and
 * the requested outputs, and accumulates every step's wall-clock time in
 * its PlanStep (always on: one clock read per step boundary).
 */
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend_config.hpp"
#include "backend/kernel_registry.hpp"
#include "graph/graph.hpp"
#include "graph/passes/pass.hpp"
#include "graph/shape_inference.hpp"
#include "runtime/deadline.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/guard.hpp"
#include "runtime/memory_planner.hpp"
#include "runtime/selection.hpp"
#include "runtime/watchdog.hpp"

namespace orpheus {

struct EngineOptions {
    BackendConfig backend;

    /** Run the standard simplification pipeline before compiling. */
    bool apply_simplifications = true;

    SelectionStrategy selection = SelectionStrategy::kHeuristic;
    int autotune_runs = 3;

    /**
     * Place intermediates in the planned arena. Disabling gives every
     * intermediate its own allocation (the ablation baseline).
     */
    bool use_memory_planner = true;

    /**
     * Run the kernel-preparation stage at plan time: each layer builds
     * its prepacked constant caches (packed weights, Winograd U,
     * quantized row sums) once and reserves per-invocation scratch in
     * the engine-owned workspace segment, making steady-state run()
     * allocation-free inside kernels. Disabling reverts to per-call
     * packing and self-managed scratch (the ablation baseline the
     * prepared-vs-unprepared benchmarks measure against).
     */
    bool prepare_kernels = true;

    /**
     * Optional shared cache for the immutable prepacked constant
     * tensors the prepare stage builds. An engine pool passes the same
     * cache to every replica so packed weights, Winograd U and
     * quantized row sums are allocated exactly once per model, not per
     * replica; a standalone engine leaves this null and layers build
     * private packs.
     */
    std::shared_ptr<ConstantPackCache> pack_cache;

    /**
     * Optional fault-injection hook, consulted before every kernel
     * invocation; used to test the fallback policy (and by chaos-style
     * robustness harnesses). Null disables injection.
     */
    std::shared_ptr<FaultInjector> fault_injector;

    /**
     * Optional execution trace sink: when set, run() publishes the
     * in-flight request and the index and start time of the running
     * step, so an external Watchdog can detect hung steps and cancel
     * the request. The start time is the step's timing clock read.
     * Null disables publishing.
     */
    std::shared_ptr<ExecutionMonitor> execution_monitor;

    /**
     * Guarded execution (guard.hpp): output scanning, sampled shadow
     * execution and breaker recovery. Disabled by default. Kernel
     * faults and watchdog demotions always route through the step's
     * circuit breaker; with the guard disabled it opens on the first
     * fault and never half-opens (a permanent fallback to the
     * reference kernel until restore_step).
     */
    GuardPolicy guard;

    /**
     * Largest number of requests one run may coalesce along the leading
     * (batch) dimension. With max_batch > 1 the engine compiles the
     * graph once at the bucket size — every batch-carrying value's
     * leading extent scaled by max_batch, arena and workspace planned
     * at that size — and run_batch() then serves any n ≤ max_batch by
     * shrinking the carrying tensors' leading extent in place (row-major
     * contiguity keeps the first n sample blocks dense). Graphs whose
     * values cannot all be classified as batch-invariant or
     * batch-carrying (or that mix samples across the batch axis, e.g.
     * Softmax/Concat on axis 0) fall back to capacity 1 with a logged
     * reason. 1 disables batching.
     */
    int max_batch = 1;
};

/** One executable step of the compiled plan: what it is, which kernel
 *  runs it, its breaker health and its accumulated timing. */
struct PlanStep {
    std::string node_name;
    std::string op_type;
    std::unique_ptr<Layer> layer;
    std::vector<const Tensor *> inputs; ///< nullptr for omitted optionals.
    std::vector<Tensor *> outputs;
    /** Value names of the outputs (index-aligned with outputs). */
    std::vector<std::string> output_names;
    Shape output_shape;
    /** Plan-time init, retained so the reference implementation can be
     *  instantiated without recompiling. */
    LayerInit init;

    // --- Timing (every run() / run_batch(); not run_step()) ---------------
    /** Plan executions that completed this step since the last
     *  Engine::reset_timings(). A fused run_batch() counts once. */
    std::int64_t calls = 0;
    /** Wall-clock milliseconds accumulated over those calls. */
    double total_ms = 0.0;

    // --- Guarded execution ------------------------------------------------
    /** Reference fallback impl ("" when no alternative exists). */
    std::string reference_impl;
    /** Lazily instantiated reference layer, cached for shadow runs,
     *  guard confirmations and breaker-open routing. */
    std::unique_ptr<Layer> reference_layer;
    /** Circuit-breaker state and trip counters (guard mode). */
    StepHealth health;
    /** Primary invocations of this step (drives shadow sampling). */
    std::uint64_t invocations = 0;

    /** The impl that runs next: the reference while the breaker is
     *  open, the plan-time layer (what restore_step() re-promotes)
     *  otherwise. */
    const std::string &
    active_impl() const
    {
        return health.state == BreakerState::kOpen ? reference_impl
                                                   : layer->impl_name();
    }

    /** True while the step's circuit breaker is not closed (open, or a
     *  half-open probe pending). */
    bool degraded() const { return health.state != BreakerState::kClosed; }
};

class Engine
{
  public:
    /** Compiles @p graph. Throws orpheus::Error on unsupported ops,
     *  invalid graphs or impossible kernel pins. */
    explicit Engine(Graph graph, EngineOptions options = {});

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    // --- Execution --------------------------------------------------------

    /**
     * Runs one inference. @p inputs must provide a tensor of the
     * declared shape and dtype for every graph input (validated up
     * front; a mismatch throws orpheus::Error naming the offending
     * input); returns one tensor (a private copy) per graph output.
     *
     * @p deadline, when valid, is checked at every plan-step boundary
     * and threaded into parallel kernels, which cancel cooperatively at
     * tile boundaries; an expired or cancelled token raises
     * DeadlineExceededError (never the fallback path).
     */
    std::map<std::string, Tensor>
    run(const std::map<std::string, Tensor> &inputs,
        const DeadlineToken &deadline = {});

    /** Single-input / single-output convenience overload. */
    Tensor run(const Tensor &input);

    /**
     * Non-throwing variant of run() for API boundaries that must not
     * propagate exceptions: input-validation failures surface as
     * kInvalidArgument, an expired deadline or cancelled request as
     * kDeadlineExceeded, a confirmed guard trip as kDataCorruption,
     * kernel failures that exhaust the fallback policy as kInternal.
     * @p outputs is assigned only on success.
     */
    Status try_run(const std::map<std::string, Tensor> &inputs,
                   std::map<std::string, Tensor> &outputs,
                   const DeadlineToken &deadline = {});

    /**
     * Runs @p requests (1 ≤ n ≤ batch_capacity()) fused into a single
     * pass over the plan: request r's inputs are gathered into sample
     * block r of each batch-carrying input tensor, the plan executes
     * once at active batch n, and each request's outputs are scattered
     * back as private per-request copies in its declared (per-request)
     * shapes. Per-sample kernels make the fused result bitwise
     * identical to n sequential run() calls. Requests are validated
     * against the per-request signature up front. Throws like run();
     * a failure is reported for the batch as a whole (callers split
     * and re-dispatch to attribute it).
     */
    std::vector<std::map<std::string, Tensor>>
    run_batch(const std::vector<const std::map<std::string, Tensor> *>
                  &requests,
              const DeadlineToken &deadline = {});

    /** Non-throwing run_batch with the same status mapping as
     *  try_run(). @p outputs is assigned only on success. */
    Status
    try_run_batch(const std::vector<const std::map<std::string, Tensor> *>
                      &requests,
                  std::vector<std::map<std::string, Tensor>> &outputs,
                  const DeadlineToken &deadline = {});

    /**
     * Validates @p inputs against the per-request signature without
     * running: every declared input must be present with the declared
     * shape and dtype. Unknown extra entries are ignored.
     */
    Status validate_inputs(const std::map<std::string, Tensor> &inputs) const;

    /** Executes only step @p index (inputs must already be in place from
     *  a previous full run); used by the per-layer benchmark harness. */
    void run_step(std::size_t index);

    /**
     * Demotes step @p index to its reference fallback kernel, exactly
     * as a thrown KernelFault would: records a fault and opens the
     * step's circuit breaker. Used by the watchdog to retire a backend
     * that hung. With guarding enabled a half-open probe can
     * re-promote the fast kernel after the cool-down. Not thread-safe
     * against a concurrent run() on this engine — callers (the
     * service) serialize per engine. Throws orpheus::Error when no
     * alternative implementation exists.
     */
    void demote_step(std::size_t index, const std::string &reason);

    /**
     * Reverses demote_step / a tripped breaker: re-promotes the kernel
     * selected at plan time and closes the breaker. The half-open probe
     * path calls this after a clean verification; it is also the manual
     * operator override. Same thread-safety contract as demote_step.
     */
    void restore_step(std::size_t index);

    /**
     * Replaces the guard policy. Takes effect on the next run(); not
     * thread-safe against a concurrent run() on this engine.
     */
    void set_guard_policy(const GuardPolicy &policy)
    {
        options_.guard = policy;
    }

    // --- Introspection ----------------------------------------------------

    const Graph &graph() const { return graph_; }
    const EngineOptions &options() const { return options_; }
    const std::vector<PlanStep> &steps() const { return steps_; }
    const ValueInfoMap &value_infos() const { return infos_; }

    /**
     * Requests one run_batch() call can fuse. Equal to
     * EngineOptions::max_batch when the graph proved batchable, 1
     * otherwise (see batch_fallback_reason()).
     */
    std::int64_t batch_capacity() const { return batch_capacity_; }

    /** Why batch_capacity() fell back to 1 ("" when it did not). */
    const std::string &batch_fallback_reason() const
    {
        return batch_fallback_reason_;
    }

    /**
     * The per-request signature: the graph's declared inputs/outputs
     * as loaded, before any batch rewrite scaled the compiled graph's
     * leading extents. This is what one request of a (possibly fused)
     * run provides and receives — pools and registries that probe or
     * gate single requests must use these, not graph().inputs().
     */
    const std::vector<ValueInfo> &request_inputs() const
    {
        return request_inputs_;
    }
    const std::vector<ValueInfo> &request_outputs() const
    {
        return request_outputs_;
    }

    /** Zeroes every step's accumulated timing (PlanStep::calls and
     *  total_ms). */
    void reset_timings();

    /** Arena bytes used for intermediates (0 when the planner is off). */
    std::size_t arena_bytes() const { return memory_plan_.arena_size; }

    /** Sum of intermediate sizes without reuse. */
    std::size_t naive_arena_bytes() const { return memory_plan_.naive_size; }

    /**
     * Peak activation bytes one request needs (arena or per-value
     * intermediates, plus dedicated input/output storage and the kernel
     * workspace segment). Admission control compares this against a
     * request's memory budget.
     */
    std::size_t request_footprint_bytes() const
    {
        return request_footprint_bytes_;
    }

    /** Bytes of the shared kernel workspace segment (0 when kernel
     *  preparation is disabled or no layer needs scratch). */
    std::size_t workspace_bytes() const
    {
        return memory_plan_.workspace_bytes;
    }

    /**
     * Bytes of prepacked constant caches this engine's layers
     * reference. With a shared pack cache attached the storage itself
     * is counted once in ConstantPackCache::bytes() however many
     * replicas reference it; this accessor reports this engine's view
     * for footprint introspection.
     */
    std::size_t constant_pack_bytes() const
    {
        return memory_plan_.constant_pack_bytes;
    }

    /** Auto-tune measurements per node (empty unless kAutoTune). */
    const std::map<std::string,
                   std::vector<std::pair<std::string, double>>> &
    autotune_log() const
    {
        return autotune_log_;
    }

    /** Simplification statistics from compile time. */
    const PassManagerReport &simplification_report() const
    {
        return simplification_report_;
    }

    /** One line per plan step: node, op, impl, output shape. */
    std::string plan_summary() const;

  private:
    void compile();
    Tensor *value_tensor(const std::string &name);

    /**
     * Attempts the max_batch graph rewrite: scales every graph input's
     * leading extent by max_batch, re-infers shapes, and classifies
     * every value as batch-invariant (shape unchanged) or
     * batch-carrying (leading extent scaled, trailing extents equal).
     * Rejects graphs with unclassifiable values, non-carrying
     * inputs/outputs, or ops that mix samples across axis 0; rejection
     * restores the per-request shapes and leaves batch_capacity_ at 1.
     */
    void attempt_batch_rewrite();

    /** Shrinks/expands every batch-carrying tensor's leading extent to
     *  @p n times its per-request extent (storage is planned at
     *  batch_capacity_, so any n ≤ capacity fits in place). */
    void set_active_batch(std::int64_t n);

    /** The monitor-wrapped, timed step loop shared by run() and
     *  run_batch() (inputs already staged in values_). */
    void execute_plan(const DeadlineToken &deadline);

    /**
     * Runs @p layer's preparation stage (when prepare_kernels is on) and
     * raises the planned workspace size to its reservation. Called at
     * plan time for every step and when a reference layer is
     * instantiated; bind_workspace_all() then allocates.
     */
    void prepare_layer(Layer &layer);

    /**
     * Allocates the shared workspace segment when the planned size
     * exceeds the current one, and hands the view to every instantiated
     * layer (plan layers and cached reference layers). Compile calls it
     * once after preparing every step, so the segment is allocated once
     * at its final size instead of regrown layer by layer.
     */
    void bind_workspace_all();

    /** Executes step @p index, which began at @p started, with
     *  deadline checks, fault/delay injection, the circuit breaker and
     *  (guard mode) output scanning and shadow sampling (see
     *  guard.hpp). */
    void execute_step(std::size_t index, const DeadlineToken &deadline,
                      std::chrono::steady_clock::time_point started);

    // --- Guard internals --------------------------------------------------

    /** The step's cached reference layer (instantiated on first use);
     *  throws orpheus::Error when the step has no alternative. */
    Layer &reference_layer(PlanStep &step);

    /** Scans the step's outputs; on a hit, re-runs on the reference
     *  implementation to confirm. Returns the confirmed verdict
     *  (kNone when clean or when the hit is the model's legitimate
     *  output). */
    GuardVerdict confirm_outputs(PlanStep &step);

    /** Runs the reference implementation into scratch tensors and
     *  compares; on divergence copies the reference result into the
     *  step's outputs and returns the verdict. */
    GuardVerdict run_shadow(PlanStep &step);

    /** Records a confirmed trip/fault against the breaker; opens it
     *  when the threshold is crossed (the first fault with the guard
     *  off) or a probe failed. */
    void record_trip(std::size_t index, GuardTrip kind,
                     const std::string &reason);

    /** Opens the breaker: routes the step to the reference kernel and
     *  starts the cool-down. */
    void open_breaker(std::size_t index, const std::string &reason);

    Graph graph_;
    EngineOptions options_;
    ValueInfoMap infos_;
    MemoryPlan memory_plan_;
    std::size_t request_footprint_bytes_ = 0;
    PassManagerReport simplification_report_;

    // --- Dynamic batching -------------------------------------------------
    /** Declared per-request signature, captured before the batch
     *  rewrite (== graph_.inputs()/outputs() when capacity is 1). */
    std::vector<ValueInfo> request_inputs_;
    std::vector<ValueInfo> request_outputs_;
    std::int64_t batch_capacity_ = 1;
    std::int64_t active_batch_ = 1;
    std::string batch_fallback_reason_;
    /** Per-request leading extent of every batch-carrying value. */
    std::map<std::string, std::int64_t> carrying_base_dim0_;
    /** Carrying tensors resized by set_active_batch (storage-stable
     *  pointers into values_). */
    struct BatchBinding {
        Tensor *tensor;
        std::int64_t base_dim0;
    };
    std::vector<BatchBinding> batch_bindings_;
    /** Gather plan: one entry per declared input (all carrying). */
    struct BatchInput {
        std::string name;
        std::size_t sample_bytes;
    };
    std::vector<BatchInput> batch_inputs_;
    /** Scatter plan: one entry per declared output. */
    struct BatchOutput {
        std::string name;
        bool carrying;
        Shape base_shape;
        DataType dtype = DataType::kFloat32;
        std::size_t sample_bytes = 0;
    };
    std::vector<BatchOutput> batch_outputs_;

    std::shared_ptr<Buffer> arena_;
    /** Kernel workspace segment shared by all plan steps (steps run
     *  sequentially). Sized to the maximum per-step reservation. */
    std::shared_ptr<Buffer> workspace_;
    /** Storage for every non-initializer value, keyed by name. */
    std::map<std::string, Tensor> values_;
    std::vector<PlanStep> steps_;
    std::map<std::string, std::vector<std::pair<std::string, double>>>
        autotune_log_;
};

/** Guard counters of one kernel, summed over the plan steps that
 *  selected it: one row of the kernel-health table. */
struct KernelHealth {
    std::int64_t trips = 0;
    std::int64_t faults = 0;
    std::int64_t opens = 0;
    std::int64_t recoveries = 0;
    std::int64_t shadow_runs = 0;
};

/**
 * The kernel-health table of @p engines (e.g. every pool replica):
 * each plan step's StepHealth counters summed by the kernel selected
 * at plan time ("op_type.impl"). Steps without guard activity add no
 * row. Same thread-safety contract as demote_step.
 */
std::map<std::string, KernelHealth>
kernel_health(const std::vector<const Engine *> &engines);

} // namespace orpheus
