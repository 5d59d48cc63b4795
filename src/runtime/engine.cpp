#include "runtime/engine.hpp"

#include <sstream>

#include "core/logging.hpp"

namespace orpheus {

Engine::Engine(Graph graph, EngineOptions options)
    : graph_(std::move(graph)), options_(options)
{
    compile();
}

void
Engine::compile()
{
    graph_.validate();
    if (options_.apply_simplifications)
        simplification_report_ = simplify_graph(graph_);

    // The per-request signature is what one request provides/receives
    // regardless of any batch rewrite below.
    request_inputs_ = graph_.inputs();
    request_outputs_ = graph_.outputs();

    infos_ = infer_shapes(graph_);
    if (options_.max_batch > 1)
        attempt_batch_rewrite();
    const std::vector<std::size_t> order = graph_.topological_order();

    // --- Storage ----------------------------------------------------------
    // Graph inputs and outputs always get dedicated allocations; other
    // intermediates live in the planned arena (or, with the planner off,
    // in per-value allocations).
    for (const ValueInfo &input : graph_.inputs())
        values_.emplace(input.name, Tensor(input.shape, input.dtype));

    // The plan is always computed — admission control needs the
    // request footprint either way — but the arena is only allocated
    // (and memory_plan_ retained) when the planner is enabled, so the
    // ablation baseline still reports arena_bytes() == 0.
    MemoryPlan plan = plan_memory(graph_, infos_, order);
    request_footprint_bytes_ = ::orpheus::request_footprint_bytes(
        plan, options_.use_memory_planner);
    if (options_.use_memory_planner) {
        memory_plan_ = std::move(plan);
        arena_ = Buffer::allocate(memory_plan_.arena_size);
    }

    for (std::size_t index : order) {
        const Node &node = graph_.nodes()[index];
        for (const std::string &out : node.outputs()) {
            const ValueInfo &info = infos_.at(out);
            if (options_.use_memory_planner &&
                memory_plan_.slots.count(out) > 0) {
                const ArenaSlot &slot = memory_plan_.slots.at(out);
                auto view = Buffer::wrap(
                    static_cast<char *>(arena_->data()) + slot.offset,
                    slot.size);
                values_.emplace(out,
                                Tensor(info.shape, info.dtype,
                                       std::move(view)));
            } else {
                values_.emplace(out, Tensor(info.shape, info.dtype));
            }
        }
    }
    // Graph outputs that are directly an input or initializer (degenerate
    // but legal) still need storage for run() to copy from.
    for (const ValueInfo &output : graph_.outputs()) {
        if (values_.count(output.name) == 0 &&
            !graph_.has_initializer(output.name)) {
            const ValueInfo &info = infos_.at(output.name);
            values_.emplace(output.name, Tensor(info.shape, info.dtype));
        }
    }

    // --- Batch gather/scatter plans ---------------------------------------
    if (batch_capacity_ > 1) {
        for (const auto &[name, base_dim0] : carrying_base_dim0_) {
            auto it = values_.find(name);
            if (it != values_.end())
                batch_bindings_.push_back({&it->second, base_dim0});
        }
        for (const ValueInfo &input : request_inputs_) {
            std::uint64_t bytes = 0;
            ORPHEUS_CHECK(input.shape.checked_byte_size(
                              dtype_size(input.dtype), bytes),
                          "input " << input.name << " byte size overflows");
            batch_inputs_.push_back(
                {input.name, static_cast<std::size_t>(bytes)});
        }
        for (const ValueInfo &output : request_outputs_) {
            BatchOutput out;
            out.name = output.name;
            out.carrying = carrying_base_dim0_.count(output.name) > 0;
            if (out.carrying) {
                const ValueInfo &info = infos_.at(output.name);
                out.dtype = info.dtype;
                out.base_shape = info.shape;
                out.base_shape.set_dim(
                    0, carrying_base_dim0_.at(output.name));
                std::uint64_t bytes = 0;
                ORPHEUS_CHECK(out.base_shape.checked_byte_size(
                                  dtype_size(out.dtype), bytes),
                              "output " << output.name
                                        << " byte size overflows");
                out.sample_bytes = static_cast<std::size_t>(bytes);
            }
            batch_outputs_.push_back(std::move(out));
        }
    }

    // --- Kernel selection + layer instantiation ---------------------------
    KernelRegistry &registry = KernelRegistry::instance();
    steps_.reserve(order.size());
    for (std::size_t index : order) {
        const Node &node = graph_.nodes()[index];

        LayerInit init;
        init.node = &node;
        init.config = &options_.backend;
        init.input_infos.reserve(node.inputs().size());
        init.constant_inputs.reserve(node.inputs().size());
        for (const std::string &in : node.inputs()) {
            if (in.empty()) {
                init.input_infos.push_back(ValueInfo{});
                init.constant_inputs.push_back(nullptr);
            } else {
                init.input_infos.push_back(infos_.at(in));
                init.constant_inputs.push_back(
                    graph_.has_initializer(in) ? &graph_.initializer(in)
                                               : nullptr);
            }
        }
        for (const std::string &out : node.outputs())
            init.output_infos.push_back(infos_.at(out));

        SelectionResult selection = select_kernel(
            registry, init, options_.selection, options_.autotune_runs);
        if (!selection.measurements.empty())
            autotune_log_[node.name()] = selection.measurements;

        PlanStep step;
        step.node_name = node.name();
        step.op_type = node.op_type();
        step.layer = registry.instantiate(*selection.kernel, init);
        prepare_layer(*step.layer);
        for (const std::string &in : node.inputs()) {
            if (in.empty()) {
                step.inputs.push_back(nullptr);
            } else if (graph_.has_initializer(in)) {
                step.inputs.push_back(&graph_.initializer(in));
            } else {
                step.inputs.push_back(value_tensor(in));
            }
        }
        for (const std::string &out : node.outputs()) {
            step.outputs.push_back(value_tensor(out));
            step.output_names.push_back(out);
        }
        step.output_shape = init.output_infos.front().shape;
        const KernelDef *fallback = select_fallback_kernel(
            registry, init, selection.kernel->impl_name);
        step.reference_impl =
            fallback != nullptr ? fallback->impl_name : std::string();

        ORPHEUS_DEBUG("plan step " << steps_.size() << ": "
                                   << step.node_name << " -> "
                                   << step.layer->impl_name());
        step.init = std::move(init);
        steps_.push_back(std::move(step));
    }

    bind_workspace_all();
}

void
Engine::attempt_batch_rewrite()
{
    const std::int64_t factor = options_.max_batch;
    const ValueInfoMap base = infos_;
    std::string reason;

    for (const ValueInfo &input : graph_.inputs()) {
        if (input.shape.rank() < 1) {
            reason = "input '" + input.name + "' is rank-0";
            break;
        }
    }

    ValueInfoMap batched;
    if (reason.empty()) {
        for (ValueInfo &input : graph_.inputs())
            input.shape.set_dim(0, input.shape.dim(0) * factor);
        try {
            batched = infer_shapes(graph_);
        } catch (const std::exception &error) {
            reason = std::string("shape inference at batch ") +
                     std::to_string(factor) + " failed: " + error.what();
        }
    }

    // Classify every value: batch-invariant (shape unchanged) or
    // batch-carrying (leading extent scaled by the factor, trailing
    // extents equal). Anything else means the graph folds the batch
    // extent into other dimensions and cannot be shrunk in place.
    if (reason.empty()) {
        for (const auto &[name, info] : batched) {
            if (graph_.has_initializer(name))
                continue;
            const ValueInfo &b = base.at(name);
            if (info.dtype == b.dtype && info.shape == b.shape)
                continue;
            bool carrying = info.dtype == b.dtype &&
                            info.shape.rank() == b.shape.rank() &&
                            info.shape.rank() >= 1 &&
                            info.shape.dim(0) == b.shape.dim(0) * factor;
            for (int d = 1; carrying &&
                            d < static_cast<int>(info.shape.rank());
                 ++d)
                carrying = info.shape.dim(d) == b.shape.dim(d);
            if (!carrying) {
                std::ostringstream out;
                out << "value '" << name << "' is neither batch-invariant"
                    << " nor batch-carrying (" << b.shape << " -> "
                    << info.shape << " at batch " << factor << ")";
                reason = out.str();
                break;
            }
            carrying_base_dim0_[name] = b.shape.dim(0);
        }
    }

    // Every request input and output must carry the batch, or requests
    // could not be gathered/scattered per sample block.
    if (reason.empty()) {
        for (const ValueInfo &input : request_inputs_)
            if (carrying_base_dim0_.count(input.name) == 0) {
                reason = "input '" + input.name + "' does not carry the "
                                                  "batch extent";
                break;
            }
    }
    if (reason.empty()) {
        for (const ValueInfo &output : request_outputs_)
            if (!graph_.has_initializer(output.name) &&
                carrying_base_dim0_.count(output.name) == 0) {
                reason = "output '" + output.name + "' does not carry "
                                                    "the batch extent";
                break;
            }
    }

    // Shape-preserving ops that nonetheless mix samples when applied
    // across axis 0 — shape classification alone cannot see these.
    if (reason.empty()) {
        for (const Node &node : graph_.nodes()) {
            const std::string &op = node.op_type();
            std::int64_t default_axis = 0;
            if (op == op_names::kSoftmax)
                default_axis = -1;
            else if (op == op_names::kConcat)
                default_axis = 1;
            else if (op != op_names::kArgMax &&
                     op != op_names::kReduceMean)
                continue;
            bool carrying_input = false;
            for (const std::string &in : node.inputs())
                carrying_input |= carrying_base_dim0_.count(in) > 0;
            if (!carrying_input)
                continue;
            const Shape &in_shape =
                batched.at(node.inputs().front()).shape;
            bool mixes = false;
            if (op == op_names::kReduceMean) {
                for (std::int64_t axis :
                     node.attrs().get_ints("axes", {}))
                    mixes |= in_shape.normalize_axis(
                                 static_cast<int>(axis)) == 0;
            } else {
                mixes = in_shape.normalize_axis(static_cast<int>(
                            node.attrs().get_int("axis",
                                                 default_axis))) == 0;
            }
            if (mixes) {
                reason = op + " node '" + node.name() +
                         "' operates on the batch axis";
                break;
            }
        }
    }

    if (!reason.empty()) {
        graph_.inputs() = request_inputs_;
        carrying_base_dim0_.clear();
        batch_fallback_reason_ = reason;
        ORPHEUS_WARN("engine " << graph_.name() << ": max_batch=" << factor
                               << " requested but the graph is not"
                               << " batchable (" << reason
                               << "); compiling at batch 1");
        return;
    }

    // Declared output shapes (when present) must match the compiled
    // plan, so scale their carrying extents too; the per-request
    // signature kept the originals.
    for (ValueInfo &output : graph_.outputs())
        if (output.shape.rank() >= 1 &&
            carrying_base_dim0_.count(output.name) > 0)
            output.shape.set_dim(0, output.shape.dim(0) * factor);

    infos_ = std::move(batched);
    batch_capacity_ = factor;
    // Value tensors are allocated at the rewritten (full-capacity)
    // shapes, so that is the active batch until the first shrink; a
    // stale `1` here would make set_active_batch(1) no-op and leave
    // every n=1 run computing the whole capacity batch.
    active_batch_ = factor;
}

void
Engine::set_active_batch(std::int64_t n)
{
    if (n == active_batch_)
        return;
    for (const BatchBinding &binding : batch_bindings_)
        binding.tensor->set_leading_dim(binding.base_dim0 * n);
    active_batch_ = n;
}

void
Engine::prepare_layer(Layer &layer)
{
    if (!options_.prepare_kernels)
        return;
    PlanContext ctx(options_.pack_cache.get());
    layer.prepare(ctx);
    memory_plan_.constant_pack_bytes += ctx.pack_bytes();
    const std::size_t required = ctx.workspace_bytes();
    if (required > memory_plan_.workspace_bytes) {
        request_footprint_bytes_ +=
            required - memory_plan_.workspace_bytes;
        memory_plan_.workspace_bytes = required;
    }
}

void
Engine::bind_workspace_all()
{
    if (memory_plan_.workspace_bytes >
        (workspace_ != nullptr ? workspace_->size() : 0))
        workspace_ = Buffer::allocate(memory_plan_.workspace_bytes);
    const Workspace view =
        workspace_ != nullptr
            ? Workspace(workspace_->data(), memory_plan_.workspace_bytes)
            : Workspace();
    for (PlanStep &step : steps_) {
        if (step.layer != nullptr)
            step.layer->bind_workspace(view);
        if (step.reference_layer != nullptr)
            step.reference_layer->bind_workspace(view);
    }
}

Tensor *
Engine::value_tensor(const std::string &name)
{
    auto it = values_.find(name);
    ORPHEUS_ASSERT(it != values_.end(), "no storage for value " << name);
    return &it->second;
}

Status
Engine::validate_inputs(const std::map<std::string, Tensor> &inputs) const
{
    for (const ValueInfo &declared : request_inputs_) {
        auto provided = inputs.find(declared.name);
        if (provided == inputs.end())
            return invalid_argument_error("missing graph input '" +
                                          declared.name + "'");
        const Tensor &tensor = provided->second;
        if (tensor.dtype() != declared.dtype) {
            std::ostringstream out;
            out << "graph input '" << declared.name
                << "': dtype mismatch, expected " << declared.dtype
                << ", got " << tensor.dtype();
            return invalid_argument_error(out.str());
        }
        if (tensor.shape() != declared.shape) {
            std::ostringstream out;
            out << "graph input '" << declared.name
                << "': shape mismatch, expected " << declared.shape
                << ", got " << tensor.shape();
            return invalid_argument_error(out.str());
        }
        if (!tensor.has_storage())
            return invalid_argument_error("graph input '" + declared.name +
                                          "' has no backing storage");
    }
    return Status::ok();
}

void
Engine::execute_step(std::size_t index, const DeadlineToken &deadline,
                     std::chrono::steady_clock::time_point started)
{
    PlanStep &step = steps_[index];
    if (deadline.expired())
        throw DeadlineExceededError("deadline expired before node " +
                                    step.node_name);

    const GuardPolicy &policy = options_.guard;
    StepHealth &health = step.health;

    // Breaker maintenance: a cooled-down open breaker half-opens, and
    // this invocation becomes the probe of the fast kernel. Without the
    // guard there is no probe verification, so an open breaker stays
    // open.
    if (health.state == BreakerState::kOpen && policy.enabled &&
        policy.allow_recovery) {
        const std::chrono::duration<double, std::milli> open_for =
            started - health.opened_at;
        if (open_for.count() >= policy.cooldown_ms) {
            health.state = BreakerState::kHalfOpen;
            ORPHEUS_WARN("guard: half-open probe of "
                         << step.op_type << "." << step.layer->impl_name()
                         << " on node " << step.node_name << " after "
                         << open_for.count() << " ms cool-down");
        }
    }

    const bool routed_to_reference =
        health.state == BreakerState::kOpen;
    Layer &active =
        routed_to_reference ? reference_layer(step) : *step.layer;
    ++step.invocations;

    ExecutionMonitor *monitor = options_.execution_monitor.get();
    if (monitor != nullptr)
        monitor->begin_step(index, started);
    struct EndStep {
        ExecutionMonitor *monitor;
        ~EndStep()
        {
            if (monitor != nullptr)
                monitor->end_step();
        }
    } end_step{monitor};

    // Kernels reach the deadline through the thread-local cancellation
    // hook: parallel_for splits chunks into tiles and checks it at
    // every tile boundary.
    ScopedDeadline cancel_scope(deadline);
    try {
        FaultInjector *injector = options_.fault_injector.get();
        // One decide() call per invocation: the whole injection schedule
        // for this step is resolved atomically, so a concurrent re-arm
        // (pool chaos harnesses) cannot hand us a torn verdict.
        InjectionDecision injection;
        if (injector != nullptr) {
            injection = injector->decide(step.node_name, active.impl_name(),
                                         graph_.name());
            if (injection.delay_ms > 0)
                cooperative_delay_ms(injection.delay_ms, deadline);
            if (injection.fail)
                throw KernelFault("injected fault in node " +
                                  step.node_name + " (" +
                                  active.impl_name() + ")");
        }
        active.forward(step.inputs, step.outputs);
        if (injector != nullptr)
            apply_corruption(injection.corruption, *step.outputs.front());
    } catch (const DeadlineExceededError &) {
        throw; // Never a trip: cancelled, not wrong.
    } catch (const std::exception &fault) {
        if (routed_to_reference || step.reference_impl.empty())
            throw Error("kernel " + step.op_type + "." +
                        active.impl_name() + " failed on node " +
                        step.node_name + " (" + fault.what() +
                        ") and no fallback implementation is registered");
        record_trip(index, GuardTrip::kFault, fault.what());
        // Retry on the reference; a second failure propagates. The
        // reference output is the trusted root — no scan needed.
        reference_layer(step).forward(step.inputs, step.outputs);
        return;
    }

    if (!policy.enabled)
        return;

    if (routed_to_reference) {
        // The reference is the trusted root; scanning it is opt-in and
        // fail-stop (there is nothing left to confirm against).
        if (policy.flag_reference_outputs) {
            for (std::size_t i = 0; i < step.outputs.size(); ++i) {
                const GuardVerdict verdict =
                    scan_output(*step.outputs[i], policy);
                if (!verdict.ok())
                    throw DataCorruptionError(
                        "reference kernel " + step.op_type + "." +
                        step.reference_impl + " on node " +
                        step.node_name + ": " + verdict.detail);
            }
        }
        return;
    }

    GuardVerdict verdict = confirm_outputs(step);
    // A half-open probe is always shadow-verified before the breaker
    // may close: a NaN scan alone cannot see a finite wrong answer.
    // The step index staggers the sampling phase so one run does not
    // shadow every step at once (all counters advance in lockstep).
    const bool shadow_due =
        health.state == BreakerState::kHalfOpen ||
        (policy.shadow_every_n > 0 &&
         (step.invocations + index) % static_cast<std::uint64_t>(
                                          policy.shadow_every_n) == 0);
    if (verdict.ok() && shadow_due && !step.reference_impl.empty())
        verdict = run_shadow(step);

    if (!verdict.ok()) {
        const std::string reason =
            std::string(to_string(verdict.trip)) + ": " + verdict.detail;
        record_trip(index, verdict.trip, reason);
        if (policy.fail_on_corruption)
            throw DataCorruptionError("node " + step.node_name + " (" +
                                      step.op_type + "." +
                                      step.layer->impl_name() +
                                      "): " + reason);
        // Availability mode: the outputs already hold the reference
        // result (confirm/shadow corrected them); keep running.
        return;
    }

    health.consecutive_trips = 0;
    if (health.state == BreakerState::kHalfOpen) {
        // Probe passed a full verification: re-promote the fast kernel.
        restore_step(index);
        ORPHEUS_WARN("guard: probe of " << step.op_type << "."
                                        << step.layer->impl_name()
                                        << " on node " << step.node_name
                                        << " clean; breaker closed");
    }
}

Layer &
Engine::reference_layer(PlanStep &step)
{
    if (step.reference_layer == nullptr) {
        ORPHEUS_CHECK(!step.reference_impl.empty(),
                      "node " << step.node_name
                              << " has no reference fallback kernel");
        KernelRegistry &registry = KernelRegistry::instance();
        const KernelDef *def =
            registry.find(step.op_type, step.reference_impl);
        ORPHEUS_CHECK(def != nullptr, "reference kernel "
                                          << step.op_type << "."
                                          << step.reference_impl
                                          << " is no longer registered");
        step.reference_layer = registry.instantiate(*def, step.init);
        prepare_layer(*step.reference_layer);
        bind_workspace_all();
    }
    return *step.reference_layer;
}

GuardVerdict
Engine::confirm_outputs(PlanStep &step)
{
    const GuardPolicy &policy = options_.guard;
    for (std::size_t i = 0; i < step.outputs.size(); ++i) {
        GuardVerdict verdict = scan_output(*step.outputs[i], policy);
        if (verdict.ok())
            continue;
        verdict.output_index = i;
        if (step.reference_impl.empty()) {
            // No second opinion exists; the policy decides whether the
            // only implementation is trusted.
            return policy.flag_reference_outputs ? verdict
                                                 : GuardVerdict{};
        }
        // Second opinion: re-run on the reference into the live
        // outputs. If it reproduces the hit, the model legitimately
        // produces these values (e.g. a genuine overflow) — not
        // corruption. Either way the outputs now hold the reference
        // result, so downstream steps consume trusted data.
        reference_layer(step).forward(step.inputs, step.outputs);
        const GuardVerdict confirm = scan_output(*step.outputs[i], policy);
        if (!confirm.ok())
            return GuardVerdict{};
        return verdict;
    }
    return GuardVerdict{};
}

GuardVerdict
Engine::run_shadow(PlanStep &step)
{
    const GuardPolicy &policy = options_.guard;
    ++step.health.shadow_runs;

    std::vector<Tensor> scratch;
    std::vector<Tensor *> scratch_ptrs;
    scratch.reserve(step.outputs.size());
    for (const Tensor *output : step.outputs)
        scratch.emplace_back(output->shape(), output->dtype());
    for (Tensor &tensor : scratch)
        scratch_ptrs.push_back(&tensor);
    reference_layer(step).forward(step.inputs, scratch_ptrs);

    for (std::size_t i = 0; i < step.outputs.size(); ++i) {
        const ShadowComparison comparison =
            compare_shadow(*step.outputs[i], scratch[i], policy);
        if (!comparison.diverged)
            continue;
        // Serve the trusted result downstream.
        for (std::size_t j = 0; j < step.outputs.size(); ++j)
            step.outputs[j]->copy_from(scratch[j]);
        GuardVerdict verdict;
        verdict.trip = GuardTrip::kShadowDiverged;
        verdict.output_index = i;
        verdict.element_index = comparison.element_index;
        std::ostringstream detail;
        detail << "fast=" << comparison.fast_value
               << " reference=" << comparison.reference_value
               << " at element " << comparison.element_index
               << " of output " << i;
        verdict.detail = detail.str();
        return verdict;
    }
    return GuardVerdict{};
}

void
Engine::record_trip(std::size_t index, GuardTrip kind,
                    const std::string &reason)
{
    PlanStep &step = steps_[index];
    StepHealth &health = step.health;

    health.last_trip_reason = reason;
    if (kind == GuardTrip::kFault)
        ++health.faults_total;
    else
        ++health.trips_total;
    ORPHEUS_WARN("guard: " << to_string(kind) << " on node "
                           << step.node_name << " (" << step.op_type << "."
                           << step.layer->impl_name() << "): " << reason);

    if (health.state == BreakerState::kHalfOpen) {
        // The probe failed; back to open, cool-down restarts.
        open_breaker(index, "probe failed: " + reason);
        return;
    }
    // Without the guard there is no confirmation step to wait for:
    // the first fault opens the breaker.
    const int open_after =
        options_.guard.enabled ? options_.guard.open_after_trips : 1;
    ++health.consecutive_trips;
    if (health.consecutive_trips >= open_after &&
        !step.reference_impl.empty())
        open_breaker(index, reason);
}

void
Engine::open_breaker(std::size_t index, const std::string &reason)
{
    PlanStep &step = steps_[index];
    StepHealth &health = step.health;
    reference_layer(step); // Throws now if no fallback is registered.

    health.state = BreakerState::kOpen;
    health.opened_at = std::chrono::steady_clock::now();
    ++health.opens_total;
    health.consecutive_trips = 0;
    health.last_trip_reason = reason;
    ORPHEUS_WARN("guard: breaker OPEN for "
                 << step.op_type << "." << step.layer->impl_name()
                 << " on node " << step.node_name << " (" << reason
                 << "); routing to " << step.op_type << "."
                 << step.reference_impl);
}

void
Engine::execute_plan(const DeadlineToken &deadline)
{
    ExecutionMonitor *monitor = options_.execution_monitor.get();
    if (monitor != nullptr)
        monitor->begin_request(deadline);
    struct EndRequest {
        ExecutionMonitor *monitor;
        ~EndRequest()
        {
            if (monitor != nullptr)
                monitor->end_request();
        }
    } end_request{monitor};

    // One clock read per step boundary ends one step's timing and starts
    // the next one's (and the monitor's view of it).
    auto boundary = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < steps_.size(); ++i) {
        execute_step(i, deadline, boundary);
        const auto now = std::chrono::steady_clock::now();
        PlanStep &step = steps_[i];
        ++step.calls;
        step.total_ms +=
            std::chrono::duration<double, std::milli>(now - boundary).count();
        boundary = now;
    }
}

void
Engine::reset_timings()
{
    for (PlanStep &step : steps_) {
        step.calls = 0;
        step.total_ms = 0.0;
    }
}

std::map<std::string, Tensor>
Engine::run(const std::map<std::string, Tensor> &inputs,
            const DeadlineToken &deadline)
{
    if (batch_capacity_ > 1) {
        // A batched plan stages requests through the gather/scatter
        // path even for one request, so the carrying tensors shrink to
        // the true run shape.
        auto results = run_batch({&inputs}, deadline);
        return std::move(results.front());
    }
    validate_inputs(inputs).throw_if_error();
    for (const ValueInfo &declared : graph_.inputs())
        value_tensor(declared.name)->copy_from(inputs.at(declared.name));

    execute_plan(deadline);

    std::map<std::string, Tensor> outputs;
    for (const ValueInfo &output : graph_.outputs()) {
        const Tensor &source = graph_.has_initializer(output.name)
                                   ? graph_.initializer(output.name)
                                   : *value_tensor(output.name);
        outputs.emplace(output.name, source.clone());
    }
    return outputs;
}

std::vector<std::map<std::string, Tensor>>
Engine::run_batch(
    const std::vector<const std::map<std::string, Tensor> *> &requests,
    const DeadlineToken &deadline)
{
    const auto n = static_cast<std::int64_t>(requests.size());
    ORPHEUS_CHECK(n >= 1, "run_batch needs at least one request");
    ORPHEUS_CHECK(n <= batch_capacity_,
                  "run_batch of " << n << " requests exceeds capacity "
                                  << batch_capacity_ << " of graph "
                                  << graph_.name());
    for (std::size_t r = 0; r < requests.size(); ++r) {
        ORPHEUS_CHECK(requests[r] != nullptr,
                      "run_batch request " << r << " is null");
        validate_inputs(*requests[r]).throw_if_error();
    }
    if (batch_capacity_ == 1) {
        std::vector<std::map<std::string, Tensor>> results;
        results.push_back(run(*requests.front(), deadline));
        return results;
    }

    set_active_batch(n);
    for (const BatchInput &input : batch_inputs_) {
        char *dest =
            static_cast<char *>(value_tensor(input.name)->raw_data());
        for (std::size_t r = 0; r < requests.size(); ++r)
            std::memcpy(dest + r * input.sample_bytes,
                        requests[r]->at(input.name).raw_data(),
                        input.sample_bytes);
    }

    execute_plan(deadline);

    std::vector<std::map<std::string, Tensor>> results(requests.size());
    for (const BatchOutput &output : batch_outputs_) {
        if (!output.carrying) {
            const Tensor &source = graph_.initializer(output.name);
            for (std::size_t r = 0; r < requests.size(); ++r)
                results[r].emplace(output.name, source.clone());
            continue;
        }
        const char *source = static_cast<const char *>(
            value_tensor(output.name)->raw_data());
        for (std::size_t r = 0; r < requests.size(); ++r) {
            Tensor slice(output.base_shape, output.dtype);
            std::memcpy(slice.raw_data(),
                        source + r * output.sample_bytes,
                        output.sample_bytes);
            results[r].emplace(output.name, std::move(slice));
        }
    }
    return results;
}

Status
Engine::try_run_batch(
    const std::vector<const std::map<std::string, Tensor> *> &requests,
    std::vector<std::map<std::string, Tensor>> &outputs,
    const DeadlineToken &deadline)
{
    for (const auto *request : requests)
        if (request != nullptr)
            ORPHEUS_RETURN_IF_ERROR(validate_inputs(*request));
    try {
        outputs = run_batch(requests, deadline);
        return Status::ok();
    } catch (const DeadlineExceededError &error) {
        return deadline_exceeded_error(error.what());
    } catch (const DataCorruptionError &error) {
        return data_corruption_error(error.what());
    } catch (const Error &error) {
        return internal_error(std::string("inference failed: ") +
                              error.what());
    } catch (const std::exception &error) {
        return internal_error(
            std::string("inference failed unexpectedly: ") + error.what());
    }
}

Status
Engine::try_run(const std::map<std::string, Tensor> &inputs,
                std::map<std::string, Tensor> &outputs,
                const DeadlineToken &deadline)
{
    ORPHEUS_RETURN_IF_ERROR(validate_inputs(inputs));
    try {
        outputs = run(inputs, deadline);
        return Status::ok();
    } catch (const DeadlineExceededError &error) {
        return deadline_exceeded_error(error.what());
    } catch (const DataCorruptionError &error) {
        return data_corruption_error(error.what());
    } catch (const Error &error) {
        return internal_error(std::string("inference failed: ") +
                              error.what());
    } catch (const std::exception &error) {
        return internal_error(
            std::string("inference failed unexpectedly: ") + error.what());
    }
}

Tensor
Engine::run(const Tensor &input)
{
    ORPHEUS_CHECK(graph_.inputs().size() == 1,
                  "single-tensor run() needs exactly one graph input, graph "
                      << graph_.name() << " has " << graph_.inputs().size());
    ORPHEUS_CHECK(graph_.outputs().size() == 1,
                  "single-tensor run() needs exactly one graph output, graph "
                      << graph_.name() << " has "
                      << graph_.outputs().size());
    auto outputs = run({{graph_.inputs().front().name, input}});
    return std::move(outputs.begin()->second);
}

void
Engine::run_step(std::size_t index)
{
    ORPHEUS_CHECK(index < steps_.size(),
                  "plan step " << index << " out of range (plan has "
                               << steps_.size() << " steps)");
    execute_step(index, DeadlineToken(), std::chrono::steady_clock::now());
}

void
Engine::demote_step(std::size_t index, const std::string &reason)
{
    ORPHEUS_CHECK(index < steps_.size(),
                  "plan step " << index << " out of range (plan has "
                               << steps_.size() << " steps)");
    // The fast layer stays in place and the breaker routes around it,
    // so restore_step (or a guarded half-open probe) can re-promote it.
    ORPHEUS_CHECK(!steps_[index].reference_impl.empty(),
                  "kernel " << steps_[index].op_type << "."
                            << steps_[index].layer->impl_name()
                            << " demoted on node " << steps_[index].node_name
                            << " (" << reason
                            << ") but no fallback implementation is "
                               "registered");
    record_trip(index, GuardTrip::kFault, reason);
    if (steps_[index].health.state == BreakerState::kClosed)
        open_breaker(index, reason);
}

void
Engine::restore_step(std::size_t index)
{
    ORPHEUS_CHECK(index < steps_.size(),
                  "plan step " << index << " out of range (plan has "
                               << steps_.size() << " steps)");
    PlanStep &step = steps_[index];
    if (step.health.state != BreakerState::kClosed)
        ++step.health.recoveries_total;
    step.health.state = BreakerState::kClosed;
    step.health.consecutive_trips = 0;
}

std::string
Engine::plan_summary() const
{
    std::ostringstream out;
    out << "plan for graph " << graph_.name() << " (" << steps_.size()
        << " steps, arena " << memory_plan_.arena_size << " bytes):\n";
    for (std::size_t i = 0; i < steps_.size(); ++i) {
        const PlanStep &step = steps_[i];
        out << "  #" << i << " " << step.node_name << " [" << step.op_type
            << " / " << step.active_impl()
            << (step.degraded() ? " (degraded)" : "");
        if (step.health.state != BreakerState::kClosed)
            out << " (breaker " << to_string(step.health.state) << ")";
        out << "] -> " << step.output_shape << "\n";
    }
    return out.str();
}

std::map<std::string, KernelHealth>
kernel_health(const std::vector<const Engine *> &engines)
{
    std::map<std::string, KernelHealth> table;
    for (const Engine *engine : engines) {
        for (const PlanStep &step : engine->steps()) {
            const StepHealth &health = step.health;
            // Opens and recoveries only follow a trip or fault.
            if (health.trips_total == 0 && health.faults_total == 0 &&
                health.shadow_runs == 0)
                continue;
            KernelHealth &row =
                table[step.op_type + "." + step.layer->impl_name()];
            row.trips += health.trips_total;
            row.faults += health.faults_total;
            row.opens += health.opens_total;
            row.recoveries += health.recoveries_total;
            row.shadow_runs += health.shadow_runs;
        }
    }
    return table;
}

} // namespace orpheus
