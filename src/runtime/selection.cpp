#include "runtime/selection.hpp"

#include <limits>

#include "core/rng.hpp"
#include "core/timer.hpp"

namespace orpheus {

namespace {

/** Times one candidate on synthetic activations + real constants,
 *  prepared and bound to a private workspace when @p prepare (as
 *  Engine::prepare_layer and bind_workspace_all leave the winner). */
double
measure_candidate(const KernelRegistry &registry, const KernelDef &def,
                  const LayerInit &init, int runs, bool prepare)
{
    std::unique_ptr<Layer> layer = registry.instantiate(def, init);
    std::shared_ptr<Buffer> workspace;
    if (prepare) {
        PlanContext ctx;
        layer->prepare(ctx);
        workspace = Buffer::allocate(ctx.workspace_bytes());
        layer->bind_workspace(
            Workspace(workspace->data(), workspace->size()));
    }

    // Build the invocation tensors: real constants where available,
    // random activations elsewhere, fresh outputs.
    Rng rng(0xa0707e);
    std::vector<Tensor> owned_inputs;
    std::vector<const Tensor *> inputs(init.input_infos.size(), nullptr);
    owned_inputs.reserve(init.input_infos.size());
    for (std::size_t i = 0; i < init.input_infos.size(); ++i) {
        if (!init.node->has_input(i))
            continue;
        if (const Tensor *constant = init.constant(i)) {
            inputs[i] = constant;
            continue;
        }
        const ValueInfo &info = init.input_infos[i];
        Tensor t(info.shape, info.dtype);
        if (info.dtype == DataType::kFloat32)
            fill_uniform(t, rng, -1.0f, 1.0f);
        owned_inputs.push_back(std::move(t));
        inputs[i] = &owned_inputs.back();
    }

    std::vector<Tensor> owned_outputs;
    std::vector<Tensor *> outputs;
    owned_outputs.reserve(init.output_infos.size());
    for (const ValueInfo &info : init.output_infos)
        owned_outputs.emplace_back(info.shape, info.dtype);
    for (Tensor &t : owned_outputs)
        outputs.push_back(&t);

    layer->forward(inputs, outputs); // Warm-up (also faults in scratch).

    Timer timer;
    timer.start();
    for (int r = 0; r < runs; ++r)
        layer->forward(inputs, outputs);
    return timer.elapsed_ms() / runs;
}

} // namespace

const char *
to_string(SelectionStrategy strategy)
{
    switch (strategy) {
      case SelectionStrategy::kHeuristic: return "heuristic";
      case SelectionStrategy::kAutoTune: return "autotune";
    }
    return "invalid";
}

SelectionResult
select_kernel(const KernelRegistry &registry, const LayerInit &init,
              SelectionStrategy strategy, int autotune_runs, bool prepare)
{
    const Node &node = *init.node;
    const BackendConfig &config = *init.config;

    // 1. Per-node pin.
    auto node_pin = config.node_impl.find(node.name());
    if (node_pin != config.node_impl.end()) {
        const KernelDef *def =
            registry.find(node.op_type(), node_pin->second);
        ORPHEUS_CHECK(def != nullptr, "node "
                                          << node.name()
                                          << " pinned to unknown kernel "
                                          << node_pin->second);
        return SelectionResult{def, {}};
    }

    // 2. Per-op-type pin.
    auto op_pin = config.forced_impl.find(node.op_type());
    if (op_pin != config.forced_impl.end()) {
        const KernelDef *def = registry.find(node.op_type(), op_pin->second);
        ORPHEUS_CHECK(def != nullptr,
                      "op " << node.op_type()
                            << " pinned to unknown kernel " << op_pin->second);
        ORPHEUS_CHECK(!def->supported || def->supported(init),
                      "pinned kernel " << node.op_type() << "."
                                       << op_pin->second
                                       << " does not support node "
                                       << node.name());
        return SelectionResult{def, {}};
    }

    const auto candidates = registry.candidates(init);
    ORPHEUS_CHECK(!candidates.empty(),
                  "no kernel supports node " << node.name() << " (op "
                                             << node.op_type() << ")");

    // 3. Heuristic: candidates are priority-sorted.
    if (strategy == SelectionStrategy::kHeuristic || candidates.size() == 1)
        return SelectionResult{candidates.front(), {}};

    // 4. Auto-tune: measure every candidate on the real shapes.
    SelectionResult result;
    double best = std::numeric_limits<double>::infinity();
    for (const KernelDef *def : candidates) {
        const double ms =
            measure_candidate(registry, *def, init, autotune_runs, prepare);
        result.measurements.emplace_back(def->impl_name, ms);
        if (ms < best) {
            best = ms;
            result.kernel = def;
        }
    }
    return result;
}

const KernelDef *
select_fallback_kernel(const KernelRegistry &registry, const LayerInit &init,
                       const std::string &exclude)
{
    const auto candidates = registry.candidates(init);
    // Candidates are priority-sorted descending; walk from the back so
    // the reference implementation wins.
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
        if ((*it)->impl_name != exclude)
            return *it;
    }
    return nullptr;
}

} // namespace orpheus
