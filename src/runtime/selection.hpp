/**
 * @file
 * Kernel-selection strategies.
 *
 * The engine resolves each node to one of the registry's candidate
 * implementations:
 *
 *  - kHeuristic: highest-priority supported kernel (deterministic, no
 *    measurement; the default).
 *  - kAutoTune:  every supported candidate is instantiated and timed on
 *    the node's real static shapes (constant inputs use the real
 *    weights); the fastest wins. This is the strongest form of the
 *    paper's "implementations selected at runtime".
 *
 * Pinned implementations (BackendConfig::forced_impl / node_impl) bypass
 * both strategies.
 */
#pragma once

#include <string>

#include "backend/kernel_registry.hpp"

namespace orpheus {

enum class SelectionStrategy {
    kHeuristic = 0,
    kAutoTune,
};

const char *to_string(SelectionStrategy strategy);

/** Result of selecting a kernel for one node. */
struct SelectionResult {
    const KernelDef *kernel = nullptr;
    /** Auto-tune only: measured mean ms per candidate (impl, ms). */
    std::vector<std::pair<std::string, double>> measurements;
};

/**
 * Selects the kernel for @p init. Throws orpheus::Error if no registered
 * kernel supports the node, or a pinned implementation is missing or
 * unsupported. @p autotune_runs is the number of timed repetitions per
 * candidate (after one warm-up) when auto-tuning. With @p prepare each
 * candidate is timed the way the engine runs it: prepared, with its
 * workspace bound (EngineOptions::prepare_kernels).
 */
SelectionResult select_kernel(const KernelRegistry &registry,
                              const LayerInit &init,
                              SelectionStrategy strategy,
                              int autotune_runs = 3, bool prepare = true);

/**
 * The reference (fallback) kernel for @p init: the lowest-priority
 * supported candidate whose impl name differs from @p exclude. This is
 * where the fault-fallback, the guard's shadow/confirmation runs and
 * an open circuit breaker all route to. Returns nullptr when no
 * alternative exists.
 */
const KernelDef *select_fallback_kernel(const KernelRegistry &registry,
                                        const LayerInit &init,
                                        const std::string &exclude);

} // namespace orpheus
