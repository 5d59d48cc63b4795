/**
 * @file
 * The kernel registry: (op type x implementation) -> Layer factory.
 *
 * Integrating a new backend — the paper's headline extensibility claim —
 * means registering kernels here; neither the engine nor the graph layer
 * changes. Each kernel carries a support predicate (so specialised
 * kernels only claim nodes they can execute) and a priority (so the
 * default heuristic has a deterministic preference order).
 *
 * Built-in priorities (higher wins; <isa> is simd_isa_compiled(), and
 * the <isa> impls exist only in builds with a SIMD tier and claim nodes
 * only when simd_allowed()):
 *   Conv
 *     105  depthwise_<isa>         (depthwise nodes only)
 *     100  depthwise_direct        (depthwise nodes only)
 *      90  winograd                (3x3/s1, opt-in via config)
 *      85  im2col_gemm_<isa>       (packed GEMM variant only)
 *      80  im2col_gemm             (the Orpheus default)
 *      70  spatial_pack
 *      20  minnl                   (third-party demo backend)
 *      10  direct
 *   QLinearConv
 *     105  qdepthwise_avx2         (depthwise nodes, x86 builds only)
 *     100  qdepthwise_direct       (depthwise nodes only)
 *      30  im2col_qgemm_<isa>
 *      10  im2col_qgemm            (the reference every impl falls back to)
 *   Gemm, MatMul
 *      30  packed_<isa>            (packed GEMM variant only)
 *      20  minnl                   (MatMul only)
 *      10  reference
 *   Relu: 10 reference, 5 minnl. Every other op: 10 reference.
 */
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/layer.hpp"

namespace orpheus {

/** One registered kernel implementation. */
struct KernelDef {
    std::string op_type;
    std::string impl_name;
    int priority = 0;
    /** May be empty (kernel supports every node of its op type). */
    std::function<bool(const LayerInit &)> supported;
    std::function<std::unique_ptr<Layer>(const LayerInit &)> create;
};

class KernelRegistry
{
  public:
    /** Process-wide registry; built-in kernels are registered on first
     *  access. */
    static KernelRegistry &instance();

    /** Adds a kernel. Re-registering (op_type, impl_name) replaces the
     *  previous definition. */
    void add(KernelDef def);

    /** All kernels for @p op_type (empty if none), priority-sorted
     *  descending. */
    std::vector<const KernelDef *> kernels(const std::string &op_type) const;

    /** Kernels for the op type whose predicate accepts @p init,
     *  priority-sorted descending. */
    std::vector<const KernelDef *> candidates(const LayerInit &init) const;

    /** Specific kernel or nullptr. */
    const KernelDef *find(const std::string &op_type,
                          const std::string &impl_name) const;

    /** True if at least one kernel exists for @p op_type. */
    bool has_op(const std::string &op_type) const;

    /** All registered op types (sorted). */
    std::vector<std::string> op_types() const;

    /**
     * Instantiates @p def for @p init and stamps the impl name. Asserts
     * that the predicate (if any) accepts the node.
     */
    std::unique_ptr<Layer> instantiate(const KernelDef &def,
                                       const LayerInit &init) const;

  private:
    KernelRegistry() = default;

    std::map<std::string, std::vector<KernelDef>> kernels_by_op_;
};

/** The support predicate every SIMD impl starts with: the engine allows
 *  the SIMD tier (BackendConfig::allow_simd) and simd_enabled() (built
 *  in, supported by the CPU, ORPHEUS_DISABLE_SIMD unset). */
bool simd_allowed(const LayerInit &init);

/** Registers every built-in kernel (idempotent; called by instance()). */
void register_builtin_kernels(KernelRegistry &registry);

} // namespace orpheus
