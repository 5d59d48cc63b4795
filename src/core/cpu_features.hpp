/**
 * @file
 * Runtime CPU-feature probe and SIMD dispatch switches.
 *
 * The SIMD microkernel tier (gemm/qgemm/depthwise AVX2+FMA and NEON
 * variants under src/ops) is compiled into per-ISA translation units
 * and selected at runtime: the registry predicates for the SIMD impls
 * call simd_enabled(), which combines
 *
 *   - what the build produced (ORPHEUS_SIMD_X86 / ORPHEUS_SIMD_NEON
 *     compile definitions from the ORPHEUS_SIMD CMake option),
 *   - what the silicon reports (cpuid on x86; NEON is baseline on
 *     aarch64 so the probe is compile-time there), and
 *   - what the operator asked for (ORPHEUS_DISABLE_SIMD=1 forces scalar
 *     dispatch process-wide for A/B diagnosis).
 *
 * The hardware probe runs once per process; the disable switch is
 * re-read on every call so tests and tools can flip it after startup.
 * Per engine, BackendConfig::allow_simd (the orpheus_cli --no-simd
 * flag) removes the SIMD impls from selection instead.
 */
#pragma once

#include <string>

namespace orpheus {

/** What the processor supports, probed once per process. */
struct CpuFeatures {
    bool sse42 = false;
    bool avx = false;
    bool avx2 = false;
    bool fma = false;
    bool avx512f = false;
    bool neon = false;

    /** The x86 SIMD tier requires both AVX2 and FMA. */
    bool
    has_avx2_fma() const
    {
        return avx2 && fma;
    }

    /** Space-separated feature list, e.g. "sse4.2 avx avx2 fma". */
    std::string to_string() const;
};

/** The cached per-process probe result. */
const CpuFeatures &cpu_features();

/**
 * Name of the SIMD instruction set this binary was built with ("avx2"
 * or "neon"), or "" when the build has no SIMD tier (ORPHEUS_SIMD=OFF
 * or an unsupported architecture). Registry impl names derive their
 * suffix from this.
 */
const char *simd_isa_compiled();

/** True when the running CPU supports the compiled SIMD tier. */
bool simd_isa_supported();

/** True when SIMD dispatch is switched off by ORPHEUS_DISABLE_SIMD=1
 *  (re-read on every call, so it can be set before an engine is
 *  planned). */
bool simd_disabled();

/** The single gate the SIMD kernels and registry predicates consult:
 *  compiled-in tier + CPU support + not disabled. */
bool simd_enabled();

} // namespace orpheus
