/**
 * @file
 * Quantized GEMM for the quantized conv: int8 weights x uint8 columns
 * -> int32 accumulators, weight-stationary.
 *
 * C[i][j] = sum_p W[i][p] * Col[p][j]
 *
 * No zero-point term: the weights are symmetric (zero point 0) and the
 * caller folds the activation zero point in afterwards through the
 * per-row weight sums, so the hot loop is a pure integer multiply-add.
 * The arithmetic is exact int32, so every tier is bitwise identical.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace orpheus {

/** Scalar kernel: i/p/j loop order, skipping zero weights. */
void qgemm_w8a8(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t *w, std::int64_t ldw,
                const std::uint8_t *col, std::int64_t ldcol,
                std::int32_t *c, std::int64_t ldc);

/**
 * int16 entries of the interleaved-pair packing buffer the SIMD qgemm
 * kernel stages one 32-column tile of the streamed operand through.
 * Prepared layers reserve this in the engine workspace; a null pack
 * pointer falls back to a call-local allocation.
 */
std::size_t qgemm_pack_i16s(std::int64_t k);

/**
 * SIMD qgemm_w8a8, bitwise identical to it. On AVX2 the streamed
 * column tile is packed as zero-extended int16 row pairs so the dot
 * products run through vpmaddwd, which is exact in int32 (the
 * saturating u8 x i8 vpmaddubsw path would not be). Falls back to the
 * scalar kernel when simd_enabled() is false.
 */
void qgemm_w8a8_simd(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t *w, std::int64_t ldw,
                     const std::uint8_t *col, std::int64_t ldcol,
                     std::int32_t *c, std::int64_t ldc,
                     std::int16_t *pack = nullptr);

// Per-ISA entry points (defined in qgemm_avx2.cpp / qgemm_neon.cpp,
// compiled with the matching ISA flags; referenced only when the
// corresponding ORPHEUS_SIMD_* definition is set).
#if defined(ORPHEUS_SIMD_X86)
void qgemm_w8a8_avx2(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t *w, std::int64_t ldw,
                     const std::uint8_t *col, std::int64_t ldcol,
                     std::int32_t *c, std::int64_t ldc,
                     std::int16_t *pack);
#endif
#if defined(ORPHEUS_SIMD_NEON)
void qgemm_w8a8_neon(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t *w, std::int64_t ldw,
                     const std::uint8_t *col, std::int64_t ldcol,
                     std::int32_t *c, std::int64_t ldc);
#endif

} // namespace orpheus
