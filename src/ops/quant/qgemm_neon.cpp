/**
 * @file
 * NEON int8 GEMM kernels (AArch64; AdvSIMD is baseline, no per-file
 * flags). Structure: widen the streamed int8/uint8 row to int16 with
 * vmovl, broadcast the stationary element, and accumulate through
 * vmlal_s16 (s16 x s16 -> s32, exact) — so, like the AVX2 kernels,
 * results are bitwise identical to the scalar references. The streamed
 * rows are consumed in natural row-major order, so no packing stage is
 * needed (the pack buffer of the dispatcher signature goes unused on
 * this ISA).
 */
#if defined(ORPHEUS_SIMD_NEON)

#include <arm_neon.h>

#include "ops/quant/qgemm.hpp"

namespace orpheus {

namespace {

/** Accumulates acc[0..3] (16 int32 lanes) += v16 * scalar_s16. */
inline void
mla_lanes(int32x4_t acc[4], int16x8_t lo, int16x8_t hi, int16x4_t scalar)
{
    acc[0] = vmlal_lane_s16(acc[0], vget_low_s16(lo), scalar, 0);
    acc[1] = vmlal_lane_s16(acc[1], vget_high_s16(lo), scalar, 0);
    acc[2] = vmlal_lane_s16(acc[2], vget_low_s16(hi), scalar, 0);
    acc[3] = vmlal_lane_s16(acc[3], vget_high_s16(hi), scalar, 0);
}

} // namespace

void
qgemm_w8a8_neon(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t *w, std::int64_t ldw,
                const std::uint8_t *col, std::int64_t ldcol,
                std::int32_t *c, std::int64_t ldc)
{
    const std::int64_t n16 = n & ~std::int64_t{15};
    for (std::int64_t i = 0; i < m; ++i) {
        const std::int8_t *w_row = w + i * ldw;
        std::int32_t *c_row = c + i * ldc;

        for (std::int64_t j0 = 0; j0 < n16; j0 += 16) {
            int32x4_t acc[4] = {vdupq_n_s32(0), vdupq_n_s32(0),
                                vdupq_n_s32(0), vdupq_n_s32(0)};
            for (std::int64_t p = 0; p < k; ++p) {
                if (w_row[p] == 0)
                    continue;
                const int16x4_t wv =
                    vdup_n_s16(static_cast<std::int16_t>(w_row[p]));
                const uint8x16_t cv = vld1q_u8(col + p * ldcol + j0);
                mla_lanes(acc,
                          vreinterpretq_s16_u16(
                              vmovl_u8(vget_low_u8(cv))),
                          vreinterpretq_s16_u16(
                              vmovl_u8(vget_high_u8(cv))),
                          wv);
            }
            for (int q = 0; q < 4; ++q)
                vst1q_s32(c_row + j0 + 4 * q, acc[q]);
        }
        for (std::int64_t j = n16; j < n; ++j) {
            std::int32_t sum = 0;
            for (std::int64_t p = 0; p < k; ++p)
                sum += static_cast<std::int32_t>(w_row[p]) *
                       static_cast<std::int32_t>(col[p * ldcol + j]);
            c_row[j] = sum;
        }
    }
}

} // namespace orpheus

#endif // ORPHEUS_SIMD_NEON
