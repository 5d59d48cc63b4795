#include "ops/quant/qgemm.hpp"

#include <cstring>

#include "core/cpu_features.hpp"

namespace orpheus {

void
qgemm_w8a8(std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t *w, std::int64_t ldw, const std::uint8_t *col,
           std::int64_t ldcol, std::int32_t *c, std::int64_t ldc)
{
    for (std::int64_t i = 0; i < m; ++i) {
        std::int32_t *c_row = c + i * ldc;
        std::memset(c_row, 0, static_cast<std::size_t>(n) * 4);
        const std::int8_t *w_row = w + i * ldw;
        for (std::int64_t p = 0; p < k; ++p) {
            const std::int32_t w_val = w_row[p];
            if (w_val == 0)
                continue;
            const std::uint8_t *col_row = col + p * ldcol;
            for (std::int64_t j = 0; j < n; ++j)
                c_row[j] += w_val * static_cast<std::int32_t>(col_row[j]);
        }
    }
}

std::size_t
qgemm_pack_i16s(std::int64_t k)
{
    // One 32-column tile of interleaved row pairs: ceil(k/2) pairs of
    // 32 int16 lanes each.
    return static_cast<std::size_t>((k + 1) / 2) * 64;
}

void
qgemm_w8a8_simd(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t *w, std::int64_t ldw,
                const std::uint8_t *col, std::int64_t ldcol,
                std::int32_t *c, std::int64_t ldc, std::int16_t *pack)
{
#if defined(ORPHEUS_SIMD_X86)
    if (simd_enabled()) {
        qgemm_w8a8_avx2(m, n, k, w, ldw, col, ldcol, c, ldc, pack);
        return;
    }
#elif defined(ORPHEUS_SIMD_NEON)
    if (simd_enabled()) {
        qgemm_w8a8_neon(m, n, k, w, ldw, col, ldcol, c, ldc);
        return;
    }
#endif
    (void)pack;
    qgemm_w8a8(m, n, k, w, ldw, col, ldcol, c, ldc);
}

} // namespace orpheus
