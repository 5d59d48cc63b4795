/**
 * @file
 * AVX2 int8 GEMM kernel (compiled with -mavx2 -mfma per-file flags).
 *
 * qgemm_w8a8_avx2 streams the im2col columns through a 32-column packed
 * tile of interleaved row pairs widened to int16, then broadcasts the
 * stationary weight row pairs and accumulates with vpmaddwd:
 *
 *   acc32 += lo16 * pair0 + hi16 * pair1
 *
 * vpmaddwd is exact in int32 for these ranges (|u8 x i8| pair sums max
 * out at 255*128*2 = 65280), so the SIMD kernel is bitwise identical
 * to the scalar qgemm_w8a8 — the obvious u8 x i8 vpmaddubsw shortcut is
 * NOT used because it saturates its int16 pair sums and silently
 * corrupts large products. Widening during the pack costs one pass over
 * the tile and is amortised over all m stationary rows.
 *
 * Only reached through the qgemm_w8a8_simd dispatcher after the runtime
 * cpuid probe confirms AVX2.
 */
#if defined(ORPHEUS_SIMD_X86)

#include <immintrin.h>

#include <memory>
#include <vector>

#include "ops/quant/qgemm.hpp"

namespace orpheus {

namespace {

/** Columns per packed tile: four ymm int32 accumulators. */
constexpr std::int64_t kTileN = 32;

std::int16_t *
aligned_pack_fallback(std::vector<std::int16_t> &storage, std::size_t i16s)
{
    storage.resize(i16s + 32);
    void *p = storage.data();
    std::size_t space = (i16s + 32) * sizeof(std::int16_t);
    return static_cast<std::int16_t *>(
        std::align(64, i16s * sizeof(std::int16_t), p, space));
}

/**
 * Interleaves two uint8 source rows (zero-extended) into one packed
 * pair: dst[2j] = r0[j], dst[2j+1] = r1[j] for j < kTileN, zero-padded
 * past @p jw. @p r1 may be null (odd-K tail), packing zeros.
 */
inline void
pack_pair_u8(const std::uint8_t *r0, const std::uint8_t *r1,
             std::int64_t jw, std::int16_t *dst)
{
    if (jw == kTileN && r1 != nullptr) {
        for (int half = 0; half < 2; ++half) {
            const __m128i a0 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(r0 + 16 * half));
            const __m128i a1 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(r1 + 16 * half));
            const __m128i il = _mm_unpacklo_epi8(a0, a1);
            const __m128i ih = _mm_unpackhi_epi8(a0, a1);
            _mm256_store_si256(
                reinterpret_cast<__m256i *>(dst + 32 * half),
                _mm256_cvtepu8_epi16(il));
            _mm256_store_si256(
                reinterpret_cast<__m256i *>(dst + 32 * half + 16),
                _mm256_cvtepu8_epi16(ih));
        }
        return;
    }
    for (std::int64_t j = 0; j < kTileN; ++j) {
        dst[2 * j] = j < jw ? static_cast<std::int16_t>(r0[j]) : 0;
        dst[2 * j + 1] =
            (r1 != nullptr && j < jw) ? static_cast<std::int16_t>(r1[j])
                                      : 0;
    }
}

/** Broadcast value for one stationary row pair (low/high int16 lanes). */
inline __m256i
broadcast_pair(std::int32_t v0, std::int32_t v1)
{
    const std::uint32_t packed =
        (static_cast<std::uint32_t>(static_cast<std::uint16_t>(v0))) |
        (static_cast<std::uint32_t>(static_cast<std::uint16_t>(v1)) << 16);
    return _mm256_set1_epi32(static_cast<std::int32_t>(packed));
}

/** Accumulates one packed tile against one broadcast pair. */
inline void
madd_tile(const std::int16_t *pp, __m256i pair, __m256i acc[4])
{
    for (int q = 0; q < 4; ++q) {
        const __m256i lanes = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(pp + 16 * q));
        acc[q] = _mm256_add_epi32(acc[q],
                                  _mm256_madd_epi16(pair, lanes));
    }
}

/** Writes four int32 accumulators to c_row[0..jw). */
inline void
store_tile(const __m256i acc[4], std::int32_t *c_row, std::int64_t jw)
{
    if (jw == kTileN) {
        for (int q = 0; q < 4; ++q)
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(c_row + 8 * q), acc[q]);
        return;
    }
    alignas(32) std::int32_t tmp[kTileN];
    for (int q = 0; q < 4; ++q)
        _mm256_store_si256(reinterpret_cast<__m256i *>(tmp + 8 * q),
                           acc[q]);
    for (std::int64_t j = 0; j < jw; ++j)
        c_row[j] = tmp[j];
}

} // namespace

void
qgemm_w8a8_avx2(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t *w, std::int64_t ldw,
                const std::uint8_t *col, std::int64_t ldcol,
                std::int32_t *c, std::int64_t ldc, std::int16_t *pack)
{
    std::vector<std::int16_t> pack_fallback;
    if (pack == nullptr)
        pack = aligned_pack_fallback(pack_fallback, qgemm_pack_i16s(k));

    const std::int64_t pairs = (k + 1) / 2;

    for (std::int64_t j0 = 0; j0 < n; j0 += kTileN) {
        const std::int64_t jw = std::min<std::int64_t>(kTileN, n - j0);
        for (std::int64_t p2 = 0; p2 < pairs; ++p2) {
            const std::int64_t p = 2 * p2;
            pack_pair_u8(col + p * ldcol + j0,
                         p + 1 < k ? col + (p + 1) * ldcol + j0 : nullptr,
                         jw, pack + p2 * 64);
        }

        for (std::int64_t i = 0; i < m; ++i) {
            const std::int8_t *w_row = w + i * ldw;
            __m256i acc[4] = {_mm256_setzero_si256(),
                              _mm256_setzero_si256(),
                              _mm256_setzero_si256(),
                              _mm256_setzero_si256()};
            for (std::int64_t p2 = 0; p2 < pairs; ++p2) {
                const std::int64_t p = 2 * p2;
                const std::int32_t w0 = w_row[p];
                const std::int32_t w1 = p + 1 < k ? w_row[p + 1] : 0;
                if (w0 == 0 && w1 == 0)
                    continue;
                madd_tile(pack + p2 * 64, broadcast_pair(w0, w1), acc);
            }
            store_tile(acc, c + i * ldc + j0, jw);
        }
    }
}

} // namespace orpheus

#endif // ORPHEUS_SIMD_X86
