// AVX2 tier of the batch encoder: 32 rows per iteration. All 15 node
// thresholds of a codebook live in one 16-byte block, broadcast to both
// 128-bit lanes of a YMM register (vpshufb shuffles within each lane,
// which is exactly right with the operand duplicated). Each level is
// resolved with three instructions per 32 rows:
//   * vpshufb gathers every row's node threshold (flat index =
//     (1<<l)-1 + node, always < 15 so the shuffle high bit is clear);
//   * the unsigned compare x >= t has no epu8 primitive, so it is
//     max_epu8(x, t) == x (equality included — the hardware's >= rail);
//   * the 0xFF/0x00 mask folds into the index with
//     idx = (idx + idx) - mask, i.e. idx = 2*idx + (x >= t).
// The functions take their ISA from a target attribute instead of a -m
// flag on the TU; the dispatcher checks CPUID before calling in. The
// ragged tail below one 32-row block falls through to the branchless
// scalar tournament, which is bit-identical by construction.
#include "maddness/encoder_kernel.hpp"

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define SSMA_AVX2 __attribute__((target("avx2")))
#endif

namespace ssma::maddness::detail {

#if defined(SSMA_AVX2)

bool encoder_avx2_compiled_in() { return true; }

SSMA_AVX2 void encode_codebook_avx2(const std::uint8_t* stage,
                                    std::size_t stride, std::size_t rows,
                                    const std::uint8_t* thr,
                                    std::uint8_t* codes) {
  constexpr std::size_t kRowBlock = 32;
  const std::size_t full = rows - rows % kRowBlock;
  const __m256i T = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(thr)));
  const __m256i t0 = _mm256_set1_epi8(static_cast<char>(thr[0]));
  const __m256i off1 = _mm256_set1_epi8(1);
  const __m256i off3 = _mm256_set1_epi8(3);
  const __m256i off7 = _mm256_set1_epi8(7);
  for (std::size_t n = 0; n < full; n += kRowBlock) {
    const __m256i x0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(stage + n));
    const __m256i x1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(stage + stride + n));
    const __m256i x2 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(stage + 2 * stride + n));
    const __m256i x3 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(stage + 3 * stride + n));

    // Level 0: one shared threshold, broadcast.
    __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x0, t0), x0);
    __m256i idx = _mm256_sub_epi8(_mm256_setzero_si256(), ge);
    // Levels 1-3: per-row threshold gather from the packed block.
    __m256i t = _mm256_shuffle_epi8(T, _mm256_add_epi8(idx, off1));
    ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x1, t), x1);
    idx = _mm256_sub_epi8(_mm256_add_epi8(idx, idx), ge);
    t = _mm256_shuffle_epi8(T, _mm256_add_epi8(idx, off3));
    ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x2, t), x2);
    idx = _mm256_sub_epi8(_mm256_add_epi8(idx, idx), ge);
    t = _mm256_shuffle_epi8(T, _mm256_add_epi8(idx, off7));
    ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x3, t), x3);
    idx = _mm256_sub_epi8(_mm256_add_epi8(idx, idx), ge);

    _mm256_storeu_si256(reinterpret_cast<__m256i*>(codes + n), idx);
  }
  encode_codebook_scalar(stage, stride, full, rows, thr, codes);
}

namespace {

/// Gathers and transposes one 16-row group into the four level vectors
/// for rows [n, n+16). Per row, one 16-byte window load + one pshufb
/// against the pick mask puts the 4 split bytes in bytes 0..3; three
/// unpacks pack 4 rows into one register, [r0: d0..d3 | r1 | r2 | r3],
/// and the `relay` shuffle regroups it level-major, [d0: r0..r3 | d1 |
/// d2 | d3]. A 4x4 dword transpose across the four groups then leaves
/// each level's 16 rows in one register.
SSMA_AVX2 inline void gather_window_16(const std::uint8_t* src,
                                       std::size_t row_stride,
                                       std::size_t n, __m128i pickv,
                                       __m128i relay, __m128i x[4]) {
  __m128i g[4];
  for (int b = 0; b < 4; ++b) {
    const std::uint8_t* p =
        src + (n + 4 * static_cast<std::size_t>(b)) * row_stride;
    const __m128i r0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), pickv);
    const __m128i r1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + row_stride)),
        pickv);
    const __m128i r2 = _mm_shuffle_epi8(
        _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(p + 2 * row_stride)),
        pickv);
    const __m128i r3 = _mm_shuffle_epi8(
        _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(p + 3 * row_stride)),
        pickv);
    g[b] = _mm_shuffle_epi8(
        _mm_unpacklo_epi64(_mm_unpacklo_epi32(r0, r1),
                           _mm_unpacklo_epi32(r2, r3)),
        relay);
  }
  const __m128i a0 = _mm_unpacklo_epi32(g[0], g[1]);
  const __m128i a1 = _mm_unpackhi_epi32(g[0], g[1]);
  const __m128i a2 = _mm_unpacklo_epi32(g[2], g[3]);
  const __m128i a3 = _mm_unpackhi_epi32(g[2], g[3]);
  x[0] = _mm_unpacklo_epi64(a0, a2);
  x[1] = _mm_unpackhi_epi64(a0, a2);
  x[2] = _mm_unpacklo_epi64(a1, a3);
  x[3] = _mm_unpackhi_epi64(a1, a3);
}

}  // namespace

SSMA_AVX2 void encode_codebook_windowed_avx2(const std::uint8_t* src,
                                             std::size_t row_stride,
                                             std::size_t rows,
                                             const std::uint8_t* pick,
                                             const std::uint8_t* thr,
                                             std::uint8_t* codes) {
  constexpr std::size_t kRowBlock = 32;  // two 16-row gather groups
  const std::size_t full = rows - rows % kRowBlock;
  const __m128i pickv =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(pick));
  const __m128i relay = _mm_set_epi8(15, 11, 7, 3, 14, 10, 6, 2, 13, 9, 5,
                                     1, 12, 8, 4, 0);
  const __m256i T = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(thr)));
  const __m256i t0 = _mm256_set1_epi8(static_cast<char>(thr[0]));
  const __m256i off1 = _mm256_set1_epi8(1);
  const __m256i off3 = _mm256_set1_epi8(3);
  const __m256i off7 = _mm256_set1_epi8(7);
  for (std::size_t n = 0; n < full; n += kRowBlock) {
    __m128i xl[4], xh[4];
    gather_window_16(src, row_stride, n, pickv, relay, xl);
    gather_window_16(src, row_stride, n + 16, pickv, relay, xh);
    const __m256i x0 = _mm256_set_m128i(xh[0], xl[0]);
    const __m256i x1 = _mm256_set_m128i(xh[1], xl[1]);
    const __m256i x2 = _mm256_set_m128i(xh[2], xl[2]);
    const __m256i x3 = _mm256_set_m128i(xh[3], xl[3]);

    __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x0, t0), x0);
    __m256i idx = _mm256_sub_epi8(_mm256_setzero_si256(), ge);
    __m256i t = _mm256_shuffle_epi8(T, _mm256_add_epi8(idx, off1));
    ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x1, t), x1);
    idx = _mm256_sub_epi8(_mm256_add_epi8(idx, idx), ge);
    t = _mm256_shuffle_epi8(T, _mm256_add_epi8(idx, off3));
    ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x2, t), x2);
    idx = _mm256_sub_epi8(_mm256_add_epi8(idx, idx), ge);
    t = _mm256_shuffle_epi8(T, _mm256_add_epi8(idx, off7));
    ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x3, t), x3);
    idx = _mm256_sub_epi8(_mm256_add_epi8(idx, idx), ge);

    _mm256_storeu_si256(reinterpret_cast<__m256i*>(codes + n), idx);
  }
  encode_codebook_windowed_scalar(src, row_stride, full, rows, pick, thr,
                                  codes);
}

#else  // !defined(SSMA_AVX2)

bool encoder_avx2_compiled_in() { return false; }

void encode_codebook_avx2(const std::uint8_t* stage, std::size_t stride,
                          std::size_t rows, const std::uint8_t* thr,
                          std::uint8_t* codes) {
  encode_codebook_scalar(stage, stride, 0, rows, thr, codes);
}

void encode_codebook_windowed_avx2(const std::uint8_t* src,
                                   std::size_t row_stride,
                                   std::size_t rows,
                                   const std::uint8_t* pick,
                                   const std::uint8_t* thr,
                                   std::uint8_t* codes) {
  encode_codebook_windowed_scalar(src, row_stride, 0, rows, pick, thr,
                                  codes);
}

#endif

}  // namespace ssma::maddness::detail
