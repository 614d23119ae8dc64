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
// flag on the TU; the dispatcher checks CPUID before calling in. A
// ragged last block runs the same code over its input's padding, and
// its pad rows' codes are masked to 0 before the store.
#include <algorithm>

#include "maddness/encoder_kernel.hpp"

#if defined(SSMA_X86_SIMD)

#include <immintrin.h>

#define SSMA_AVX2 __attribute__((target("avx2")))

namespace ssma::maddness::detail {

namespace {

constexpr std::size_t kRowBlock = EncodedBatch::kRowBlock;

/// The 4-level tournament of one 32-row block: x[l] holds the rows'
/// level-l split bytes, `table` the codebook's threshold block in both
/// lanes, `root` its level-0 threshold in every byte. Returns the leaves.
SSMA_AVX2 inline __m256i tournament(const __m256i x[4], __m256i table,
                                    __m256i root) {
  __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x[0], root), x[0]);
  __m256i idx = _mm256_sub_epi8(_mm256_setzero_si256(), ge);
  // Levels 1-3: per-row threshold gather; level l's nodes start at flat
  // index 2^l - 1.
  for (int l = 1; l < 4; ++l) {
    const __m256i t = _mm256_shuffle_epi8(
        table, _mm256_add_epi8(idx, _mm256_set1_epi8((1 << l) - 1)));
    ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x[l], t), x[l]);
    idx = _mm256_sub_epi8(_mm256_add_epi8(idx, idx), ge);
  }
  return idx;
}

/// Stores one block's 32 codes, of which the first `valid` are rows of
/// the batch; the pad rows past them get code 0. The mask is applied to
/// every block: a branch on the last one makes GCC 12 spill the
/// windowed gather's row pointers.
SSMA_AVX2 inline void store_block(std::uint8_t* codes, __m256i idx,
                                  std::size_t valid) {
  const __m256i row = _mm256_setr_epi8(
      0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
      20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
  const __m256i keep = _mm256_cmpgt_epi8(
      _mm256_set1_epi8(static_cast<char>(std::min(valid, kRowBlock))), row);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(codes),
                      _mm256_and_si256(idx, keep));
}

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

SSMA_AVX2 void encode_codebook_avx2(const std::uint8_t* stage,
                                    std::size_t stride, std::size_t rows,
                                    const std::uint8_t* thr,
                                    std::uint8_t* codes) {
  const __m256i table = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(thr)));
  const __m256i root = _mm256_set1_epi8(static_cast<char>(thr[0]));
  for (std::size_t n = 0; n < rows; n += kRowBlock) {
    __m256i x[4];
    for (int l = 0; l < 4; ++l)
      x[l] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          stage + static_cast<std::size_t>(l) * stride + n));
    store_block(codes + n, tournament(x, table, root), rows - n);
  }
}

SSMA_AVX2 void encode_codebook_windowed_avx2(const std::uint8_t* src,
                                             std::size_t row_stride,
                                             std::size_t rows,
                                             const std::uint8_t* pick,
                                             const std::uint8_t* thr,
                                             std::uint8_t* codes) {
  const __m128i pickv =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(pick));
  const __m128i relay = _mm_set_epi8(15, 11, 7, 3, 14, 10, 6, 2, 13, 9, 5,
                                     1, 12, 8, 4, 0);
  const __m256i table = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(thr)));
  const __m256i root = _mm256_set1_epi8(static_cast<char>(thr[0]));
  for (std::size_t n = 0; n < rows; n += kRowBlock) {
    // Two 16-row gather groups per block.
    __m128i lo[4], hi[4];
    gather_window_16(src, row_stride, n, pickv, relay, lo);
    gather_window_16(src, row_stride, n + 16, pickv, relay, hi);
    const __m256i x[4] = {
        _mm256_set_m128i(hi[0], lo[0]), _mm256_set_m128i(hi[1], lo[1]),
        _mm256_set_m128i(hi[2], lo[2]), _mm256_set_m128i(hi[3], lo[3])};
    store_block(codes + n, tournament(x, table, root), rows - n);
  }
}

}  // namespace ssma::maddness::detail

#endif  // SSMA_X86_SIMD
