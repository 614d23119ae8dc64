// AVX2 tier of the packed LUT kernel. Its functions take their ISA
// (AVX2 and FMA, which the fused epilogue's table needs) from a target
// attribute instead of a -m flag on the TU, so the inline header code it
// instantiates outside them (fused_requantize, round_half_away) stays
// baseline-ISA; the dispatcher checks CPUID before calling in, so a
// binary built here still runs on machines without AVX2.
//
// Shape: one (codebook, output) table is 16 int8 entries — exactly one
// 128-bit pshufb operand. Broadcasting it to both lanes of a YMM register
// turns 32 rows of leaf codes into 32 gathered entries per shuffle. The
// entries sign-extend via unpack + arithmetic shift and accumulate in
// int16, which is wrap-free within a <=256-codebook chunk
// (256 * 127 < 2^15). Banks with <= 256 codebooks therefore store their
// int16 partials directly (the int32 total provably fits int16, so the
// final clamp is the identity); larger banks widen each chunk into int32
// and saturate exactly once at the end — either way bit-identical to the
// reference int32 accumulation.
//
// unpack interleaves within each 128-bit lane, so accumulator lanes hold
// rows permuted as {0..7,16..23} / {8..15,24..31}; the permutation is
// undone for free inside the (already scalar) sink dispatch.
//
// The tile walk is templated over a sink: the store sink writes int16
// accumulators (classic accumulate), the fused sink runs the stage
// handoff (dequantize -> ReLU -> requantize) on each finished tile and
// writes the next stage's uint8 activations — the accumulators never
// reach memory. A ragged last row block runs the same tile code over
// the encode cache's padded codes; the sinks store only its valid rows.
#include <algorithm>
#include <cstring>

#include "maddness/lut_kernel.hpp"

#if defined(SSMA_X86_SIMD)

#include <immintrin.h>

#define SSMA_AVX2 __attribute__((target("avx2,fma")))

namespace ssma::maddness::detail {

namespace {

constexpr std::size_t kRowBlock = EncodedBatch::kRowBlock;
constexpr int kOutBlock = 4;
constexpr int kChunk = 256;

/// Row index held by lane i of accumulator half h (see file comment).
inline int lane_row(int h, int i) {
  return (i & 7) + 8 * (2 * (i >> 3) + h);
}

/// Classic accumulate: int16 quads / elements of rows below `rows` land
/// in the int16 output.
struct StoreSink {
  std::int16_t* out;
  std::size_t nout;
  std::size_t rows;
  /// `q` holds outputs o0..o0+3 of row `r` (even) in its low 64 bits
  /// and of row `r+1` in its high 64 bits.
  SSMA_AVX2 void quad2(std::size_t r, int o0, __m128i q) const {
    if (r >= rows) return;
    std::int16_t* d = out + r * nout + static_cast<std::size_t>(o0);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(d), q);
    if (r + 1 < rows)
      _mm_storel_epi64(reinterpret_cast<__m128i*>(d + nout),
                       _mm_unpackhi_epi64(q, q));
  }
  SSMA_AVX2 void one16(std::size_t r, int o, std::int16_t v) const {
    if (r < rows) out[r * nout + static_cast<std::size_t>(o)] = v;
  }
  SSMA_AVX2 void one32(std::size_t r, int o, std::int32_t v) const {
    one16(r, o, saturate_acc16(v));
  }
};

/// Fused stage handoff: each finished int16 quad of a full 4-output
/// block requantizes in-register from the epilogue's verified table —
/// widen, convert, one FMA with the columns' (mul, add), truncate — and
/// the saturating packs clamp to [0, 255], as the table was checked to
/// do. Columns marked exact, ragged output blocks and banks over 256
/// codebooks take fused_requantize per element. Only rows below `rows`
/// are stored.
struct FusedSink {
  const LutBankPacked* lut;
  const FusedEpilogue* ep;
  std::uint8_t* dst;
  std::size_t nout;
  std::size_t rows;

  /// The exact path: the marked columns' lanes of `v` (rows r and r+1,
  /// as in quad2) through fused_requantize.
  SSMA_AVX2 __attribute__((noinline)) __m256i exact_lanes(
      __m128i q, int o0, unsigned marked, __m256i v) const {
    alignas(16) std::int16_t acc[8];
    alignas(32) std::int32_t lanes[8];
    _mm_store_si128(reinterpret_cast<__m128i*>(acc), q);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
    for (int i = 0; i < 8; ++i)
      if (marked >> (i % 4) & 1u)
        lanes[i] = fused_requantize(acc[i], packed_scale(*lut, o0 + i % 4),
                                    ep->next_scale);
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
  }

  /// Requantizes rows r and r+1 (outputs o0..o0+3 each, packed in q's
  /// two 64-bit halves) in one shot: the column constants, widening and
  /// pack chain are shared across the row pair.
  SSMA_AVX2 void quad2(std::size_t r, int o0, __m128i q) const {
    if (r >= rows) return;
    const __m128 mul = _mm_loadu_ps(ep->mul.data() + o0);
    const __m128 add = _mm_loadu_ps(ep->add.data() + o0);
    __m256i v = _mm256_cvttps_epi32(
        _mm256_fmadd_ps(_mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(q)),
                        _mm256_set_m128(mul, mul), _mm256_set_m128(add, add)));
    if (const unsigned marked = ep->exact_bits(o0, 4))
      v = exact_lanes(q, o0, marked, v);
    const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                        _mm256_extracti128_si256(v, 1));
    const __m128i p8 = _mm_packus_epi16(p16, p16);  // the [0, 255] clamp
    std::uint8_t* d = dst + r * nout + static_cast<std::size_t>(o0);
    const int b0 = _mm_cvtsi128_si32(p8);
    const int b1 = _mm_extract_epi32(p8, 1);
    std::memcpy(d, &b0, 4);
    if (r + 1 < rows) std::memcpy(d + nout, &b1, 4);
  }
  SSMA_AVX2 void one16(std::size_t r, int o, std::int16_t v) const {
    if (r < rows)
      dst[r * nout + static_cast<std::size_t>(o)] =
          fused_requantize(v, packed_scale(*lut, o), ep->next_scale);
  }
  SSMA_AVX2 void one32(std::size_t r, int o, std::int32_t v) const {
    one16(r, o, saturate_acc16(v));
  }
};

/// Adds codebooks c and c+1 of one (32-row, ob-output) tile into the
/// int16 accumulators. The two gathered byte vectors interleave
/// (unpack) and one pmaddubsw against an all-ones unsigned operand sums
/// each (A_i, B_i) byte pair straight into the int16 lanes — two
/// codebooks per sign-extension, vs the two-unpack + two-shift chain a
/// lone codebook needs. The pairwise int16 product sum is at most
/// |A| + |B| <= 256, so pmaddubsw's saturation can never engage and the
/// result is exact. Codebook c's table for output o0+j is at
/// tables + j * stride; c+1 shares its group, 16 bytes further on.
SSMA_AVX2 inline void accumulate_pair(const EncodedBatch& enc,
                                      std::size_t n0, int c,
                                      const std::int8_t* tables,
                                      std::size_t stride, int ob,
                                      __m256i acc16[][2]) {
  const __m256i ones = _mm256_set1_epi8(1);
  const __m256i codes_a = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(enc.codebook(c) + n0));
  const __m256i codes_b = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(enc.codebook(c + 1) + n0));
  for (int j = 0; j < ob; ++j) {
    const std::int8_t* t = tables + static_cast<std::size_t>(j) * stride;
    const __m256i table_a = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t)));
    const __m256i table_b = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + 16)));
    const __m256i va = _mm256_shuffle_epi8(table_a, codes_a);
    const __m256i vb = _mm256_shuffle_epi8(table_b, codes_b);
    acc16[j][0] = _mm256_add_epi16(
        acc16[j][0], _mm256_maddubs_epi16(ones, _mm256_unpacklo_epi8(va, vb)));
    acc16[j][1] = _mm256_add_epi16(
        acc16[j][1], _mm256_maddubs_epi16(ones, _mm256_unpackhi_epi8(va, vb)));
  }
}

/// Accumulates codebooks [c0, c_end) of one (32-row, ob-output) tile
/// into int16 accumulators, two codebooks at a time. c0 is group-aligned,
/// so pairs never straddle a group of the packed bank. Pairs in full
/// groups use the layout's closed form (see LutBankPacked::group_bytes;
/// table_ptr per pair costs more than the shuffles it feeds); a ragged
/// last group goes through table_ptr.
SSMA_AVX2 inline void accumulate_chunk(const LutBankPacked& lut,
                                       const EncodedBatch& enc,
                                       std::size_t n0, int o0, int ob,
                                       int c0, int c_end,
                                       __m256i acc16[][2]) {
  constexpr int kGroup = LutBankPacked::kGroup;
  constexpr std::size_t kFullStride = kGroup * 16;  // full groups
  const int full_end =
      std::min(c_end, lut.ncodebooks - lut.ncodebooks % kGroup);
  const std::int8_t* tables0 = lut.table_ptr(0, o0);
  const std::size_t group_bytes = lut.group_bytes();
  int c = c0;
  for (; c + 1 < full_end; c += 2)
    accumulate_pair(enc, n0, c,
                    tables0 + static_cast<std::size_t>(c / kGroup) *
                                  group_bytes +
                        16 * (c % kGroup),
                    kFullStride, ob, acc16);
  for (; c + 1 < c_end; c += 2)
    accumulate_pair(enc, n0, c, lut.table_ptr(c, o0), lut.out_stride(c), ob,
                    acc16);
  if (c < c_end) {
    // Trailing unpaired codebook: classic unpack + arithmetic-shift
    // sign extension.
    const __m256i zero = _mm256_setzero_si256();
    const __m256i codes = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(enc.codebook(c) + n0));
    const std::int8_t* tables = lut.table_ptr(c, o0);
    const std::size_t stride = lut.out_stride(c);
    for (int j = 0; j < ob; ++j) {
      const __m256i table = _mm256_broadcastsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(
              tables + static_cast<std::size_t>(j) * stride)));
      const __m256i v8 = _mm256_shuffle_epi8(table, codes);
      acc16[j][0] = _mm256_add_epi16(
          acc16[j][0], _mm256_srai_epi16(_mm256_unpacklo_epi8(zero, v8), 8));
      acc16[j][1] = _mm256_add_epi16(
          acc16[j][1], _mm256_srai_epi16(_mm256_unpackhi_epi8(zero, v8), 8));
    }
  }
}

template <class Sink>
SSMA_AVX2 void avx2_impl(const LutBankPacked& lut, const EncodedBatch& enc,
                         Sink sink) {
  const int nout = lut.nout;
  const int ncb = lut.ncodebooks;
  alignas(32) std::int16_t lanes[kRowBlock];
  for (std::size_t n0 = 0; n0 < enc.rows; n0 += kRowBlock) {
    for (int o0 = 0; o0 < nout; o0 += kOutBlock) {
      const int ob = std::min(kOutBlock, nout - o0);
      if (ncb <= kChunk) {
        // Single chunk: int16 partials are the exact int32 totals.
        __m256i acc16[kOutBlock][2];
        for (int j = 0; j < ob; ++j)
          acc16[j][0] = acc16[j][1] = _mm256_setzero_si256();
        accumulate_chunk(lut, enc, n0, o0, ob, 0, ncb, acc16);
        if (ob == kOutBlock) {
          // Full 4-output block: transpose the accumulators in-register
          // to per-row (o0..o0+3) quads and hand each to the sink as one
          // 64-bit lane — the scalar de-permute loop this replaces was a
          // material fraction of the kernel at large nout.
          for (int h = 0; h < 2; ++h) {
            // acc16[j][h] int16 lanes hold rows 8h..8h+7 (lane 0) and
            // 8h+16..8h+23 (lane 1); two unpack stages give, per
            // register, two consecutive rows' output quads per lane.
            const std::size_t base = n0 + 8 * static_cast<std::size_t>(h);
            const __m256i t01l =
                _mm256_unpacklo_epi16(acc16[0][h], acc16[1][h]);
            const __m256i t01h =
                _mm256_unpackhi_epi16(acc16[0][h], acc16[1][h]);
            const __m256i t23l =
                _mm256_unpacklo_epi16(acc16[2][h], acc16[3][h]);
            const __m256i t23h =
                _mm256_unpackhi_epi16(acc16[2][h], acc16[3][h]);
            const __m256i quads[4] = {_mm256_unpacklo_epi32(t01l, t23l),
                                      _mm256_unpackhi_epi32(t01l, t23l),
                                      _mm256_unpacklo_epi32(t01h, t23h),
                                      _mm256_unpackhi_epi32(t01h, t23h)};
            for (int g = 0; g < 4; ++g) {
              const std::size_t r = base + 2 * static_cast<std::size_t>(g);
              sink.quad2(r, o0, _mm256_castsi256_si128(quads[g]));
              sink.quad2(r + 16, o0,
                         _mm256_extracti128_si256(quads[g], 1));
            }
          }
        } else {
          for (int j = 0; j < ob; ++j)
            for (int h = 0; h < 2; ++h) {
              _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                                 acc16[j][h]);
              for (int i = 0; i < 16; ++i)
                sink.one16(n0 + static_cast<std::size_t>(lane_row(h, i)),
                           o0 + j, lanes[i]);
            }
        }
      } else {
        std::int32_t acc32[kOutBlock][kRowBlock] = {};
        for (int c0 = 0; c0 < ncb; c0 += kChunk) {
          __m256i acc16[kOutBlock][2];
          for (int j = 0; j < ob; ++j)
            acc16[j][0] = acc16[j][1] = _mm256_setzero_si256();
          accumulate_chunk(lut, enc, n0, o0, ob, c0,
                           std::min(ncb, c0 + kChunk), acc16);
          // Widen lane-for-lane (vectorizable); the row permutation is
          // resolved by the final sink dispatch below.
          for (int j = 0; j < ob; ++j)
            for (int h = 0; h < 2; ++h) {
              _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                                 acc16[j][h]);
              std::int32_t* dst32 = acc32[j] + h * 16;
              for (int i = 0; i < 16; ++i) dst32[i] += lanes[i];
            }
        }
        for (int j = 0; j < ob; ++j)
          for (int h = 0; h < 2; ++h)
            for (int i = 0; i < 16; ++i)
              sink.one32(n0 + static_cast<std::size_t>(lane_row(h, i)),
                         o0 + j, acc32[j][h * 16 + i]);
      }
    }
  }
}

}  // namespace

SSMA_AVX2 void apply_packed_avx2(const LutBankPacked& lut,
                                 const EncodedBatch& enc, std::int16_t* out) {
  avx2_impl(lut, enc,
            StoreSink{out, static_cast<std::size_t>(lut.nout), enc.rows});
}

SSMA_AVX2 void apply_fused_avx2(const LutBankPacked& lut,
                                const EncodedBatch& enc,
                                const FusedEpilogue& ep, std::uint8_t* dst) {
  avx2_impl(lut, enc,
            FusedSink{&lut, &ep, dst, static_cast<std::size_t>(lut.nout),
                      enc.rows});
}

}  // namespace ssma::maddness::detail

#endif  // SSMA_X86_SIMD
