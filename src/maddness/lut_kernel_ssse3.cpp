// SSSE3 tier of the packed LUT kernel: the XMM-width sibling of the AVX2
// tier (see lut_kernel_avx2.cpp for the scheme). One pshufb gathers 16
// rows; sign extension uses the SSE2 unpack+arithmetic-shift idiom since
// pmovsxbw is SSE4.1. Same chunked int16 -> int32 -> saturate-once
// contract, bit-identical to the reference kernel.
//
// The tile walk is templated over a sink: the store sink writes int16
// accumulators (classic accumulate), the fused sink runs the stage
// handoff (dequantize -> ReLU -> requantize) on each finished tile and
// writes the next stage's uint8 activations — the accumulators never
// reach memory.
#include <algorithm>
#include <cstring>

#include "maddness/lut_kernel.hpp"

#if defined(__SSSE3__)
#include <immintrin.h>
#endif

namespace ssma::maddness::detail {

#if defined(__SSSE3__)

namespace {

constexpr std::size_t kRowBlock = 16;
constexpr int kOutBlock = 4;
constexpr int kChunk = 256;

/// Classic accumulate: int16 quads / elements land in the int16 output.
struct StoreSink {
  std::int16_t* out;
  std::size_t nout;
  /// `q` holds outputs o0..o0+3 of row `r` in its low 64 bits and of
  /// row `r+1` in its high 64 bits.
  void quad2(std::size_t r, int o0, __m128i q) const {
    std::int16_t* d = out + r * nout + static_cast<std::size_t>(o0);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(d), q);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(d + nout),
                     _mm_unpackhi_epi64(q, q));
  }
  void one16(std::size_t r, int o, std::int16_t v) const {
    out[r * nout + static_cast<std::size_t>(o)] = v;
  }
  void one32(std::size_t r, int o, std::int32_t v) const {
    one16(r, o, saturate_acc16(v));
  }
};

/// Fused stage handoff: each finished int16 quad dequantizes, rectifies
/// and requantizes in-register into the next stage's uint8 activation
/// row, bit-identical to fused_requantize without its double divide:
/// a reciprocal multiply proposes a candidate within +-1 and one
/// exact-boundary comparison step corrects it. See the AVX2 tier's
/// FusedSink for the gap-lemma argument that makes the boundary
/// comparisons ((k +- 0.5) * next_scale, exact in double) decide the
/// reference's round-half-away of fl64(y / next_scale) exactly. All
/// vector ops used here are SSE2-level, so the SSSE3 tier qualifies.
struct FusedSink {
  const LutBankPacked* lut;
  std::uint8_t* dst;
  float next_scale;
  float inv_next;  ///< fl(1/next_scale); next_scale is a normal float
  std::size_t nout;

  /// Exact-boundary correction for one pair of lanes: c integral in
  /// [0, 255], y the dequantized pair, sd double(next_scale). Result is
  /// integral in [-1, 256], so cvttpd is exact.
  static __m128i fixup(__m128d c, __m128d y, __m128d sd) {
    const __m128d half = _mm_set1_pd(0.5);
    const __m128d one = _mm_set1_pd(1.0);
    const __m128d hi = _mm_mul_pd(_mm_add_pd(c, half), sd);
    const __m128d lo = _mm_mul_pd(_mm_sub_pd(c, half), sd);
    c = _mm_add_pd(c, _mm_and_pd(_mm_cmpge_pd(y, hi), one));
    c = _mm_sub_pd(c, _mm_and_pd(_mm_cmplt_pd(y, lo), one));
    return _mm_cvttpd_epi32(c);
  }

  /// Four lanes: candidates from one reciprocal multiply (clamped to
  /// [0, 255]; the clamp absorbs negatives and +-inf overflows, and no
  /// lane can be NaN since inv_next is finite), then per-pair fixup.
  __m128i quad(__m128 y) const {
    const __m128 qf = _mm_min_ps(
        _mm_max_ps(_mm_mul_ps(y, _mm_set1_ps(inv_next)),
                   _mm_setzero_ps()),
        _mm_set1_ps(255.0f));
    const __m128i c = _mm_cvtps_epi32(qf);
    const __m128d sd = _mm_set1_pd(static_cast<double>(next_scale));
    return _mm_unpacklo_epi64(
        fixup(_mm_cvtepi32_pd(c), _mm_cvtps_pd(y), sd),
        fixup(_mm_cvtepi32_pd(_mm_srli_si128(c, 8)),
              _mm_cvtps_pd(_mm_movehl_ps(y, y)), sd));
  }

  /// Requantizes rows r and r+1 (outputs o0..o0+3 each, packed in q's
  /// two 64-bit halves) in one shot: the column scales, sign extension
  /// and pack chain are shared across the row pair.
  void quad2(std::size_t r, int o0, __m128i q) const {
    const __m128 scales =
        lut->per_column_scale
            ? _mm_loadu_ps(lut->scales.data() + o0)
            : _mm_set1_ps(lut->scales[0]);
    const __m128i w_lo = _mm_srai_epi32(_mm_unpacklo_epi16(q, q), 16);
    const __m128i w_hi = _mm_srai_epi32(_mm_unpackhi_epi16(q, q), 16);
    const __m128i r0 = quad(_mm_mul_ps(_mm_cvtepi32_ps(w_lo), scales));
    const __m128i r1 = quad(_mm_mul_ps(_mm_cvtepi32_ps(w_hi), scales));
    const __m128i p16 = _mm_packs_epi32(r0, r1);     // in [-1, 256]: exact
    const __m128i p8 = _mm_packus_epi16(p16, p16);   // the [0, 255] clamp
    std::uint8_t* d = dst + r * nout + static_cast<std::size_t>(o0);
    const int b0 = _mm_cvtsi128_si32(p8);
    const int b1 = _mm_cvtsi128_si32(_mm_srli_si128(p8, 4));
    std::memcpy(d, &b0, 4);
    std::memcpy(d + nout, &b1, 4);
  }
  void one16(std::size_t r, int o, std::int16_t v) const {
    dst[r * nout + static_cast<std::size_t>(o)] =
        fused_requantize(v, packed_scale(*lut, o), next_scale);
  }
  void one32(std::size_t r, int o, std::int32_t v) const {
    one16(r, o, saturate_acc16(v));
  }
};

/// Codebook pair c, c+1: interleave the two gathered vectors and let
/// pmaddubsw against all-ones sum each (A_i, B_i) byte pair into int16
/// — exact, since |A| + |B| <= 256 never saturates (see the AVX2 tier
/// for the full argument). Codebook c's table for output o0+j is at
/// tables + j * stride; c+1 shares its group, 16 bytes further on.
inline void accumulate_pair(const EncodedBatch& enc, std::size_t n0, int c,
                            const std::int8_t* tables, std::size_t stride,
                            int ob, __m128i acc16[][2]) {
  const __m128i ones = _mm_set1_epi8(1);
  const __m128i codes_a = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(enc.codebook(c) + n0));
  const __m128i codes_b = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(enc.codebook(c + 1) + n0));
  for (int j = 0; j < ob; ++j) {
    const std::int8_t* t = tables + static_cast<std::size_t>(j) * stride;
    const __m128i va = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t)), codes_a);
    const __m128i vb = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + 16)), codes_b);
    acc16[j][0] = _mm_add_epi16(
        acc16[j][0], _mm_maddubs_epi16(ones, _mm_unpacklo_epi8(va, vb)));
    acc16[j][1] = _mm_add_epi16(
        acc16[j][1], _mm_maddubs_epi16(ones, _mm_unpackhi_epi8(va, vb)));
  }
}

template <class Sink>
void ssse3_impl(const LutBankPacked& lut, const EncodedBatch& enc,
                std::size_t full, Sink sink) {
  const int nout = lut.nout;
  const int ncb = lut.ncodebooks;
  alignas(16) std::int16_t lanes[kRowBlock];
  const __m128i zero = _mm_setzero_si128();
  for (std::size_t n0 = 0; n0 < full; n0 += kRowBlock) {
    for (int o0 = 0; o0 < nout; o0 += kOutBlock) {
      const int ob = std::min(kOutBlock, nout - o0);
      const auto accumulate_chunk = [&](int c0, int c_end,
                                        __m128i acc16[][2]) {
        // Pairs in full groups use the layout's closed form, as in the
        // AVX2 tier; a ragged last group goes through table_ptr.
        constexpr int kGroup = LutBankPacked::kGroup;
        constexpr std::size_t kFullStride = kGroup * 16;  // full groups
        const int full_end = std::min(c_end, ncb - ncb % kGroup);
        const std::int8_t* tables0 = lut.table_ptr(0, o0);
        const std::size_t group_bytes = lut.group_bytes();
        int c = c0;
        for (; c + 1 < full_end; c += 2)
          accumulate_pair(enc, n0, c,
                          tables0 +
                              static_cast<std::size_t>(c / kGroup) *
                                  group_bytes +
                              16 * (c % kGroup),
                          kFullStride, ob, acc16);
        for (; c + 1 < c_end; c += 2)
          accumulate_pair(enc, n0, c, lut.table_ptr(c, o0),
                          lut.out_stride(c), ob, acc16);
        if (c < c_end) {
          const __m128i codes = _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(enc.codebook(c) + n0));
          const std::int8_t* tables = lut.table_ptr(c, o0);
          const std::size_t stride = lut.out_stride(c);
          for (int j = 0; j < ob; ++j) {
            const __m128i table = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(
                    tables + static_cast<std::size_t>(j) * stride));
            const __m128i v8 = _mm_shuffle_epi8(table, codes);
            // unpack(zero, v) places v's bytes in each word's high half;
            // >>a 8 sign-extends, keeping lane order 0..7 / 8..15.
            acc16[j][0] = _mm_add_epi16(
                acc16[j][0],
                _mm_srai_epi16(_mm_unpacklo_epi8(zero, v8), 8));
            acc16[j][1] = _mm_add_epi16(
                acc16[j][1],
                _mm_srai_epi16(_mm_unpackhi_epi8(zero, v8), 8));
          }
        }
      };
      if (ncb <= kChunk) {
        // One chunk cannot wrap int16: the accumulators already hold the
        // exact int32 totals, clamped-by-construction.
        __m128i acc16[kOutBlock][2];
        for (int j = 0; j < ob; ++j) acc16[j][0] = acc16[j][1] = zero;
        accumulate_chunk(0, ncb, acc16);
        if (ob == kOutBlock) {
          // Transpose to per-row output quads and hand each to the sink
          // as one 64-bit lane (see the AVX2 tier) — acc16[j][h] holds
          // rows 8h..8h+7 in order, so the unpacked quads come out
          // row-sequential.
          for (int h = 0; h < 2; ++h) {
            const std::size_t base = n0 + 8 * static_cast<std::size_t>(h);
            const __m128i t01l =
                _mm_unpacklo_epi16(acc16[0][h], acc16[1][h]);
            const __m128i t01h =
                _mm_unpackhi_epi16(acc16[0][h], acc16[1][h]);
            const __m128i t23l =
                _mm_unpacklo_epi16(acc16[2][h], acc16[3][h]);
            const __m128i t23h =
                _mm_unpackhi_epi16(acc16[2][h], acc16[3][h]);
            const __m128i quads[4] = {_mm_unpacklo_epi32(t01l, t23l),
                                      _mm_unpackhi_epi32(t01l, t23l),
                                      _mm_unpacklo_epi32(t01h, t23h),
                                      _mm_unpackhi_epi32(t01h, t23h)};
            for (int g = 0; g < 4; ++g)
              sink.quad2(base + 2 * static_cast<std::size_t>(g), o0,
                         quads[g]);
          }
        } else {
          for (int j = 0; j < ob; ++j)
            for (int h = 0; h < 2; ++h) {
              _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                              acc16[j][h]);
              for (int i = 0; i < 8; ++i)
                sink.one16(n0 + static_cast<std::size_t>(h) * 8 +
                               static_cast<std::size_t>(i),
                           o0 + j, lanes[i]);
            }
        }
      } else {
        std::int32_t acc32[kOutBlock][kRowBlock] = {};
        for (int c0 = 0; c0 < ncb; c0 += kChunk) {
          __m128i acc16[kOutBlock][2];
          for (int j = 0; j < ob; ++j) acc16[j][0] = acc16[j][1] = zero;
          accumulate_chunk(c0, std::min(ncb, c0 + kChunk), acc16);
          for (int j = 0; j < ob; ++j)
            for (int h = 0; h < 2; ++h) {
              _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                              acc16[j][h]);
              std::int32_t* dst32 = acc32[j] + h * 8;
              for (int i = 0; i < 8; ++i) dst32[i] += lanes[i];
            }
        }
        for (int j = 0; j < ob; ++j)
          for (std::size_t i = 0; i < kRowBlock; ++i)
            sink.one32(n0 + i, o0 + j, acc32[j][i]);
      }
    }
  }
}

}  // namespace

bool ssse3_compiled_in() { return true; }

void apply_packed_ssse3(const LutBankPacked& lut, const EncodedBatch& enc,
                        std::int16_t* out) {
  const std::size_t full = enc.rows - enc.rows % kRowBlock;
  ssse3_impl(lut, enc, full,
             StoreSink{out, static_cast<std::size_t>(lut.nout)});
  apply_packed_scalar_rows(lut, enc, full, out);
}

void apply_fused_ssse3(const LutBankPacked& lut, const EncodedBatch& enc,
                       const FusedEpilogue& ep, std::uint8_t* dst) {
  const std::size_t full = enc.rows - enc.rows % kRowBlock;
  ssse3_impl(lut, enc, full,
             FusedSink{&lut, dst, ep.next_scale, 1.0f / ep.next_scale,
                       static_cast<std::size_t>(lut.nout)});
  apply_fused_scalar_rows(lut, enc, ep, full, dst);
}

#else  // !defined(__SSSE3__)

bool ssse3_compiled_in() { return false; }

void apply_packed_ssse3(const LutBankPacked& lut, const EncodedBatch& enc,
                        std::int16_t* out) {
  apply_packed_scalar(lut, enc, out);
}

void apply_fused_ssse3(const LutBankPacked& lut, const EncodedBatch& enc,
                       const FusedEpilogue& ep, std::uint8_t* dst) {
  apply_fused_scalar(lut, enc, ep, dst);
}

#endif

}  // namespace ssma::maddness::detail
