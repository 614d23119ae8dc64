// AVX-512 tier of the packed LUT kernel (F, BW, VL, VBMI, VNNI). Its
// functions take their ISA from a target attribute instead of a -m flag
// on the TU, so the file needs no per-file build flag and the inline
// header code it instantiates outside them stays baseline-ISA; the
// dispatcher checks CPUID before calling in.
//
// Shape: LutBankPacked stores a four-codebook group's 16-entry tables
// for one output as one 64-byte run — exactly one vpermb table. Byte
// 4i+j of a group's index vector is row i's code in codebook 4g+j plus
// 16j, so one vpermb gathers the four codebooks' entries for 16 rows and
// one vpdpbusd against an all-ones unsigned operand adds each row's four
// signed bytes into its int32 lane. The int32 totals need no int16
// chunking; vpackssdw applies the one saturation.
//
// A tile is 16 rows x 16 outputs: sixteen accumulators, one per output,
// with one row per lane. The index vectors of a chunk of row blocks are
// built once; each output block then walks the chunk's rows while its
// slice of the bank stays L1-resident. A finished tile is packed and
// transposed in-register (two vpermt2b stages) into row-major int16 rows
// (store sink) or uint8 rows (fused sink). A ragged last row block runs
// the same tile code over the encode cache's padded codes, and only its
// valid rows are stored.
#include <algorithm>
#include <vector>

#include "maddness/lut_kernel.hpp"

#if defined(SSMA_X86_SIMD)

#include <immintrin.h>

#define SSMA_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512vbmi,avx512vnni")))

namespace ssma::maddness::detail {

namespace {

constexpr std::size_t kRowBlock = 16;
constexpr int kOutBlock = 16;
constexpr int kGroup = LutBankPacked::kGroup;
constexpr int kGroupBytes = kGroup * 16;  ///< one vpermb table
/// Index vectors kept on the stack for a chunk of row blocks, so each
/// output block's slice of the bank stays L1-resident while it walks the
/// chunk's rows. A bank whose one row block needs more (over 512
/// codebooks) puts them on the heap.
constexpr std::size_t kIdxBytes = 8192;

/// All-ones masks for the maskz_ forms: GCC 12 raises false
/// -Wmaybe-uninitialized errors on the unmasked forms of several
/// AVX-512 intrinsics (GCC PR 105593).
constexpr __mmask16 kAll16 = 0xFFFF;
constexpr __mmask64 kAll64 = ~__mmask64{0};

struct alignas(64) Bytes64 {
  std::uint8_t b[64] = {};
};

/// Byte 4i+j takes byte i of 128-bit lane j: the four codebooks' codes
/// of one row land in one int32 lane.
constexpr Bytes64 interleave_codes() {
  Bytes64 t;
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < kGroup; ++j)
      t.b[4 * i + j] = static_cast<std::uint8_t>(16 * j + i);
  return t;
}

/// 16j on byte 4i+j: codebook j's table is bytes [16j, 16j+16).
constexpr Bytes64 codebook_offsets() {
  Bytes64 t;
  for (int i = 0; i < 64; ++i) t.b[i] = static_cast<std::uint8_t>(16 * (i % 4));
  return t;
}

// In-register transpose of a 16-row x 16-byte-column tile held in four
// registers S[n] (columns 4n..4n+3), each 128-bit lane L holding rows
// 4L..4L+3 as a 4x4 block whose byte order depends on how the sink
// packed it (src_byte below). The result D[k] holds rows 4k..4k+3 in its
// four lanes, 16 bytes per row. Stage 1 swaps column bit 3 with row bit
// 3: T[r3 + 2 * j2] = rows 8*r3.. of columns with bit 2 = j2, 8 bytes a
// row. Stage 2 swaps column bit 2 with row bit 2.

/// Byte of (row r, byte column j) in S[j / 4]. The int16 tile is
/// vpackssdw of output pairs (columns 2o, 2o+1 are output o's bytes);
/// the uint8 tile is vpackuswb of two such int16 packs.
constexpr int src_byte(bool int16, int r, int j) {
  const int base = 16 * (r / 4);
  return int16 ? base + 8 * ((j % 4) / 2) + 2 * (r % 4) + (j % 2)
               : base + 4 * (j % 4) + (r % 4);
}

constexpr Bytes64 stage1(bool int16, int r3) {
  Bytes64 t;
  for (int p = 0; p < 64; ++p) {
    const int q = p % 8;
    const int r = 8 * r3 + p / 8;
    t.b[p] = static_cast<std::uint8_t>(64 * (q / 4) +
                                       src_byte(int16, r, q % 4));
  }
  return t;
}

constexpr Bytes64 stage2(int r2) {
  Bytes64 t;
  for (int p = 0; p < 64; ++p) {
    const int j = p % 16;
    const int r8 = 4 * r2 + p / 16;  // row within the stage-1 half
    t.b[p] = static_cast<std::uint8_t>(64 * ((j / 4) % 2) + 8 * r8 +
                                       4 * (j / 8) + (j % 4));
  }
  return t;
}

constexpr Bytes64 kInterleave = interleave_codes();
constexpr Bytes64 kOffsets = codebook_offsets();
constexpr Bytes64 kStage1Int16[2] = {stage1(true, 0), stage1(true, 1)};
constexpr Bytes64 kStage1Uint8[2] = {stage1(false, 0), stage1(false, 1)};
constexpr Bytes64 kStage2[2] = {stage2(0), stage2(1)};

SSMA_AVX512 inline __m512i load64(const Bytes64& t) {
  return _mm512_load_si512(t.b);
}

SSMA_AVX512 inline void transpose16x16(const __m512i s[4],
                                       const Bytes64 st1[2],
                                       __m512i d[4]) {
  const __m512i lo = load64(st1[0]);
  const __m512i hi = load64(st1[1]);
  const __m512i t0 = _mm512_permutex2var_epi8(s[0], lo, s[2]);
  const __m512i t1 = _mm512_permutex2var_epi8(s[0], hi, s[2]);
  const __m512i t2 = _mm512_permutex2var_epi8(s[1], lo, s[3]);
  const __m512i t3 = _mm512_permutex2var_epi8(s[1], hi, s[3]);
  const __m512i a = load64(kStage2[0]);
  const __m512i b = load64(kStage2[1]);
  d[0] = _mm512_permutex2var_epi8(t0, a, t2);
  d[1] = _mm512_permutex2var_epi8(t0, b, t2);
  d[2] = _mm512_permutex2var_epi8(t1, a, t3);
  d[3] = _mm512_permutex2var_epi8(t1, b, t3);
}

/// Stores a transposed tile's first `nrows` rows (row 4k+L is lane L of
/// d[k]) to base + row * row_bytes, the first `nbytes` bytes of each.
SSMA_AVX512 inline void store_rows(const __m512i d[4], std::uint8_t* base,
                                   std::size_t row_bytes, int nrows,
                                   int nbytes) {
  const __mmask16 mask = static_cast<__mmask16>((1u << nbytes) - 1);
#pragma GCC unroll 4
  for (int k = 0; k < 4; ++k) {
    if (4 * k >= nrows) break;
    const __m128i rows[4] = {_mm512_maskz_extracti32x4_epi32(0xF, d[k], 0),
                             _mm512_maskz_extracti32x4_epi32(0xF, d[k], 1),
                             _mm512_maskz_extracti32x4_epi32(0xF, d[k], 2),
                             _mm512_maskz_extracti32x4_epi32(0xF, d[k], 3)};
#pragma GCC unroll 4
    for (int l = 0; l < 4; ++l) {
      if (4 * k + l >= nrows) break;
      std::uint8_t* p =
          base + static_cast<std::size_t>(4 * k + l) * row_bytes;
      if (nbytes == 16)
        _mm_storeu_si128(reinterpret_cast<__m128i*>(p), rows[l]);
      else
        _mm_mask_storeu_epi8(p, mask, rows[l]);
    }
  }
}

/// Classic accumulate: int16 rows land in the int16 output.
struct StoreSink {
  std::int16_t* out;
  std::size_t nout;

  SSMA_AVX512 void tile(std::size_t n0, int nrows, int o0, int ob,
                        const __m512i acc[kOutBlock]) const {
    __m512i packed[8];
#pragma GCC unroll 8
    for (int m = 0; m < 8; ++m)
      packed[m] = _mm512_packs_epi32(acc[2 * m], acc[2 * m + 1]);
    for (int h = 0; h < 2; ++h) {
      const int valid = std::min(8, ob - 8 * h);
      if (valid <= 0) break;
      __m512i d[4];
      transpose16x16(packed + 4 * h, kStage1Int16, d);
      store_rows(d,
                 reinterpret_cast<std::uint8_t*>(
                     out + n0 * nout + static_cast<std::size_t>(o0 + 8 * h)),
                 nout * sizeof(std::int16_t), nrows, 2 * valid);
    }
  }
};

/// Fused stage handoff from the epilogue's verified table: per output,
/// convert the int32 totals, one FMA with the column's (mul, add), and
/// truncate; the saturating packs clamp to [0, 255], as the table was
/// checked to do. Columns marked exact take fused_requantize on their
/// lanes instead.
struct FusedSink {
  const LutBankPacked* lut;
  const FusedEpilogue* ep;
  std::uint8_t* dst;
  std::size_t nout;

  /// The exact path: column o's 16 lanes through fused_requantize.
  SSMA_AVX512 __attribute__((noinline)) __m512i exact_column(__m512i acc,
                                                             int o) const {
    alignas(64) std::int32_t lanes[kRowBlock];
    _mm512_store_si512(lanes, acc);
    for (std::int32_t& v : lanes)
      v = fused_requantize(saturate_acc16(v), packed_scale(*lut, o),
                           ep->next_scale);
    return _mm512_load_si512(lanes);
  }

  SSMA_AVX512 void tile(std::size_t n0, int nrows, int o0, int ob,
                        const __m512i acc[kOutBlock]) const {
    __m512i r[kOutBlock];
#pragma GCC unroll 16
    for (int j = 0; j < kOutBlock; ++j) {
      // Columns past a ragged block's end repeat its last column; their
      // bytes are never stored.
      const auto o = static_cast<std::size_t>(o0 + std::min(j, ob - 1));
      r[j] = _mm512_maskz_cvttps_epi32(
          kAll16, _mm512_fmadd_ps(_mm512_maskz_cvtepi32_ps(kAll16, acc[j]),
                                  _mm512_set1_ps(ep->mul[o]),
                                  _mm512_set1_ps(ep->add[o])));
    }
    if (const unsigned marked = ep->exact_bits(o0, ob)) {
#pragma GCC unroll 16
      for (int j = 0; j < kOutBlock; ++j)
        if (marked >> j & 1u) r[j] = exact_column(acc[j], o0 + j);
    }
    __m512i bytes[4];
#pragma GCC unroll 4
    for (int n = 0; n < 4; ++n)
      bytes[n] = _mm512_packus_epi16(
          _mm512_packs_epi32(r[4 * n], r[4 * n + 1]),
          _mm512_packs_epi32(r[4 * n + 2], r[4 * n + 3]));
    __m512i d[4];
    transpose16x16(bytes, kStage1Uint8, d);
    store_rows(d, dst + n0 * nout + static_cast<std::size_t>(o0), nout,
               nrows, ob);
  }
};

/// Index vectors of every group for rows n0..n0+15 into idx: lane j of
/// group g's codes is codebook 4g+j's 16 codes (zero past a ragged last
/// group, which then reads its table's zeroed bytes). A ragged last row
/// block reads the encode cache's pad rows, whose code is 0.
SSMA_AVX512 void build_indices(const EncodedBatch& enc, std::size_t n0,
                               std::uint8_t* idx) {
  const __m512i interleave = load64(kInterleave);
  const __m512i offsets = load64(kOffsets);
  const int ngroups = (enc.ncodebooks + kGroup - 1) / kGroup;
  for (int g = 0; g < ngroups; ++g) {
    __m128i lanes[kGroup];
    for (int j = 0; j < kGroup; ++j) {
      const int c = kGroup * g + j;
      lanes[j] = c < enc.ncodebooks
                     ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                           enc.codebook(c) + n0))
                     : _mm_setzero_si128();
    }
    __m512i v = _mm512_zextsi128_si512(lanes[0]);
    v = _mm512_inserti32x4(v, lanes[1], 1);
    v = _mm512_inserti32x4(v, lanes[2], 2);
    v = _mm512_inserti32x4(v, lanes[3], 3);
    v = _mm512_or_si512(_mm512_maskz_permutexvar_epi8(kAll64, interleave, v),
                        offsets);
    _mm512_storeu_si512(idx + 64 * static_cast<std::size_t>(g), v);
  }
}

/// Accumulates one 16-row x 16-output tile over every codebook and hands
/// it to the sink. A full group's table for output o0+j is 64 bytes at
/// tables + 64 * j, the next group's group_bytes further on; a ragged
/// last group (kRaggedGroup) is read with a masked load at its own
/// width. kFullBlock false is the ragged last output block, whose
/// columns past ob repeat column ob-1. Each variant is its own function:
/// inlined together, GCC 12 copies and spills the sixteen accumulators
/// around the hot loop.
template <bool kFullBlock, bool kRaggedGroup, class Sink>
SSMA_AVX512 __attribute__((noinline)) void run_tile(
    const LutBankPacked& lut, std::size_t n0, int nrows, int o0, int ob,
    const std::uint8_t* idx, const Sink& sink) {
  const int nfull = lut.ncodebooks / kGroup;
  const __m512i ones = _mm512_set1_epi8(1);
  __m512i acc[kOutBlock];
#pragma GCC unroll 16
  for (int j = 0; j < kOutBlock; ++j) acc[j] = _mm512_setzero_si512();
  if (kRaggedGroup) {
    const int width = lut.ncodebooks - kGroup * nfull;
    const __mmask64 mask = (__mmask64{1} << (16 * width)) - 1;
    const std::int8_t* last = lut.table_ptr(kGroup * nfull, o0);
    const __m512i gi = _mm512_loadu_si512(idx + 64 * nfull);
#pragma GCC unroll 16
    for (int j = 0; j < kOutBlock; ++j) {
      const int col = kFullBlock ? j : std::min(j, ob - 1);
      acc[j] = _mm512_dpbusd_epi32(
          acc[j], ones,
          _mm512_maskz_permutexvar_epi8(
              kAll64, gi,
              _mm512_maskz_loadu_epi8(mask, last + 16 * width * col)));
    }
  }
  const std::size_t group_bytes = lut.group_bytes();
  const std::int8_t* tables = lut.table_ptr(0, o0);
  for (int g = 0; g < nfull; ++g, tables += group_bytes) {
    const __m512i gi = _mm512_loadu_si512(idx + 64 * g);
#pragma GCC unroll 16
    for (int j = 0; j < kOutBlock; ++j) {
      const int col = kFullBlock ? j : std::min(j, ob - 1);
      acc[j] = _mm512_dpbusd_epi32(
          acc[j], ones,
          _mm512_maskz_permutexvar_epi8(
              kAll64, gi, _mm512_loadu_si512(tables + kGroupBytes * col)));
    }
  }
  sink.tile(n0, nrows, o0, ob, acc);
}

template <class Sink>
SSMA_AVX512 void avx512_impl(const LutBankPacked& lut,
                             const EncodedBatch& enc, const Sink& sink) {
  const int nout = lut.nout;
  const std::size_t rows = enc.rows;
  const bool ragged_group = lut.ncodebooks % kGroup != 0;
  // One row block's index vectors, and the row blocks of one chunk.
  const std::size_t block_bytes =
      64 * static_cast<std::size_t>((lut.ncodebooks + kGroup - 1) / kGroup);
  const std::size_t chunk_blocks =
      block_bytes == 0 || block_bytes > kIdxBytes ? 1
                                                  : kIdxBytes / block_bytes;
  alignas(64) std::uint8_t stack_idx[kIdxBytes];
  std::vector<std::uint8_t> heap_idx;
  std::uint8_t* idx = stack_idx;
  if (block_bytes > kIdxBytes) {
    heap_idx.resize(block_bytes);
    idx = heap_idx.data();
  }
  for (std::size_t r0 = 0; r0 < rows; r0 += chunk_blocks * kRowBlock) {
    const std::size_t r1 = std::min(rows, r0 + chunk_blocks * kRowBlock);
    for (std::size_t n0 = r0; n0 < r1; n0 += kRowBlock)
      build_indices(enc, n0, idx + (n0 - r0) / kRowBlock * block_bytes);
    for (int o0 = 0; o0 < nout; o0 += kOutBlock) {
      const int ob = std::min(kOutBlock, nout - o0);
      for (std::size_t n0 = r0; n0 < r1; n0 += kRowBlock) {
        const int nrows = static_cast<int>(std::min(kRowBlock, r1 - n0));
        const std::uint8_t* block_idx =
            idx + (n0 - r0) / kRowBlock * block_bytes;
        if (ob == kOutBlock && !ragged_group)
          run_tile<true, false>(lut, n0, nrows, o0, ob, block_idx, sink);
        else if (ob == kOutBlock)
          run_tile<true, true>(lut, n0, nrows, o0, ob, block_idx, sink);
        else if (!ragged_group)
          run_tile<false, false>(lut, n0, nrows, o0, ob, block_idx, sink);
        else
          run_tile<false, true>(lut, n0, nrows, o0, ob, block_idx, sink);
      }
    }
  }
}

}  // namespace

void apply_packed_avx512(const LutBankPacked& lut, const EncodedBatch& enc,
                         std::int16_t* out) {
  avx512_impl(lut, enc, StoreSink{out, static_cast<std::size_t>(lut.nout)});
}

void apply_fused_avx512(const LutBankPacked& lut, const EncodedBatch& enc,
                        const FusedEpilogue& ep, std::uint8_t* dst) {
  avx512_impl(lut, enc,
              FusedSink{&lut, &ep, dst, static_cast<std::size_t>(lut.nout)});
}

}  // namespace ssma::maddness::detail

#endif  // SSMA_X86_SIMD
