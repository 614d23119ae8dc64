#include "maddness/lut_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(SSMA_TRACE_ENABLED)
#include <chrono>
#endif

#include "ppa/tech_constants.hpp"
#include "telemetry/kernel_profile.hpp"
#include "util/check.hpp"

namespace ssma::maddness {

static_assert(telemetry::kNumKernelTiers ==
                  static_cast<int>(KernelTier::kAvx512) + 1,
              "telemetry counts one slot per KernelTier");

namespace {

KernelTier parse_tier_env(const char* s, KernelTier fallback) {
  if (!s) return fallback;
  // "ssse3" named a retired tier: it pins the scalar kernel, which is
  // what a CPU without AVX2 now runs.
  if (std::strcmp(s, "ssse3") == 0) return KernelTier::kScalar;
  for (int t = 0; t < telemetry::kNumKernelTiers; ++t)
    if (std::strcmp(s, kernel_tier_name(static_cast<KernelTier>(t))) == 0)
      return static_cast<KernelTier>(t);
  return fallback;
}

}  // namespace

namespace detail {

KernelTier clamp_tier_by_env(KernelTier best) {
  const KernelTier want = parse_tier_env(std::getenv("SSMA_KERNEL"), best);
  return static_cast<int>(want) < static_cast<int>(best) ? want : best;
}

}  // namespace detail

const char* kernel_tier_name(KernelTier tier) {
  return telemetry::kernel_tier_label(static_cast<int>(tier));
}

bool kernel_tier_available(KernelTier tier) {
#if defined(SSMA_X86_SIMD)
  switch (tier) {
    case KernelTier::kScalar:
      return true;
    case KernelTier::kAvx2:
      return __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("fma");
    case KernelTier::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512vbmi") &&
             __builtin_cpu_supports("avx512vnni");
  }
  return false;
#else
  return tier == KernelTier::kScalar;
#endif
}

std::vector<KernelTier> available_kernel_tiers() {
  std::vector<KernelTier> tiers;
  for (int t = 0; t <= static_cast<int>(KernelTier::kAvx512); ++t)
    if (kernel_tier_available(static_cast<KernelTier>(t)))
      tiers.push_back(static_cast<KernelTier>(t));
  return tiers;
}

KernelTier best_kernel_tier() { return available_kernel_tiers().back(); }

KernelTier select_kernel_tier() {
  static const KernelTier tier = detail::clamp_tier_by_env(best_kernel_tier());
  return tier;
}

EncodedBatch make_encoded_batch(const std::vector<std::uint8_t>& row_major,
                                std::size_t rows, int ncodebooks) {
  SSMA_CHECK(row_major.size() ==
             rows * static_cast<std::size_t>(ncodebooks));
  EncodedBatch enc;
  enc.resize(rows, ncodebooks);
  for (int c = 0; c < ncodebooks; ++c) {
    std::uint8_t* codes = enc.codebook(c);
    for (std::size_t n = 0; n < rows; ++n)
      codes[n] = row_major[n * static_cast<std::size_t>(ncodebooks) + c];
  }
  return enc;
}

std::vector<std::int16_t> apply_lut_reference(
    const LutBank& lut, const std::vector<std::uint8_t>& row_major_codes,
    std::size_t rows) {
  const int nout = lut.nout;
  const int nk = lut.cfg.nprototypes();
  const int ncb = lut.cfg.ncodebooks;
  SSMA_CHECK(row_major_codes.size() ==
             rows * static_cast<std::size_t>(ncb));
  std::vector<std::int16_t> out(rows * static_cast<std::size_t>(nout), 0);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(nout));
  for (std::size_t n = 0; n < rows; ++n) {
    std::fill(acc.begin(), acc.end(), 0);
    for (int c = 0; c < ncb; ++c) {
      const int leaf = row_major_codes[n * static_cast<std::size_t>(ncb) + c];
      SSMA_CHECK_MSG(leaf < nk, "leaf code out of prototype range");
      const std::int8_t* lrow =
          lut.q.data() + (static_cast<std::size_t>(c) * nk + leaf) *
                             static_cast<std::size_t>(nout);
      for (int o = 0; o < nout; ++o) acc[o] += lrow[o];
    }
    std::int16_t* orow = out.data() + n * static_cast<std::size_t>(nout);
    for (int o = 0; o < nout; ++o) orow[o] = detail::saturate_acc16(acc[o]);
  }
  return out;
}

namespace detail {

namespace {

// Blocked scalar kernel. Tile shape: kRowBlock rows x kOutBlock outputs.
// Within a tile the working set is tiny — kRowBlock codes per codebook,
// kOutBlock 16-byte tables (out_stride apart), and a kRowBlock x
// kOutBlock int32 accumulator patch — so every LUT byte is read from
// L1. The sink decides what a finished accumulator row becomes: an
// int16 store (classic accumulate) or the fused dequantize -> ReLU ->
// requantize handoff to the next stage's uint8 activations — either way
// straight from the L1-hot tile.
template <class Sink>
void scalar_impl(const LutBankPacked& lut, const EncodedBatch& enc,
                 Sink sink) {
  constexpr std::size_t kRowBlock = 32;
  constexpr int kOutBlock = 16;
  const int nout = lut.nout;
  const std::size_t rows = enc.rows;
  std::int32_t acc[kRowBlock * kOutBlock];
  for (std::size_t n0 = 0; n0 < rows; n0 += kRowBlock) {
    const std::size_t nb = std::min(kRowBlock, rows - n0);
    for (int o0 = 0; o0 < nout; o0 += kOutBlock) {
      const int ob = std::min(kOutBlock, nout - o0);
      std::fill(acc, acc + nb * static_cast<std::size_t>(ob), 0);
      for (int c = 0; c < lut.ncodebooks; ++c) {
        const std::uint8_t* codes = enc.codebook(c) + n0;
        const std::int8_t* tables = lut.table_ptr(c, o0);
        const std::size_t stride = lut.out_stride(c);
        for (std::size_t i = 0; i < nb; ++i) {
          const std::int8_t* entry = tables + codes[i];
          std::int32_t* arow = acc + i * static_cast<std::size_t>(ob);
          for (int j = 0; j < ob; ++j)
            arow[j] += entry[static_cast<std::size_t>(j) * stride];
        }
      }
      for (std::size_t i = 0; i < nb; ++i)
        sink.row32(n0 + i, o0, ob,
                   acc + i * static_cast<std::size_t>(ob));
    }
  }
}

struct StoreRowSink {
  std::int16_t* out;
  std::size_t nout;
  void row32(std::size_t r, int o0, int ob, const std::int32_t* a) const {
    std::int16_t* orow = out + r * nout + static_cast<std::size_t>(o0);
    for (int j = 0; j < ob; ++j) orow[j] = saturate_acc16(a[j]);
  }
};

struct FusedRowSink {
  const LutBankPacked* lut;
  std::uint8_t* dst;
  float next_scale;
  std::size_t nout;
  void row32(std::size_t r, int o0, int ob, const std::int32_t* a) const {
    std::uint8_t* drow = dst + r * nout + static_cast<std::size_t>(o0);
    for (int j = 0; j < ob; ++j)
      drow[j] = fused_requantize(saturate_acc16(a[j]),
                                 packed_scale(*lut, o0 + j), next_scale);
  }
};

}  // namespace

void apply_packed_scalar(const LutBankPacked& lut, const EncodedBatch& enc,
                         std::int16_t* out) {
  scalar_impl(lut, enc, StoreRowSink{out, static_cast<std::size_t>(lut.nout)});
}

void apply_fused_scalar(const LutBankPacked& lut, const EncodedBatch& enc,
                        const FusedEpilogue& ep, std::uint8_t* dst) {
  scalar_impl(lut, enc,
              FusedRowSink{&lut, dst, ep.next_scale,
                           static_cast<std::size_t>(lut.nout)});
}

}  // namespace detail

namespace {

/// Ulps searched on each side of the first candidate's mul and add.
constexpr int kFitUlps = 4;

/// One accumulator through the SIMD tiers' table: fma, x86's truncation
/// (NaN or a value outside int32 becomes INT_MIN) and the saturating
/// int32 -> int16 -> uint8 packs, i.e. a clamp to [0, 255].
std::uint8_t table_requantize(std::int32_t acc, float mul, float add) {
  const float x = std::fma(static_cast<float>(acc), mul, add);
  if (!(x >= 1.0f && x < 0x1p31f)) return 0;
  return static_cast<std::uint8_t>(
      std::min<std::int32_t>(static_cast<std::int32_t>(x), 255));
}

/// One column of a fused handoff: its reachable accumulators [lo, hi]
/// and the two scales of its reference element math.
struct FusedColumn {
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  float scale = 0.0f;
  float next_scale = 1.0f;

  /// True when (mul, add) reproduces fused_requantize on all of [lo, hi].
  /// When both sides are monotone non-decreasing (non-negative scale and
  /// mul, add < 1, no fma overflow at hi), every acc <= 0 maps to 0 on
  /// both sides and is skipped, and the walk stops where both reach 255.
  bool fits(float mul, float add) const {
    const bool monotone =
        scale >= 0.0f && mul >= 0.0f && add < 1.0f &&
        std::fma(static_cast<float>(hi), mul, add) < 0x1p31f;
    for (std::int32_t acc = monotone ? std::max(lo, 1) : lo; acc <= hi;
         ++acc) {
      const std::uint8_t want = detail::fused_requantize(
          detail::saturate_acc16(acc), scale, next_scale);
      if (table_requantize(acc, mul, add) != want) return false;
      if (monotone && want == 255) break;
    }
    return true;
  }
};

float ulp_step(float x, int ulps) {
  for (int i = 0; i < ulps; ++i) x = std::nextafter(x, INFINITY);
  for (int i = 0; i > ulps; --i) x = std::nextafter(x, -INFINITY);
  return x;
}

/// The first pair of the +-kFitUlps neighbourhood of (fl(scale /
/// next_scale), 0.5), nearest first, that fits `col`.
bool fit_column(const FusedColumn& col, float* mul, float* add) {
  const float mul0 = col.scale / col.next_scale;
  for (int i = 0; i <= 2 * kFitUlps; ++i)
    for (int j = 0; j <= 2 * kFitUlps; ++j) {
      // 0, +1, -1, +2, -2, ... ulps.
      const float m = ulp_step(mul0, (i + 1) / 2 * (i % 2 ? 1 : -1));
      const float a = ulp_step(0.5f, (j + 1) / 2 * (j % 2 ? 1 : -1));
      if (col.fits(m, a)) {
        *mul = m;
        *add = a;
        return true;
      }
    }
  return false;
}

}  // namespace

FusedEpilogue make_fused_epilogue(const LutBankPacked& lut,
                                  float next_scale) {
  SSMA_CHECK_MSG(next_scale > 0.0f,
                 "fused epilogue needs a positive activation scale");
  SSMA_CHECK(lut.q.size() == static_cast<std::size_t>(lut.ncodebooks) *
                                 lut.nout * lut.nprotos);
  SSMA_CHECK(lut.scales.size() >=
             static_cast<std::size_t>(lut.per_column_scale ? lut.nout : 1));
  // float(acc) must be exact for the table: |acc| <= 128 * ncodebooks.
  SSMA_CHECK(lut.ncodebooks < (1 << 17));
  const auto nout = static_cast<std::size_t>(lut.nout);
  std::vector<FusedColumn> cols(nout);
  for (int c = 0; c < lut.ncodebooks; ++c)
    for (int o = 0; o < lut.nout; ++o) {
      const std::int8_t* t = lut.table_ptr(c, o);
      const auto [mn, mx] = std::minmax_element(t, t + lut.nprotos);
      cols[static_cast<std::size_t>(o)].lo += *mn;
      cols[static_cast<std::size_t>(o)].hi += *mx;
    }
  FusedEpilogue ep;
  ep.next_scale = next_scale;
  ep.mul.assign(nout, 0.0f);
  ep.add.assign(nout, 0.0f);
  ep.exact.assign((nout + 63) / 64, 0);
  for (std::size_t o = 0; o < nout; ++o) {
    cols[o].scale = detail::packed_scale(lut, static_cast<int>(o));
    cols[o].next_scale = next_scale;
    if (!fit_column(cols[o], &ep.mul[o], &ep.add[o]))
      ep.exact[o / 64] |= std::uint64_t{1} << (o % 64);
  }
  return ep;
}

namespace {

/// The shape checks both kernels run first, before they size or touch
/// an output.
void check_shapes(const LutBankPacked& lut, const EncodedBatch& enc) {
  SSMA_CHECK(enc.ncodebooks == lut.ncodebooks);
  SSMA_CHECK(enc.codes.size() ==
             enc.stride() * static_cast<std::size_t>(enc.ncodebooks));
  SSMA_CHECK(lut.q.size() == static_cast<std::size_t>(lut.ncodebooks) *
                                 lut.nout * lut.nprotos);
}

/// The front both kernels share once their checks passed: clamps `tier`
/// to one that can run (scalar when the bank is not pshufb-shaped) and
/// runs `kernel(tier)`, recording it in the kernel profile when tracing
/// is compiled in.
template <class Kernel>
void dispatch(const LutBankPacked& lut, const EncodedBatch& enc,
              KernelTier tier, Kernel&& kernel) {
  if (enc.rows == 0 || lut.nout == 0) return;
  while (!kernel_tier_available(tier))
    tier = static_cast<KernelTier>(static_cast<int>(tier) - 1);
  // pshufb indexes a 16-byte register: banks with a non-hardware K take
  // the scalar path (which handles any K, with codes range-checked by the
  // encoder that produced them).
  if (lut.nprotos != ppa::kProtosPerCodebook) tier = KernelTier::kScalar;
#if defined(SSMA_TRACE_ENABLED)
  const auto t0 = std::chrono::steady_clock::now();
#endif
  kernel(tier);
#if defined(SSMA_TRACE_ENABLED)
  // One gathered table byte per row x codebook x output column,
  // attributed to the tier that actually ran (post clamp/fallback).
  telemetry::record_lut_dispatch(
      static_cast<int>(tier), enc.rows,
      static_cast<std::uint64_t>(enc.rows) *
          static_cast<std::uint64_t>(enc.ncodebooks) *
          static_cast<std::uint64_t>(lut.nout),
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
#endif
}

}  // namespace

void apply_lut_packed(const LutBankPacked& lut, const EncodedBatch& enc,
                      KernelTier tier, std::vector<std::int16_t>& out) {
  check_shapes(lut, enc);
  out.assign(enc.rows * static_cast<std::size_t>(lut.nout), 0);
  dispatch(lut, enc, tier, [&]([[maybe_unused]] KernelTier t) {
#if defined(SSMA_X86_SIMD)
    if (t == KernelTier::kAvx512)
      return detail::apply_packed_avx512(lut, enc, out.data());
    if (t == KernelTier::kAvx2)
      return detail::apply_packed_avx2(lut, enc, out.data());
#endif
    detail::apply_packed_scalar(lut, enc, out.data());
  });
}

void apply_lut_fused(const LutBankPacked& lut, const EncodedBatch& enc,
                     const FusedEpilogue& ep, KernelTier tier,
                     std::uint8_t* dst) {
  check_shapes(lut, enc);
  SSMA_CHECK(lut.scales.size() >=
             static_cast<std::size_t>(lut.per_column_scale ? lut.nout : 1));
  SSMA_CHECK_MSG(ep.next_scale > 0.0f,
                 "fused epilogue needs a positive activation scale");
  const auto nout = static_cast<std::size_t>(lut.nout);
  SSMA_CHECK_MSG(ep.mul.size() == nout && ep.add.size() == nout &&
                     ep.exact.size() == (nout + 63) / 64,
                 "fused epilogue was not made for this bank");
  dispatch(lut, enc, tier, [&]([[maybe_unused]] KernelTier t) {
#if defined(SSMA_X86_SIMD)
    if (t == KernelTier::kAvx512)
      return detail::apply_fused_avx512(lut, enc, ep, dst);
    if (t == KernelTier::kAvx2)
      return detail::apply_fused_avx2(lut, enc, ep, dst);
#endif
    detail::apply_fused_scalar(lut, enc, ep, dst);
  });
}

std::vector<std::int16_t> apply_lut_packed(const LutBankPacked& lut,
                                           const EncodedBatch& enc,
                                           KernelTier tier) {
  std::vector<std::int16_t> out;
  apply_lut_packed(lut, enc, tier, out);
  return out;
}

std::vector<std::int16_t> apply_lut_packed(const LutBankPacked& lut,
                                           const EncodedBatch& enc) {
  return apply_lut_packed(lut, enc, select_kernel_tier());
}

}  // namespace ssma::maddness
