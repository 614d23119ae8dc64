// The LUT accumulation hot path: given per-row leaf codes and a packed
// (output-major) LUT bank, accumulate ncodebooks int8 table entries per
// output in int32 and saturate once to int16 at the end — the software
// mirror of the paper's pipeline-accumulate-then-clamp datapath.
//
// Three implementation tiers share one contract (bit-exact results):
//   * kScalar — portable blocked kernel: 32-row x 16-output tiles keep
//     the codes, the 16-byte tables and the int32 accumulators L1-hot.
//   * kAvx2   — pshufb gather: one 16-entry table is broadcast to both
//     128-bit lanes of a YMM register; 32 rows of codes index it in a
//     single shuffle (AVX2 + FMA; the fused epilogue's table uses FMA).
//   * kAvx512 — one vpermb gathers four codebooks' tables (one 64-byte
//     group of the packed bank) for 16 rows, and one vpdpbusd adds the
//     four bytes into each row's int32 lane (AVX-512 VBMI + VNNI).
// Every tier runs a batch's ragged last row block on its own code: the
// encode cache pads each codebook's codes to whole 32-row blocks with
// code 0, so the SIMD tiers read whole blocks and store only the valid
// rows. The SIMD tiers require the hardware table shape (K == 16, codes
// < 16); other K values dispatch to the scalar kernel. Tier selection
// happens at runtime from CPUID (overridable via the SSMA_KERNEL
// environment variable: scalar | avx2 | avx512).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "maddness/lut.hpp"
#include "util/fixed_point.hpp"

/// The SIMD tiers exist only in GCC-compatible x86-64 builds, where their
/// functions take their ISA from target attributes. This one condition
/// guards their definitions and every dispatcher call into them.
#if defined(__GNUC__) && defined(__x86_64__)
#define SSMA_X86_SIMD 1
#endif

namespace ssma::maddness {

enum class KernelTier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* kernel_tier_name(KernelTier tier);

/// Highest tier both compiled in and supported by this CPU.
KernelTier best_kernel_tier();

/// best_kernel_tier(), downgraded by SSMA_KERNEL=scalar|avx2|avx512
/// when set (an override above what the CPU supports is clamped down).
/// Read once and cached.
KernelTier select_kernel_tier();

/// True when `tier` can run on this build + CPU (its CPUID probe, which
/// the encoder dispatcher shares).
bool kernel_tier_available(KernelTier tier);

/// Every tier that can run on this build + CPU, lowest first.
std::vector<KernelTier> available_kernel_tiers();

/// Encode cache: one batch's leaf codes, stored codebook-major
/// (codes[c * stride() + n]) so the accumulation kernel streams one
/// codebook's codes contiguously. Each codebook's run covers the batch's
/// rows rounded up to whole kRowBlock-row blocks; the pad rows past
/// `rows` hold code 0, a valid prototype, so every tier can run a ragged
/// last block whole and drop the pad rows' results. Built once per
/// batch; every output block reuses it instead of re-walking the
/// row-major encode output. Every encoder tier writes whole padded runs.
struct EncodedBatch {
  static constexpr std::size_t kRowBlock = 32;

  std::size_t rows = 0;
  int ncodebooks = 0;
  std::vector<std::uint8_t> codes;

  /// `rows` rounded up to whole row blocks.
  static std::size_t padded(std::size_t rows) {
    return (rows + kRowBlock - 1) / kRowBlock * kRowBlock;
  }
  /// Distance between consecutive codebooks' runs.
  std::size_t stride() const { return padded(rows); }

  /// Shapes the batch, capacity-reusing. Grown bytes are 0; bytes kept
  /// from an earlier batch are not cleared.
  void resize(std::size_t n, int ncb) {
    rows = n;
    ncodebooks = ncb;
    codes.resize(stride() * static_cast<std::size_t>(ncb));
  }

  const std::uint8_t* codebook(int c) const {
    return codes.data() + static_cast<std::size_t>(c) * stride();
  }
  std::uint8_t* codebook(int c) {
    return codes.data() + static_cast<std::size_t>(c) * stride();
  }
};

/// Transposes row-major codes (codes[n * ncodebooks + c], the encode_all
/// layout) into an EncodedBatch, pad rows 0.
EncodedBatch make_encoded_batch(const std::vector<std::uint8_t>& row_major,
                                std::size_t rows, int ncodebooks);

/// Reference kernel: naive row -> codebook -> output triple loop over the
/// proto-major LutBank. int32 accumulation, one saturation at the end.
/// This is the semantic definition the packed kernels are tested against.
std::vector<std::int16_t> apply_lut_reference(
    const LutBank& lut, const std::vector<std::uint8_t>& row_major_codes,
    std::size_t rows);

/// Packed kernel, dispatched to `tier` (clamped to what is available and
/// to kScalar when the bank is not pshufb-shaped). Returns rows x nout
/// int16, row-major — bit-exact vs apply_lut_reference.
std::vector<std::int16_t> apply_lut_packed(const LutBankPacked& lut,
                                           const EncodedBatch& enc,
                                           KernelTier tier);
std::vector<std::int16_t> apply_lut_packed(const LutBankPacked& lut,
                                           const EncodedBatch& enc);

/// Non-allocating form: `out` is resized (capacity-reusing) to
/// rows x nout. Steady-state callers that keep `out` alive across
/// batches pay zero allocations once its capacity is established.
void apply_lut_packed(const LutBankPacked& lut, const EncodedBatch& enc,
                      KernelTier tier, std::vector<std::int16_t>& out);

/// Constants of the fused stage handoff: the saturated int16 accumulator
/// dequantizes with the producing stage's LUT scales (carried by the
/// packed bank itself), and requantizes with the consuming stage's
/// calibrated activation scale. The [0, 255] saturation of the uint8
/// requantization is the inter-layer ReLU + clip.
///
/// The SIMD tiers run the handoff from a per-column table: output o of a
/// row with int32 total acc becomes clamp(trunc(fma(float(acc), mul[o],
/// add[o])), 0, 255), where trunc is x86's (a value outside int32 becomes
/// INT_MIN) and the clamp is the int32 -> int16 -> uint8 saturating
/// packs. make_fused_epilogue checks every pair against fused_requantize
/// on every accumulator its column can reach. A column that no pair fits
/// is marked in `exact`, and the kernels run fused_requantize on its
/// lanes.
struct FusedEpilogue {
  float next_scale = 1.0f;
  std::vector<float> mul;  ///< one per output column
  std::vector<float> add;  ///< one per output column
  /// Bit o % 64 of exact[o / 64] marks column o for the exact path.
  std::vector<std::uint64_t> exact;

  /// Marks of columns [o0, o0 + n) as the low n bits (n <= 16, and the
  /// columns inside one word: o0 % 64 + n <= 64).
  unsigned exact_bits(int o0, int n) const {
    return static_cast<unsigned>(exact[static_cast<std::size_t>(o0) / 64] >>
                                 (o0 % 64)) &
           ((1u << n) - 1);
  }
};

/// Derives the handoff of `lut` into a stage whose activation scale is
/// `next_scale` (> 0): for each column, the reachable accumulator range
/// [sum of its tables' minima, sum of their maxima] is read from the
/// bank, and (fl(scale / next_scale), 0.5) — or the first pair of their
/// +-4-ulp neighbourhood — that reproduces fused_requantize on the whole
/// range is kept; a column none fits is marked exact. Derived state, like
/// the packed bank itself: nothing of it reaches disk or the wire.
FusedEpilogue make_fused_epilogue(const LutBankPacked& lut, float next_scale);

/// Fused kernel: identical int32-accumulate-then-saturate datapath, but
/// instead of storing int16 accumulators each finished tile runs the
/// stage handoff in-register — dequantize (this bank's scales), clamp at
/// 0, requantize with `ep.next_scale` — and stores the next stage's
/// uint8 activation rows to `dst` (rows x nout, row-major). `ep` comes
/// from make_fused_epilogue(lut, next_scale). Bit-exact vs
/// apply_lut_packed + engine::stage_handoff: the scalar tier applies
/// fused_requantize per element, the SIMD tiers the verified table,
/// while the tile is still hot (the int16 accumulators and the
/// dequantized floats never touch memory).
void apply_lut_fused(const LutBankPacked& lut, const EncodedBatch& enc,
                     const FusedEpilogue& ep, KernelTier tier,
                     std::uint8_t* dst);

namespace detail {

/// Applies the SSMA_KERNEL env override to `best`: a requested tier
/// below `best` wins, one above it is clamped down to `best`.
KernelTier clamp_tier_by_env(KernelTier best);

/// The single saturation of the accumulate contract (int32 total ->
/// int16), shared by every tier's store and fused paths.
inline std::int16_t saturate_acc16(std::int32_t v) {
  return static_cast<std::int16_t>(
      v < -32768 ? -32768 : (v > 32767 ? 32767 : v));
}

/// Per-output dequantization scale of a packed bank (mirrors
/// LutBank::scale for the accumulation layout).
inline float packed_scale(const LutBankPacked& lut, int out) {
  return lut.scales[lut.per_column_scale ? out : 0];
}

/// One element of the fused epilogue — EXACTLY the reference handoff:
/// Amm::dequantize_result's float multiply, then quantize_activations'
/// double divide + round-half-away + uint8 saturation. The scalar tier,
/// the AVX2 tier's elementwise paths and every tier's exact-path columns
/// run it as is; the SIMD tiers' table (FusedEpilogue) is verified
/// against it.
inline std::uint8_t fused_requantize(std::int16_t acc, float lut_scale,
                                     float next_scale) {
  const float y = static_cast<float>(acc) * lut_scale;
  const double v = static_cast<double>(y) / next_scale;
  return saturate_uint8(round_half_away(v));
}

// Per-tier entry points. The packed ones accumulate into `out` (rows x
// nout, pre-sized) with identical int32-then-saturate semantics; the
// fused ones run the same tile walk and apply the epilogue to each
// finished tile. Each writes the batch's valid rows only.
void apply_packed_scalar(const LutBankPacked& lut, const EncodedBatch& enc,
                         std::int16_t* out);
void apply_fused_scalar(const LutBankPacked& lut, const EncodedBatch& enc,
                        const FusedEpilogue& ep, std::uint8_t* dst);
#if defined(SSMA_X86_SIMD)
void apply_packed_avx2(const LutBankPacked& lut, const EncodedBatch& enc,
                       std::int16_t* out);
void apply_fused_avx2(const LutBankPacked& lut, const EncodedBatch& enc,
                      const FusedEpilogue& ep, std::uint8_t* dst);
void apply_packed_avx512(const LutBankPacked& lut, const EncodedBatch& enc,
                         std::int16_t* out);
void apply_fused_avx512(const LutBankPacked& lut, const EncodedBatch& enc,
                        const FusedEpilogue& ep, std::uint8_t* dst);
#endif

}  // namespace detail

}  // namespace ssma::maddness
