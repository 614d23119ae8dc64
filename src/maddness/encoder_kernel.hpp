// The vectorized batch encoder: the software mirror of the paper's
// parallel DLC tournament (Fig. 4A), built to close the encode/kernel gap
// the packed LUT kernel opened up. Instead of a branchy per-row
// HashTree::encode walk, a batch is encoded in two passes:
//
//   1. gather — one sweep over the activation matrix copies, for every
//      codebook, the 4 split columns the tree compares into a
//      column-major staging tile (optionally fusing the uint8
//      quantization of QuantizedActivations so float inputs make one
//      pass total instead of quantize-then-encode);
//   2. traverse — a branchless tournament per codebook over the tile:
//      idx = 2*idx + (x >= t[idx]) per level, with all 15 node
//      thresholds of a codebook packed into one 16-byte pshufb operand
//      so the AVX2 tier resolves a whole level for 32 rows in three
//      instructions (threshold gather, unsigned compare via
//      max_epu8+cmpeq, index update).
//
// The output is the padded encode cache (EncodedBatch): the AVX2 tier
// runs a batch's ragged last block on the same vector code — over the
// staging tile's padding, or over a 32-row tile of the staging buffer
// on the windowed path — and writes code 0 to the pad rows, as every tier does.
//
// The flattened SoA EncoderBank (per-level absolute split dims and
// per-codebook padded threshold blocks, each contiguous across
// codebooks) is derived once per trained/loaded operator, like the
// packed LUT bank. HashTree::encode / encode_depths remain the bit-exact
// scalar reference — the circuit simulator's DLC latency model keeps
// using them — and every tier here is tested bit-identical to them.
//
// Dispatch rides the same machinery as the LUT kernel: runtime CPUID
// probing of functions that take their ISA from target attributes,
// clamped by the SSMA_KERNEL environment override (scalar | avx2;
// avx512, the LUT kernel's top tier, clamps down to the encoder's,
// avx2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "maddness/config.hpp"
#include "maddness/hash_tree.hpp"
#include "maddness/lut_kernel.hpp"
#include "maddness/quantize.hpp"
#include "util/matrix.hpp"

namespace ssma::maddness {

/// Flattened SoA packing of all codebooks' hash trees (see file comment).
struct EncoderBank {
  static constexpr int kLevels = HashTree::kLevels;  // 4
  /// Threshold block stride per codebook: 15 flat nodes + 1 zero pad
  /// byte, so each codebook's block is exactly one pshufb operand.
  static constexpr int kThrStride = 16;

  int ncodebooks = 0;
  int total_dims = 0;  ///< activation row width the dims index into

  /// Absolute split dimension for (level l, codebook c) at
  /// [l * ncodebooks + c]: the tree's per-subspace dim plus the
  /// codebook's column offset, so gather indexes the full row directly.
  std::vector<std::int32_t> split_dims;
  /// Per-codebook thresholds in hardware flat-node order at
  /// [c * kThrStride + flat_node]; byte 15 of each block is zero pad.
  std::vector<std::uint8_t> thresholds;

  /// Windowed-gather metadata: when every codebook's 4 split dims fit
  /// inside one 16-byte window of the activation row (always true for
  /// the hardware's 9-dim subvectors once total_dims >= 16), the AVX2
  /// tier skips the staging tile entirely — one 16-byte load at
  /// window_off[c] plus one pshufb against pick_masks picks the split
  /// bytes straight out of the row.
  bool windowed = false;
  std::vector<std::int32_t> window_off;  ///< per codebook, into the row
  /// 16 bytes per codebook: bytes 0..3 are the window-relative split
  /// offsets (level order), bytes 4..15 are 0x80 (pshufb zeroing pad).
  std::vector<std::uint8_t> pick_masks;

  int split_dim(int level, int codebook) const {
    return split_dims[static_cast<std::size_t>(level) * ncodebooks +
                      codebook];
  }
  const std::uint8_t* codebook_thresholds(int codebook) const {
    return thresholds.data() +
           static_cast<std::size_t>(codebook) * kThrStride;
  }
  const std::uint8_t* pick_mask(int codebook) const {
    return pick_masks.data() +
           static_cast<std::size_t>(codebook) * kThrStride;
  }
};

/// Flattens trained trees into the packed SoA bank. O(ncodebooks), done
/// once per trained or deserialized operator.
EncoderBank build_encoder_bank(const Config& cfg,
                               const std::vector<HashTree>& trees);

/// Reusable per-caller encode scratch: the column-major staging tile the
/// gather pass fills (kLevels * ncodebooks columns of `rows` bytes), or
/// on the windowed path the 32-row tile that holds the rows past a
/// batch's last whole block. Steady-state encoding of same-shaped
/// batches performs zero allocations once the capacity has been
/// established — serve worker shards own one of these across their
/// whole lifetime.
struct EncodeScratch {
  std::vector<std::uint8_t> stage;
};

/// True when `tier` is an encoder tier and can run on this build + CPU.
bool encoder_tier_available(KernelTier tier);
/// Every encoder tier that can run on this build + CPU, lowest first.
std::vector<KernelTier> available_encoder_tiers();
/// Highest available encoder tier on this build + CPU.
KernelTier best_encoder_tier();
/// best_encoder_tier() clamped down by SSMA_KERNEL when set (same
/// override the LUT kernel honors). Read once and cached.
KernelTier select_encoder_tier();

/// Encodes a quantized batch codebook-major into `out` (resized,
/// capacity-reusing) at `tier` (clamped to what is available). Bit-exact
/// vs HashTree::encode on every tier.
void encode_batch_packed(const EncoderBank& bank,
                         const QuantizedActivations& q, KernelTier tier,
                         EncodeScratch& scratch, EncodedBatch& out);

/// Fused quantize + encode: gathers straight from the float matrix,
/// quantizing only the gathered split columns with exactly the
/// round-half-away / saturate semantics of quantize_activations — one
/// pass over the input instead of quantize-then-encode, bit-identical
/// codes.
void encode_batch_packed(const EncoderBank& bank, const Matrix& x,
                         float scale, KernelTier tier,
                         EncodeScratch& scratch, EncodedBatch& out);

/// Convenience allocating form at the runtime-selected tier.
EncodedBatch encode_batch_packed(const EncoderBank& bank,
                                 const QuantizedActivations& q);

namespace detail {

// Per-tier traversal entry points over one codebook's staging columns
// (kLevels columns of `rows` bytes at `stride` apart, starting at
// `stage`). `thr` is the codebook's padded 16-byte threshold block. Each
// writes the codebook's whole padded run of the encode cache: codes[0,
// rows) the leaf indices, the pad rows up to EncodedBatch::padded(rows)
// code 0. The AVX2 tier reads every column up to the padded row count,
// which stage_stride leaves room for.
void encode_codebook_scalar(const std::uint8_t* stage, std::size_t stride,
                            std::size_t rows, const std::uint8_t* thr,
                            std::uint8_t* codes);
#if defined(SSMA_X86_SIMD)
void encode_codebook_avx2(const std::uint8_t* stage, std::size_t stride,
                          std::size_t rows, const std::uint8_t* thr,
                          std::uint8_t* codes);

// Windowed-gather entry point (AVX2 tier only; see EncoderBank): reads
// 16-byte windows straight from the activation rows — `src` is the row
// base already offset by the codebook's window_off, `row_stride` the
// activation row width, `pick` the codebook's 16-byte pick mask — and
// runs the same branchless tournament with an in-register transpose, no
// staging tile. It reads rows up to EncodedBatch::padded(rows), so a
// batch's ragged tail runs from a tile in EncodeScratch::stage. Same
// output contract, bit-identical to the staged path.
void encode_codebook_windowed_avx2(const std::uint8_t* src,
                                   std::size_t row_stride,
                                   std::size_t rows,
                                   const std::uint8_t* pick,
                                   const std::uint8_t* thr,
                                   std::uint8_t* codes);
#endif

}  // namespace detail

}  // namespace ssma::maddness
