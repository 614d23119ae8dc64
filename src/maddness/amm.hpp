// Approximate matrix multiplication, end to end:
//   train:  activations -> hash trees + prototypes + INT8 LUT bank
//   apply:  encode (BDT) -> LUT lookup -> 16-bit accumulate -> dequantize
//
// The int16 accumulation path (`apply_int16`) reproduces the hardware's
// CSA/RCA arithmetic bit-for-bit; the simulator tests assert exact
// equality against it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "maddness/config.hpp"
#include "maddness/encoder_kernel.hpp"
#include "maddness/hash_tree.hpp"
#include "maddness/lut.hpp"
#include "maddness/lut_kernel.hpp"
#include "maddness/prototypes.hpp"
#include "maddness/quantize.hpp"
#include "util/matrix.hpp"

namespace ssma::maddness {

/// A trained AMM operator for a fixed weight matrix.
class Amm {
 public:
  /// Trains trees + prototypes on `train_activations` (N x D, >= 0) and
  /// builds the LUT bank for `weights` (D x nout).
  static Amm train(const Config& cfg, const Matrix& train_activations,
                   const Matrix& weights);

  const Config& cfg() const { return cfg_; }
  const std::vector<HashTree>& trees() const { return trees_; }
  const LutBank& lut() const { return lut_; }
  /// Output-major repack of lut(), built once at train/load time — the
  /// layout the accumulation kernels run on.
  const LutBankPacked& packed_lut() const { return packed_; }
  /// SoA flattening of trees(), built once at train/load time — the
  /// layout the vectorized batch encoder runs on.
  const EncoderBank& encoder_bank() const { return bank_; }
  const Prototypes& prototypes() const { return protos_; }
  float activation_scale() const { return act_scale_; }

  /// Encodes a (pre-quantized) activation matrix: N x M leaf codes,
  /// row-major. Runs the vectorized encoder and transposes — bit-exact
  /// vs the per-row HashTree::encode reference walk.
  std::vector<std::uint8_t> encode(const QuantizedActivations& q) const;

  /// Encode cache: encodes the batch once into the codebook-major layout
  /// the accumulation kernel consumes. Callers that apply the same batch
  /// more than once (replay, sweeps) reuse it to skip re-encoding.
  EncodedBatch encode_batch(const QuantizedActivations& q) const;
  /// Scratch-reusing form for steady-state callers (serve worker
  /// shards): same codes, zero allocations once `scratch` and `out`
  /// capacities are established.
  void encode_batch(const QuantizedActivations& q, EncodeScratch& scratch,
                    EncodedBatch& out) const;
  /// Fused quantize + encode from float activations: one pass over the
  /// input, bit-identical to quantize_activations + encode_batch.
  void encode_batch(const Matrix& x, EncodeScratch& scratch,
                    EncodedBatch& out) const;

  /// Hardware-exact decode: accumulates the int8 LUT entries selected by
  /// the codes in int32 and saturates once to int16 at the end (the
  /// paper's pipeline-accumulate-then-clamp). Output is N x nout int16
  /// (row-major). Runs the packed, tier-dispatched kernel.
  std::vector<std::int16_t> apply_int16(const QuantizedActivations& q) const;
  std::vector<std::int16_t> apply_int16(const EncodedBatch& enc) const;
  /// Non-allocating form: `out` is resized capacity-reusing, so a
  /// caller that keeps it alive pays zero steady-state allocations.
  void apply_int16(const EncodedBatch& enc,
                   std::vector<std::int16_t>& out) const;

  /// Reference decode: naive triple loop over the proto-major layout,
  /// same accumulate-then-clamp semantics. The packed kernels are tested
  /// bit-exact against this.
  std::vector<std::int16_t> apply_int16_reference(
      const QuantizedActivations& q) const;

  /// Full approximate product in float: quantize -> encode -> decode ->
  /// dequantize. Shapes: x is N x D, result N x nout.
  Matrix apply(const Matrix& x) const;

  /// Dequantizes an int16 accumulator matrix produced by apply_int16 (or
  /// by the circuit simulator).
  Matrix dequantize_result(const std::vector<std::int16_t>& acc,
                           std::size_t rows) const;

  /// Serialization: a trained operator (trees, prototypes, LUTs, scales)
  /// round-trips through a portable little-endian SSMAAMM2 blob — what a
  /// deployment flow ships to the accelerator's write driver, and what
  /// the model registry, checkpoints and worker shards pass around.
  /// load_string throws CheckError on a torn, corrupt or foreign blob
  /// and ignores bytes after its frame; `blob` is not kept.
  std::string save_string() const;
  static Amm load_string(std::string_view blob);
  /// The same blob, as a whole file.
  void save_file(const std::string& path) const;
  static Amm load_file(const std::string& path);

 private:
  /// Rebuilds the derived hot-path state (packed LUT bank + flattened
  /// encoder bank) from lut_/trees_ after training or load.
  void rebuild_derived() {
    packed_ = pack_lut(lut_);
    bank_ = build_encoder_bank(cfg_, trees_);
  }

  Config cfg_;
  std::vector<HashTree> trees_;
  Prototypes protos_;
  LutBank lut_;
  LutBankPacked packed_;
  EncoderBank bank_;
  float act_scale_ = 1.0f;
};

/// Relative Frobenius error ||approx - exact|| / ||exact||.
double relative_error(const Matrix& approx, const Matrix& exact);

}  // namespace ssma::maddness
