#include "maddness/amm.hpp"

#include <algorithm>

#include "maddness/tree_learner.hpp"
#include "util/check.hpp"

namespace ssma::maddness {

namespace {

/// Percentile-clipped activation scale: values above the clip saturate
/// at 255 instead of compressing the whole distribution.
float calibrate_scale(const Matrix& x, double percentile) {
  std::vector<float> vals(x.data(), x.data() + x.size());
  if (vals.empty()) return 1.0f;
  const auto rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(vals.size()) - 1,
                       percentile / 100.0 * static_cast<double>(vals.size())));
  std::nth_element(vals.begin(), vals.begin() + rank, vals.end());
  const float clip = std::max(vals[rank], 1e-6f);
  return clip / 255.0f;
}

}  // namespace

Amm Amm::train(const Config& cfg, const Matrix& train_activations,
               const Matrix& weights) {
  cfg.validate();
  SSMA_CHECK(train_activations.cols() ==
             static_cast<std::size_t>(cfg.total_dims()));
  Amm amm;
  amm.cfg_ = cfg;

  const float scale =
      calibrate_scale(train_activations, cfg.act_clip_percentile);
  const QuantizedActivations q =
      quantize_activations(train_activations, scale);
  amm.act_scale_ = q.scale;

  // Per-codebook tree training on the quantized (uint8-as-float) domain so
  // learned thresholds are exactly representable in hardware.
  amm.trees_.reserve(cfg.ncodebooks);
  for (int c = 0; c < cfg.ncodebooks; ++c) {
    Matrix sub(q.rows, cfg.subvec_dim);
    for (std::size_t n = 0; n < q.rows; ++n)
      for (int j = 0; j < cfg.subvec_dim; ++j)
        sub(n, j) = static_cast<float>(
            q.at(n, static_cast<std::size_t>(c) * cfg.subvec_dim + j));
    amm.trees_.push_back(learn_hash_tree(sub));
  }

  amm.protos_ = learn_prototypes(cfg, amm.trees_, q);
  amm.lut_ = build_lut(amm.protos_, weights);
  amm.rebuild_derived();
  return amm;
}

std::vector<std::uint8_t> Amm::encode(const QuantizedActivations& q) const {
  const EncodedBatch enc = encode_batch(q);
  const auto ncb = static_cast<std::size_t>(enc.ncodebooks);
  std::vector<std::uint8_t> row_major(enc.rows * ncb);
  for (int c = 0; c < enc.ncodebooks; ++c) {
    const std::uint8_t* codes = enc.codebook(c);
    for (std::size_t n = 0; n < enc.rows; ++n)
      row_major[n * ncb + static_cast<std::size_t>(c)] = codes[n];
  }
  return row_major;
}

EncodedBatch Amm::encode_batch(const QuantizedActivations& q) const {
  EncodeScratch scratch;
  EncodedBatch enc;
  encode_batch(q, scratch, enc);
  return enc;
}

void Amm::encode_batch(const QuantizedActivations& q,
                       EncodeScratch& scratch, EncodedBatch& out) const {
  encode_batch_packed(bank_, q, select_encoder_tier(), scratch, out);
}

void Amm::encode_batch(const Matrix& x, EncodeScratch& scratch,
                       EncodedBatch& out) const {
  encode_batch_packed(bank_, x, act_scale_, select_encoder_tier(), scratch,
                      out);
}

std::vector<std::int16_t> Amm::apply_int16(
    const QuantizedActivations& q) const {
  return apply_int16(encode_batch(q));
}

std::vector<std::int16_t> Amm::apply_int16(const EncodedBatch& enc) const {
  return apply_lut_packed(packed_, enc);
}

void Amm::apply_int16(const EncodedBatch& enc,
                      std::vector<std::int16_t>& out) const {
  apply_lut_packed(packed_, enc, select_kernel_tier(), out);
}

std::vector<std::int16_t> Amm::apply_int16_reference(
    const QuantizedActivations& q) const {
  SSMA_CHECK(q.cols == static_cast<std::size_t>(cfg_.total_dims()));
  // The reference path stays fully independent of the vectorized
  // encoder: per-row HashTree::encode walk + naive accumulation.
  return apply_lut_reference(lut_, encode_all(cfg_, trees_, q), q.rows);
}

Matrix Amm::apply(const Matrix& x) const {
  // Fused quantize + encode: one pass over the float input instead of
  // quantize-then-encode; codes (and therefore outputs) are
  // bit-identical to the two-pass path.
  EncodeScratch scratch;
  EncodedBatch enc;
  encode_batch(x, scratch, enc);
  const auto acc = apply_int16(enc);
  return dequantize_result(acc, x.rows());
}

Matrix Amm::dequantize_result(const std::vector<std::int16_t>& acc,
                              std::size_t rows) const {
  const int nout = lut_.nout;
  SSMA_CHECK(acc.size() == rows * static_cast<std::size_t>(nout));
  Matrix y(rows, static_cast<std::size_t>(nout));
  for (std::size_t n = 0; n < rows; ++n)
    for (int o = 0; o < nout; ++o)
      y(n, o) = static_cast<float>(acc[n * nout + o]) * lut_.scale(o);
  return y;
}

double relative_error(const Matrix& approx, const Matrix& exact) {
  const double denom = frobenius(exact);
  if (denom == 0.0) return frobenius(approx) == 0.0 ? 0.0 : 1.0;
  return frobenius_diff(approx, exact) / denom;
}

}  // namespace ssma::maddness
