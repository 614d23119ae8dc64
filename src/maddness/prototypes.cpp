#include "maddness/prototypes.hpp"

#include "maddness/encoder_kernel.hpp"
#include "util/check.hpp"
#include "util/linalg.hpp"

namespace ssma::maddness {

std::vector<std::uint8_t> encode_all(const Config& cfg,
                                     const std::vector<HashTree>& trees,
                                     const QuantizedActivations& q) {
  cfg.validate();
  SSMA_CHECK(static_cast<int>(trees.size()) == cfg.ncodebooks);
  SSMA_CHECK(q.cols == static_cast<std::size_t>(cfg.total_dims()));
  std::vector<std::uint8_t> codes(q.rows * cfg.ncodebooks);
  for (std::size_t n = 0; n < q.rows; ++n) {
    const std::uint8_t* row = q.row(n);
    for (int c = 0; c < cfg.ncodebooks; ++c) {
      codes[n * cfg.ncodebooks + c] = static_cast<std::uint8_t>(
          trees[c].encode(row + static_cast<std::size_t>(c) * cfg.subvec_dim));
    }
  }
  return codes;
}

Prototypes learn_prototypes(const Config& cfg,
                            const std::vector<HashTree>& trees,
                            const QuantizedActivations& train) {
  cfg.validate();
  const int k = cfg.nprototypes();
  // Training encodes through the same vectorized batch encoder the hot
  // path runs (bit-exact vs the per-row tree walk), codebook-major.
  const EncodedBatch enc =
      encode_batch_packed(build_encoder_bank(cfg, trees), train);
  const auto leaf_of = [&](std::size_t i, int c) {
    return static_cast<int>(enc.codebook(c)[i]);
  };
  const std::size_t n = train.rows;
  const std::size_t d = train.cols;

  Prototypes protos;
  protos.cfg = cfg;
  protos.p = Matrix(static_cast<std::size_t>(cfg.ncodebooks) * k, d);

  if (cfg.proto_opt == PrototypeOpt::kBucketMeans) {
    for (int c = 0; c < cfg.ncodebooks; ++c) {
      std::vector<double> sums(static_cast<std::size_t>(k) * cfg.subvec_dim,
                               0.0);
      std::vector<std::size_t> counts(k, 0);
      for (std::size_t i = 0; i < n; ++i) {
        const int leaf = leaf_of(i, c);
        ++counts[leaf];
        const std::uint8_t* sub =
            train.row(i) + static_cast<std::size_t>(c) * cfg.subvec_dim;
        for (int j = 0; j < cfg.subvec_dim; ++j)
          sums[static_cast<std::size_t>(leaf) * cfg.subvec_dim + j] +=
              static_cast<double>(sub[j]) * train.scale;
      }
      for (int leaf = 0; leaf < k; ++leaf) {
        if (counts[leaf] == 0) continue;  // empty leaf -> zero prototype
        for (int j = 0; j < cfg.subvec_dim; ++j) {
          protos.p(static_cast<std::size_t>(c) * k + leaf,
                   static_cast<std::size_t>(c) * cfg.subvec_dim + j) =
              static_cast<float>(
                  sums[static_cast<std::size_t>(leaf) * cfg.subvec_dim + j] /
                  static_cast<double>(counts[leaf]));
        }
      }
    }
    return protos;
  }

  // Joint ridge refit: G (n x M*16) one-hot; targets are the dequantized
  // activations.
  Matrix g(n, static_cast<std::size_t>(cfg.ncodebooks) * k);
  for (std::size_t i = 0; i < n; ++i)
    for (int c = 0; c < cfg.ncodebooks; ++c)
      g(i, static_cast<std::size_t>(c) * k + leaf_of(i, c)) = 1.0f;
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < d; ++j)
      x(i, j) = static_cast<float>(train.at(i, j)) * train.scale;
  protos.p = ridge_regression(g, x, cfg.ridge_lambda);
  return protos;
}

}  // namespace ssma::maddness
