// Synthetic 10-class image dataset (substitute for CIFAR-10, the dataset
// of the paper's Table II accuracy row, which is not available offline).
// Classes are procedurally generated texture/shape families with
// per-sample jitter and noise: learnable by a small CNN but far from
// trivial, which is what the accuracy-preservation experiment needs
// (the claim under test is *relative*: MADDNESS-substituted accuracy vs
// float accuracy).
#pragma once

#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace ssma::nn {

struct Dataset {
  Tensor images;            ///< (N, 3, H, W), values in [0, 1]
  std::vector<int> labels;  ///< class index per image

  std::size_t size() const { return labels.size(); }
};

inline constexpr int kNumClasses = 10;

/// Generates `n` samples of size 3 x h x w with balanced classes.
Dataset make_synthetic_dataset(Rng& rng, std::size_t n, std::size_t h,
                               std::size_t w);

/// Extracts a batch by indices.
std::pair<Tensor, std::vector<int>> take_batch(
    const Dataset& ds, const std::vector<std::size_t>& idx);

}  // namespace ssma::nn
