// Seeded workload inputs and the operators trained from them. The seed
// decides every input: the calibration set and weights the program
// trains on, and the activations it is then asked to serve.
#pragma once

#include <cstdint>
#include <vector>

#include "maddness/amm.hpp"
#include "util/matrix.hpp"

namespace perfbench {

/// Operator shape of one workload: `ncodebooks` 9-dim subspaces and the
/// output width of each chained stage.
struct ModelShape {
  int ncodebooks = 1;
  std::vector<int> stage_nout;
  std::size_t calib_rows = 0;  ///< calibration activations for training
  std::size_t pool_rows = 0;   ///< activation rows served or simulated
};

struct WorkloadData {
  ssma::maddness::Config cfg;
  ssma::Matrix calib;
  std::vector<ssma::Matrix> weights;  ///< one per stage
  ssma::Matrix fresh;                 ///< pool_rows x stage-0 dims
};

WorkloadData make_data(const ModelShape& shape, std::uint64_t seed);

/// Trains the chained stages with engine::train_chained_stage (each
/// stage calibrates on the previous stage's rectified output).
std::vector<ssma::maddness::Amm> train_stages(const WorkloadData& data);

std::vector<const ssma::maddness::Amm*> stage_ptrs(
    const std::vector<ssma::maddness::Amm>& stages);

/// The served activations, quantized with stage 0's calibrated scale.
ssma::maddness::QuantizedActivations quantize_pool(
    const WorkloadData& data, const ssma::maddness::Amm& stage0);

/// Rows [row, row + n) of `pool` as their own matrix.
ssma::maddness::QuantizedActivations slice_rows(
    const ssma::maddness::QuantizedActivations& pool, std::size_t row,
    std::size_t n);

}  // namespace perfbench
