// Shared by the kernel suites' bit-exact matrices.
#pragma once

#include <cstddef>
#include <vector>

#include "maddness/lut_kernel.hpp"

namespace ssma::test {

/// Every row count from 1 to 33 (each residue of the 32-row block, and
/// one whole block plus one row), and both sides of the 64-, 128- and
/// 224-row block boundaries.
inline std::vector<std::size_t> ragged_row_counts() {
  std::vector<std::size_t> rows;
  for (std::size_t n = 1; n <= 33; ++n) rows.push_back(n);
  rows.insert(rows.end(), {63, 64, 127, 128, 223, 224});
  return rows;
}

/// True when every pad row of every codebook's run holds code 0.
inline bool pad_codes_are_zero(const maddness::EncodedBatch& enc) {
  for (int c = 0; c < enc.ncodebooks; ++c)
    for (std::size_t n = enc.rows; n < enc.stride(); ++n)
      if (enc.codebook(c)[n] != 0) return false;
  return true;
}

}  // namespace ssma::test
