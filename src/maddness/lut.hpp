// LUT construction: the offline precomputation that replaces runtime
// multiplication. For each codebook c, prototype k and output column o:
//     lut_f[c][k][o] = dot(prototype_{c,k}, W[:, o])
// quantized to INT8 (the paper's LUT precision) with per-output-column
// scales. The hardware loads exactly these int8 words into its 16x8
// 10T-SRAM arrays.
//
// Two in-memory layouts coexist:
//   * LutBank — proto-major, index (c * K + k) * nout + o. This is the
//     construction/serialization layout (it matches the order build_lut
//     fills entries in and the on-disk SSMAAMM2 payload).
//   * LutBankPacked — output-major within groups of four codebooks: the
//     K entries of one (codebook, output) table are contiguous, and the
//     four tables of one group for one output follow each other. This
//     is the accumulation layout: each 16-entry table is one pshufb
//     operand, and for K = 16 a group's four tables for one output are
//     one 64-byte vpermb operand. See lut_kernel.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "maddness/config.hpp"
#include "maddness/prototypes.hpp"
#include "util/matrix.hpp"

namespace ssma::maddness {

struct LutBank {
  Config cfg;
  int nout = 0;
  /// int8 entry for (codebook c, prototype k, output o):
  /// index = (c * cfg.nprototypes() + k) * nout + o.
  std::vector<std::int8_t> q;
  /// Dequantization scale per output column (or a single broadcast scale
  /// when cfg.per_column_lut_scale is false).
  std::vector<float> scales;
  /// Float (unquantized) reference entries, same layout — used to measure
  /// quantization error.
  std::vector<float> f;

  std::int8_t at(int codebook, int proto, int out) const {
    return q[(static_cast<std::size_t>(codebook) * cfg.nprototypes() +
              proto) *
                 nout +
             out];
  }
  float scale(int out) const {
    return scales[cfg.per_column_lut_scale ? out : 0];
  }
  /// The K int8 entries of one (codebook, output) LUT — the contents of
  /// one hardware SRAM array column group.
  std::vector<std::int8_t> table(int codebook, int out) const;
};

/// Output-major, four-codebook-grouped packing of a LutBank (see file
/// comment). Self-contained (no Config) so kernels and tests can drive
/// it directly.
struct LutBankPacked {
  static constexpr int kGroup = 4;  ///< codebooks per group

  int ncodebooks = 0;
  int nprotos = 0;  ///< K; kProtosPerCodebook (16) for the hardware shape
  int nout = 0;
  bool per_column_scale = true;
  /// index = (c / 4) * 4 * nout * K + o * w * K + (c % 4) * K + k, with
  /// w = group_width(c).
  std::vector<std::int8_t> q;
  std::vector<float> scales;

  /// Codebooks in `codebook`'s group: kGroup, or fewer in a ragged last
  /// group.
  int group_width(int codebook) const {
    const int rest = ncodebooks - codebook / kGroup * kGroup;
    return rest < kGroup ? rest : kGroup;
  }
  /// Distance between one codebook's tables for consecutive outputs.
  std::size_t out_stride(int codebook) const {
    return static_cast<std::size_t>(group_width(codebook)) *
           static_cast<std::size_t>(nprotos);
  }
  /// Distance between the starts of consecutive groups. Within full
  /// groups, table_ptr(c, o) is table_ptr(0, o) + (c / 4) * group_bytes()
  /// + (c % 4) * K, which kernel inner loops use instead of table_ptr.
  std::size_t group_bytes() const {
    return static_cast<std::size_t>(kGroup) * static_cast<std::size_t>(nout) *
           static_cast<std::size_t>(nprotos);
  }
  std::size_t table_index(int codebook, int out) const {
    return static_cast<std::size_t>(codebook / kGroup) * group_bytes() +
           static_cast<std::size_t>(out) * out_stride(codebook) +
           static_cast<std::size_t>(codebook % kGroup) *
               static_cast<std::size_t>(nprotos);
  }
  const std::int8_t* table_ptr(int codebook, int out) const {
    return q.data() + table_index(codebook, out);
  }
  std::int8_t at(int codebook, int proto, int out) const {
    return q[table_index(codebook, out) + static_cast<std::size_t>(proto)];
  }
};

/// Repacks proto-major -> output-major. O(entries), done once per trained
/// or deserialized operator.
LutBankPacked pack_lut(const LutBank& bank);

/// Inverse repack (used by round-trip tests and by tooling that wants the
/// serialization layout back from a packed bank). `cfg` supplies the
/// metadata a packed bank does not carry; its strides must match.
LutBank unpack_lut(const LutBankPacked& packed, const Config& cfg);

/// Builds the LUT bank from prototypes and a weight matrix W (D x nout).
LutBank build_lut(const Prototypes& protos, const Matrix& weights);

/// Max relative INT8 quantization error over all non-zero entries.
double lut_quantization_error(const LutBank& lut);

}  // namespace ssma::maddness
