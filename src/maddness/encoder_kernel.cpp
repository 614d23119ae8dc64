#include "maddness/encoder_kernel.hpp"

#include <algorithm>

#if defined(SSMA_TRACE_ENABLED)
#include <chrono>

#include "telemetry/kernel_profile.hpp"
#endif

#include "util/check.hpp"
#include "util/fixed_point.hpp"

namespace ssma::maddness {

static_assert(EncoderBank::kLevels == 4,
              "the unrolled tournament below assumes the hardware's "
              "4-level / 15-node tree shape");
static_assert(EncoderBank::kThrStride == 16,
              "threshold blocks must be one pshufb operand wide");

EncoderBank build_encoder_bank(const Config& cfg,
                               const std::vector<HashTree>& trees) {
  cfg.validate();
  SSMA_CHECK(static_cast<int>(trees.size()) == cfg.ncodebooks);
  SSMA_CHECK_MSG(cfg.nprototypes() == HashTree::kLeaves,
                 "tree-based encoding produces " << HashTree::kLeaves
                                                 << " leaves; config wants "
                                                 << cfg.nprototypes());
  EncoderBank bank;
  bank.ncodebooks = cfg.ncodebooks;
  bank.total_dims = cfg.total_dims();
  bank.split_dims.resize(static_cast<std::size_t>(EncoderBank::kLevels) *
                         cfg.ncodebooks);
  bank.thresholds.assign(static_cast<std::size_t>(cfg.ncodebooks) *
                             EncoderBank::kThrStride,
                         0);
  bank.window_off.assign(static_cast<std::size_t>(cfg.ncodebooks), 0);
  bank.pick_masks.assign(static_cast<std::size_t>(cfg.ncodebooks) *
                             EncoderBank::kThrStride,
                         0x80);
  bank.windowed = bank.total_dims >= EncoderBank::kThrStride;
  for (int c = 0; c < cfg.ncodebooks; ++c) {
    int min_dim = bank.total_dims, max_dim = 0;
    for (int l = 0; l < EncoderBank::kLevels; ++l) {
      const int dim = trees[c].split_dims()[l];
      SSMA_CHECK_MSG(dim >= 0 && dim < cfg.subvec_dim,
                     "tree split dim outside its codebook subspace");
      const int abs_dim = c * cfg.subvec_dim + dim;
      bank.split_dims[static_cast<std::size_t>(l) * cfg.ncodebooks + c] =
          abs_dim;
      min_dim = std::min(min_dim, abs_dim);
      max_dim = std::max(max_dim, abs_dim);
    }
    std::uint8_t* thr =
        bank.thresholds.data() +
        static_cast<std::size_t>(c) * EncoderBank::kThrStride;
    for (int node = 0; node < HashTree::kNodes; ++node)
      thr[node] = trees[c].threshold_flat(node);
    // thr[15] stays zero: never indexed (flat nodes are 0..14), and a
    // deterministic pad keeps the pshufb operand fully initialized.

    // Windowed gather: anchor the 16-byte window at the lowest split
    // dim, pulled back so it never reads past the row's end. All-or-
    // nothing across codebooks — one codebook with spread-out dims
    // (possible only for subvec_dim > 16) drops the whole bank to the
    // staging-tile path.
    const int off = std::min(
        min_dim,
        std::max(0, bank.total_dims - EncoderBank::kThrStride));
    bank.window_off[c] = off;
    if (max_dim - off >= EncoderBank::kThrStride) bank.windowed = false;
    std::uint8_t* pick =
        bank.pick_masks.data() +
        static_cast<std::size_t>(c) * EncoderBank::kThrStride;
    for (int l = 0; l < EncoderBank::kLevels; ++l)
      pick[l] = static_cast<std::uint8_t>(
          bank.split_dims[static_cast<std::size_t>(l) * cfg.ncodebooks +
                          c] -
          off);
  }
  return bank;
}

bool encoder_tier_available(KernelTier tier) {
  // The encoder's top tier is AVX2.
  return tier != KernelTier::kAvx512 && kernel_tier_available(tier);
}

std::vector<KernelTier> available_encoder_tiers() {
  std::vector<KernelTier> tiers;
  for (const KernelTier tier : available_kernel_tiers())
    if (encoder_tier_available(tier)) tiers.push_back(tier);
  return tiers;
}

KernelTier best_encoder_tier() { return available_encoder_tiers().back(); }

KernelTier select_encoder_tier() {
  static const KernelTier tier =
      detail::clamp_tier_by_env(best_encoder_tier());
  return tier;
}

namespace detail {

// Branchless scalar tournament: each level's compare result feeds
// straight into the next level's threshold index, no branches for the
// compiler to guess.
void encode_codebook_scalar(const std::uint8_t* stage, std::size_t stride,
                            std::size_t rows, const std::uint8_t* thr,
                            std::uint8_t* codes) {
  const std::uint8_t* s0 = stage;
  const std::uint8_t* s1 = stage + stride;
  const std::uint8_t* s2 = stage + 2 * stride;
  const std::uint8_t* s3 = stage + 3 * stride;
  for (std::size_t n = 0; n < rows; ++n) {
    unsigned idx = static_cast<unsigned>(s0[n] >= thr[0]);
    idx = 2 * idx + static_cast<unsigned>(s1[n] >= thr[1 + idx]);
    idx = 2 * idx + static_cast<unsigned>(s2[n] >= thr[3 + idx]);
    idx = 2 * idx + static_cast<unsigned>(s3[n] >= thr[7 + idx]);
    codes[n] = static_cast<std::uint8_t>(idx);
  }
  std::fill(codes + rows, codes + EncodedBatch::padded(rows), 0);
}

}  // namespace detail

namespace {

/// Dispatches one codebook's traversal at `tier` (already clamped to an
/// available tier by the caller).
inline void traverse_codebook([[maybe_unused]] KernelTier tier,
                              const std::uint8_t* stage,
                              std::size_t stride, std::size_t rows,
                              const std::uint8_t* thr,
                              std::uint8_t* codes) {
#if defined(SSMA_X86_SIMD)
  if (tier == KernelTier::kAvx2)
    return detail::encode_codebook_avx2(stage, stride, rows, thr, codes);
#endif
  detail::encode_codebook_scalar(stage, stride, rows, thr, codes);
}

/// Falls back to the next lower tier until one is available (scalar
/// always is).
inline KernelTier clamp_available(KernelTier tier) {
  while (!encoder_tier_available(tier))
    tier = static_cast<KernelTier>(static_cast<int>(tier) - 1);
  return tier;
}

/// Staging-column stride for a batch of `rows`: whole cache lines, and
/// an odd number of them. The gather scatters one byte into every
/// staged column per input row; with a power-of-2 stride (e.g. 1024
/// rows) all columns alias onto a handful of L1 sets and the sweep
/// thrashes — an odd line count walks every set instead. Whole cache
/// lines also cover EncodedBatch::padded(rows), the rows the AVX2
/// traversal reads.
inline std::size_t stage_stride(std::size_t rows) {
  std::size_t stride = (rows + 63) & ~static_cast<std::size_t>(63);
  if ((stride / 64) % 2 == 0) stride += 64;
  return stride;
}

/// Shared shell of the two encode_batch_packed fronts: sizes the output
/// and staging tile (capacity-reusing), runs the caller's gather sweep,
/// then the per-codebook traversal. `tier` must already be clamped to
/// an available tier. The staging tile holds kLevels columns per
/// codebook: column (c * kLevels + l) at
/// stage[(c * kLevels + l) * stride + n].
template <class GatherRow>
void encode_batch_shell(const EncoderBank& bank, std::size_t rows,
                        KernelTier tier, EncodeScratch& scratch,
                        EncodedBatch& out, GatherRow&& gather_row) {
  const int ncb = bank.ncodebooks;
  out.resize(rows, ncb);
  if (rows == 0 || ncb == 0) return;

  const std::size_t cols_per_cb =
      static_cast<std::size_t>(EncoderBank::kLevels);
  const std::size_t stride = stage_stride(rows);
  scratch.stage.resize(stride * cols_per_cb *
                       static_cast<std::size_t>(ncb));
  std::uint8_t* stage = scratch.stage.data();

  // Gather: one sweep over the input rows fills every codebook's split
  // columns (4 bytes per codebook per row) — the only pass that touches
  // the activation matrix.
  for (std::size_t n = 0; n < rows; ++n) gather_row(n, stage, stride);

  // Traverse: per codebook, a branchless tournament over its 4 staged
  // columns, 32 rows per iteration in the AVX2 tier.
  for (int c = 0; c < ncb; ++c)
    traverse_codebook(
        tier, stage + static_cast<std::size_t>(c) * cols_per_cb * stride,
        stride, rows, bank.codebook_thresholds(c), out.codebook(c));
}

#if defined(SSMA_TRACE_ENABLED)
/// Records one encoder dispatch at scope exit — covers both the
/// windowed early return and the staged-shell path. Bytes counted are
/// the threshold-compare bytes the tree walk touches: kLevels per
/// row x codebook.
struct EncodeProfileScope {
  int tier;
  std::uint64_t rows;
  std::uint64_t bytes;
  std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();

  ~EncodeProfileScope() {
    telemetry::record_encode_dispatch(
        tier, rows, bytes,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
  }
};
#endif

}  // namespace

void encode_batch_packed(const EncoderBank& bank,
                         const QuantizedActivations& q, KernelTier tier,
                         EncodeScratch& scratch, EncodedBatch& out) {
  SSMA_CHECK(q.cols == static_cast<std::size_t>(bank.total_dims));
  const int ncb = bank.ncodebooks;
  const std::int32_t* dims = bank.split_dims.data();
  const std::uint8_t* src = q.codes.data();
  const std::size_t cols = q.cols;
  tier = clamp_available(tier);
#if defined(SSMA_TRACE_ENABLED)
  const EncodeProfileScope prof{
      static_cast<int>(tier), q.rows,
      static_cast<std::uint64_t>(q.rows) *
          static_cast<std::uint64_t>(ncb) * EncoderBank::kLevels};
#endif
#if defined(SSMA_X86_SIMD)
  if (bank.windowed && tier == KernelTier::kAvx2 && q.rows > 0) {
    // The AVX2 tier with an eligible bank skips the staging tile
    // entirely: per codebook, 16-byte window loads + pshufb pick the
    // split bytes straight out of the rows (see EncoderBank::windowed).
    // The kernel reads whole 32-row blocks, so the rows past the last
    // whole block are copied once into a 32-row tile in the otherwise
    // unused staging buffer, whose pad rows it reads instead of the
    // bytes past the activation matrix.
    out.resize(q.rows, ncb);
    const std::size_t full = q.rows - q.rows % EncodedBatch::kRowBlock;
    const std::size_t tail = q.rows - full;
    scratch.stage.resize(EncodedBatch::kRowBlock * cols);
    std::uint8_t* tile = scratch.stage.data();
    std::copy(src + full * cols, src + q.rows * cols, tile);
    for (int c = 0; c < ncb; ++c) {
      const auto off = static_cast<std::size_t>(bank.window_off[c]);
      detail::encode_codebook_windowed_avx2(
          src + off, cols, full, bank.pick_mask(c),
          bank.codebook_thresholds(c), out.codebook(c));
      if (tail > 0)
        detail::encode_codebook_windowed_avx2(
            tile + off, cols, tail, bank.pick_mask(c),
            bank.codebook_thresholds(c), out.codebook(c) + full);
    }
    return;
  }
#endif
  encode_batch_shell(
      bank, q.rows, tier, scratch, out,
      [&](std::size_t n, std::uint8_t* stage, std::size_t stride) {
        const std::uint8_t* row = src + n * cols;
        for (int c = 0; c < ncb; ++c) {
          std::uint8_t* col =
              stage + (static_cast<std::size_t>(c) * EncoderBank::kLevels) *
                          stride +
              n;
          for (int l = 0; l < EncoderBank::kLevels; ++l)
            col[static_cast<std::size_t>(l) * stride] =
                row[dims[static_cast<std::size_t>(l) * ncb + c]];
        }
      });
}

void encode_batch_packed(const EncoderBank& bank, const Matrix& x,
                         float scale, KernelTier tier,
                         EncodeScratch& scratch, EncodedBatch& out) {
  SSMA_CHECK(x.cols() == static_cast<std::size_t>(bank.total_dims));
  SSMA_CHECK(scale > 0.0f);
  const int ncb = bank.ncodebooks;
  const std::int32_t* dims = bank.split_dims.data();
  const float* src = x.data();
  const std::size_t cols = x.cols();
  tier = clamp_available(tier);
#if defined(SSMA_TRACE_ENABLED)
  const EncodeProfileScope prof{
      static_cast<int>(tier), x.rows(),
      static_cast<std::uint64_t>(x.rows()) *
          static_cast<std::uint64_t>(ncb) * EncoderBank::kLevels};
#endif
  encode_batch_shell(
      bank, x.rows(), tier, scratch, out,
      [&](std::size_t n, std::uint8_t* stage, std::size_t stride) {
        const float* row = src + n * cols;
        for (int c = 0; c < ncb; ++c) {
          std::uint8_t* col =
              stage + (static_cast<std::size_t>(c) * EncoderBank::kLevels) *
                          stride +
              n;
          for (int l = 0; l < EncoderBank::kLevels; ++l) {
            // Exactly quantize_activations' arithmetic, applied only to
            // the gathered element — fused paths must produce
            // bit-identical codes.
            const double v = static_cast<double>(
                                 row[dims[static_cast<std::size_t>(l) * ncb +
                                          c]]) /
                             scale;
            col[static_cast<std::size_t>(l) * stride] =
                saturate_uint8(round_half_away(v));
          }
        }
      });
}

EncodedBatch encode_batch_packed(const EncoderBank& bank,
                                 const QuantizedActivations& q) {
  EncodeScratch scratch;
  EncodedBatch out;
  encode_batch_packed(bank, q, select_encoder_tier(), scratch, out);
  return out;
}

}  // namespace ssma::maddness
