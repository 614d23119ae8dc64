// Tests for the compiled ExecutionPlan: compile-time metadata (stage
// chain, fused-epilogue constants, bytes-avoided accounting), run_plan
// bit-exactness vs pipeline_reference_apply on every available LUT tier
// across ragged row counts and a >=3-stage chain, the zero-allocation
// steady state of PlanScratch, and the fused epilogue's rounding
// boundary under adversarial scales (exact half-integer ties, floats
// either side of k +- 0.5 at the smallest AVX-512 scale, denormal
// next_scale fallback, saturating extremes) driven through
// apply_lut_fused directly.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "engine/execution_plan.hpp"
#include "engine/model_registry.hpp"
#include "engine/pipeline.hpp"
#include "maddness/lut.hpp"
#include "maddness/lut_kernel.hpp"
#include "util/rng.hpp"

namespace ssma::engine {
namespace {

using maddness::EncodedBatch;
using maddness::FusedEpilogue;
using maddness::KernelTier;
using maddness::LutBankPacked;

// Three chained dense stages (36 -> 36 -> 36 -> 12) trained the same
// way the serve path trains them: each stage calibrated on the previous
// stage's rectified dequantized output. 48 pool rows cover every ragged
// row-count prefix the SIMD tile walks care about.
struct ChainFixture {
  ModelRef model;
  maddness::QuantizedActivations pool;

  static ChainFixture make(std::uint64_t seed = 33) {
    Rng rng(seed);
    const std::size_t d0 = 4 * 9;
    Matrix calib(384, d0);
    for (std::size_t i = 0; i < calib.size(); ++i)
      calib.data()[i] = static_cast<float>(rng.next_double(0, 200));
    Matrix w0(d0, 36);
    for (std::size_t i = 0; i < w0.size(); ++i)
      w0.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
    Matrix w1(36, 36);
    for (std::size_t i = 0; i < w1.size(); ++i)
      w1.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
    Matrix w2(36, 12);
    for (std::size_t i = 0; i < w2.size(); ++i)
      w2.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));

    maddness::Config cfg;
    cfg.ncodebooks = 4;
    Matrix mid0;
    Matrix mid1;
    std::vector<maddness::Amm> stages;
    stages.reserve(3);
    stages.push_back(train_chained_stage(cfg, calib, w0, &mid0));
    stages.push_back(train_chained_stage(cfg, mid0, w1, &mid1));
    stages.push_back(train_chained_stage(cfg, mid1, w2, nullptr));

    ChainFixture f;
    f.model = ModelHandle::from_stages(
        "mlp", 1, {&stages[0], &stages[1], &stages[2]});
    Matrix fresh(48, d0);
    for (std::size_t i = 0; i < fresh.size(); ++i)
      fresh.data()[i] = static_cast<float>(rng.next_double(0, 200));
    f.pool = maddness::quantize_activations(
        fresh, f.model->stage(0).activation_scale());
    return f;
  }
};

maddness::QuantizedActivations prefix(
    const maddness::QuantizedActivations& q, std::size_t rows) {
  maddness::QuantizedActivations sub;
  sub.rows = rows;
  sub.cols = q.cols;
  sub.scale = q.scale;
  sub.codes.assign(q.codes.begin(),
                   q.codes.begin() + static_cast<std::ptrdiff_t>(
                                         rows * q.cols));
  return sub;
}

// ---------------------------------------------------------- compile()

TEST(ExecutionPlan, CompileCachesChainAndEpilogueConstants) {
  const ChainFixture f = ChainFixture::make();
  const ExecutionPlan& plan = f.model->plan();
  ASSERT_EQ(plan.num_stages(), 3u);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_EQ(plan.stage(s).amm, &f.model->stage(s));
  // Each interior epilogue carries the CONSUMING stage's activation
  // scale — the requantization constant of the fused handoff.
  EXPECT_EQ(plan.stage(0).epilogue.next_scale,
            f.model->stage(1).activation_scale());
  EXPECT_EQ(plan.stage(1).epilogue.next_scale,
            f.model->stage(2).activation_scale());
}

TEST(ExecutionPlan, BytesAvoidedCountsInteriorBoundariesOnly) {
  const ChainFixture f = ChainFixture::make();
  // Per interior boundary the materializing walk writes + reads the
  // int16 accumulator (4 B/elem) and writes + reads the dequantized
  // float (8 B/elem): 12 bytes per element, nout elements per row.
  // Interior nouts here are both 36; the final stage materializes in
  // both walks and is not counted.
  EXPECT_EQ(f.model->plan().fused_bytes_avoided_per_row(),
            12u * (36 + 36));

  // A single-stage plan has no interior boundary and no fused traffic.
  const ModelRef single =
      ModelHandle::from_amm("one", 1, f.model->stage(0));
  EXPECT_EQ(single->plan().num_stages(), 1u);
  EXPECT_EQ(single->plan().fused_bytes_avoided_per_row(), 0u);
}

// -------------------------------------------- run_plan bit-exactness

TEST(ExecutionPlan, FusedMatchesReferenceEveryTierEveryRaggedRowCount) {
  const ChainFixture f = ChainFixture::make();
  // Row counts straddling both SIMD row tiles (16 for AVX-512, 32 for
  // AVX2) and their scalar tails, plus the degenerate single row.
  const std::size_t kRows[] = {1, 2, 3, 5, 7, 8, 15, 16, 17,
                               31, 32, 33, 47, 48};
  for (const KernelTier tier : maddness::available_kernel_tiers()) {
    PlanScratch scratch;
    std::vector<std::int16_t> out;
    for (const std::size_t rows : kRows) {
      const maddness::QuantizedActivations sub = prefix(f.pool, rows);
      const std::vector<std::int16_t> want =
          pipeline_reference_apply(*f.model, sub);
      ASSERT_EQ(want.size(), rows * 12);
      run_plan(f.model->plan(), sub, scratch, out, tier);
      EXPECT_EQ(out, want)
          << "fused plan diverged on "
          << maddness::kernel_tier_name(tier) << " rows=" << rows;
    }
  }
}

TEST(ExecutionPlan, SingleStagePlanMatchesAmmApply) {
  const ChainFixture f = ChainFixture::make();
  const ModelRef single =
      ModelHandle::from_amm("one", 1, f.model->stage(0));
  const std::vector<std::int16_t> want =
      single->amm().apply_int16(f.pool);
  PlanScratch scratch;
  std::vector<std::int16_t> out;
  run_plan(single->plan(), f.pool, scratch, out);
  EXPECT_EQ(out, want);
}

// ----------------------------------------------- zero-alloc steady state

TEST(ExecutionPlan, SteadyStateReusesEveryScratchBuffer) {
  const ChainFixture f = ChainFixture::make();
  PlanScratch scratch;
  std::vector<std::int16_t> out;
  // Warm-up run at the largest batch establishes every capacity.
  run_plan(f.model->plan(), f.pool, scratch, out);

  const std::uint8_t* enc_ptr = scratch.enc.codes.data();
  const std::size_t enc_cap = scratch.enc.codes.capacity();
  const std::uint8_t* inter_ptr = scratch.inter.codes.data();
  const std::size_t inter_cap = scratch.inter.codes.capacity();
  const std::int16_t* out_ptr = out.data();
  const std::size_t out_cap = out.capacity();

  // Same-shape and smaller batches must not move or grow any buffer:
  // the worker-shard contract is zero allocations at steady state.
  for (const std::size_t rows : {48u, 17u, 1u, 48u}) {
    run_plan(f.model->plan(), prefix(f.pool, rows), scratch, out);
    EXPECT_EQ(scratch.enc.codes.data(), enc_ptr) << "rows=" << rows;
    EXPECT_EQ(scratch.enc.codes.capacity(), enc_cap) << "rows=" << rows;
    EXPECT_EQ(scratch.inter.codes.data(), inter_ptr) << "rows=" << rows;
    EXPECT_EQ(scratch.inter.codes.capacity(), inter_cap)
        << "rows=" << rows;
    EXPECT_EQ(out.data(), out_ptr) << "rows=" << rows;
    EXPECT_EQ(out.capacity(), out_cap) << "rows=" << rows;
  }
}

// ------------------------------------- epilogue rounding boundaries

// Hand-built pshufb-shaped bank with full-range int8 entries and
// power-of-two scales: with scales[o] = 1.0 every dequantized value is
// an exact integer, so next_scale = 2.0 makes every odd accumulator an
// EXACT half-integer tie — the round-half-away boundary the SIMD
// epilogue's exact-comparison fixup must get right.
struct AdversarialBank {
  LutBankPacked lut;
  EncodedBatch enc;
  std::size_t rows = 0;

  static AdversarialBank make(bool per_column, std::uint64_t seed) {
    AdversarialBank a;
    a.rows = 37;  // ragged vs both SIMD row tiles
    a.lut.ncodebooks = 4;
    a.lut.nprotos = 16;
    a.lut.nout = 20;  // ragged vs the 16-output tile
    a.lut.per_column_scale = per_column;
    Rng rng(seed);
    a.lut.q.resize(static_cast<std::size_t>(4) * 20 * 16);
    for (auto& v : a.lut.q)
      v = static_cast<std::int8_t>(rng.next_double(-128, 128));
    if (per_column) {
      // Powers of two keep y = acc * scale exact in float.
      const float pows[] = {0.25f, 0.5f, 1.0f, 2.0f, 4.0f};
      a.lut.scales.resize(20);
      for (int o = 0; o < 20; ++o) a.lut.scales[o] = pows[o % 5];
    } else {
      a.lut.scales = {1.0f};
    }
    a.enc.rows = a.rows;
    a.enc.ncodebooks = 4;
    a.enc.codes.resize(a.rows * 4);
    for (auto& c : a.enc.codes)
      c = static_cast<std::uint8_t>(rng.next_double(0, 16));
    return a;
  }

  /// Column scales that put y / next_scale on the rounding boundaries
  /// k +- 0.5 (k in {0, 1, 127, 254, 255}), and one float either side
  /// of each, wherever a row's accumulator is 1. Codebook 0 gives every
  /// row 1 and codebook 4, alone in the ragged last group, adds 0, 0, 1
  /// or -2, so accumulators are 1, 2 or -1; the other tables are 0.
  static AdversarialBank boundaries(float next_scale) {
    constexpr int kNcb = 5;
    constexpr int kNout = 30;  // 5 k x 2 sides x 3 positions
    AdversarialBank a;
    a.rows = 37;
    a.lut.ncodebooks = kNcb;
    a.lut.nprotos = 16;
    a.lut.nout = kNout;
    a.lut.per_column_scale = true;
    a.lut.q.assign(static_cast<std::size_t>(kNcb) * kNout * 16, 0);
    const std::int8_t extra[] = {0, 0, 1, -2};
    for (int o = 0; o < kNout; ++o)
      for (int k = 0; k < 16; ++k) {
        a.lut.q[a.lut.table_index(0, o) + static_cast<std::size_t>(k)] = 1;
        a.lut.q[a.lut.table_index(4, o) + static_cast<std::size_t>(k)] =
            extra[k % 4];
      }
    const int ks[] = {0, 1, 127, 254, 255};
    for (int o = 0; o < kNout; ++o) {
      const float bound =
          static_cast<float>(ks[o / 6]) + ((o / 3) % 2 == 0 ? -0.5f : 0.5f);
      const float on = bound * next_scale;
      const int pos = o % 3;
      a.lut.scales.push_back(
          pos == 1 ? on
                   : std::nextafter(on, pos == 0 ? -INFINITY : INFINITY));
    }
    Rng rng(404);
    a.enc.rows = a.rows;
    a.enc.ncodebooks = kNcb;
    a.enc.codes.resize(a.rows * kNcb);
    for (auto& c : a.enc.codes)
      c = static_cast<std::uint8_t>(rng.next_double(0, 16));
    return a;
  }

  std::vector<std::uint8_t> expected(float next_scale) const {
    const std::vector<std::int16_t> acc =
        apply_lut_packed(lut, enc, KernelTier::kScalar);
    std::vector<std::uint8_t> want(acc.size());
    for (std::size_t i = 0; i < acc.size(); ++i)
      want[i] = maddness::detail::fused_requantize(
          acc[i],
          maddness::detail::packed_scale(
              lut, static_cast<int>(i % static_cast<std::size_t>(lut.nout))),
          next_scale);
    return want;
  }
};

TEST(FusedEpilogue, ExactHalfIntegerTiesMatchReferenceOnEveryTier) {
  // next_scale = 2 with unit LUT scales: every odd accumulator sits on
  // an exact .5 boundary. next_scale = 0.25 with power-of-two column
  // scales: quotients are exact multiples of 1, 2, 4, 8 or 16 — dense
  // tie coverage plus both saturation edges from the full-range q.
  const AdversarialBank uniform = AdversarialBank::make(false, 101);
  const AdversarialBank columns = AdversarialBank::make(true, 202);
  const struct {
    const AdversarialBank* bank;
    float next_scale;
  } kCases[] = {
      {&uniform, 2.0f},      {&uniform, 0.5f},  {&columns, 0.25f},
      {&columns, 1.0f},      {&uniform, 3.0f},  // non-power-of-two
      {&uniform, 1e30f},     // everything rounds to 0
      {&uniform, 1e-30f},    // everything saturates (or clamps at 0)
  };
  for (const auto& c : kCases) {
    const std::vector<std::uint8_t> want = c.bank->expected(c.next_scale);
    const FusedEpilogue ep{c.next_scale};
    for (const KernelTier tier : maddness::available_kernel_tiers()) {
      std::vector<std::uint8_t> got(want.size(), 0xAB);
      apply_lut_fused(c.bank->lut, c.bank->enc, ep, tier, got.data());
      EXPECT_EQ(got, want)
          << maddness::kernel_tier_name(tier)
          << " next_scale=" << c.next_scale
          << " per_column=" << c.bank->lut.per_column_scale;
    }
  }
}

TEST(FusedEpilogue, RoundingBoundariesAtTheSmallestFmaScale) {
  // The AVX-512 epilogue decides each boundary from the sign of
  // fma(c +- 0.5, s, -y), exact for s >= kAvx512MinNextScale; one float
  // below it the dispatcher sends the batch to the AVX2 tier. Non-
  // power-of-two scales make (k +- 0.5) * s inexact in float, so a
  // boundary test that rounded the product would misplace the floats
  // either side of it.
  const float smallest = maddness::detail::kAvx512MinNextScale;
  const float kScales[] = {smallest, std::nextafter(smallest, 0.0f),
                           std::nextafter(smallest, 1.0f), 3.0f, 0.37f};
  for (const float next_scale : kScales) {
    const AdversarialBank bank = AdversarialBank::boundaries(next_scale);
    const std::vector<std::uint8_t> want = bank.expected(next_scale);
    const FusedEpilogue ep{next_scale};
    for (const KernelTier tier : maddness::available_kernel_tiers()) {
      std::vector<std::uint8_t> got(want.size(), 0xAB);
      apply_lut_fused(bank.lut, bank.enc, ep, tier, got.data());
      EXPECT_EQ(got, want) << maddness::kernel_tier_name(tier)
                           << " next_scale=" << next_scale;
    }
  }
}

TEST(FusedEpilogue, DenormalNextScaleFallsBackToReferenceMath) {
  // The SIMD epilogues require fl(1/next_scale) at full float
  // precision; a denormal next_scale must re-route to the scalar
  // divide-based path and still match the reference element math.
  const AdversarialBank bank = AdversarialBank::make(false, 303);
  const float denormal = std::numeric_limits<float>::min() / 4.0f;
  ASSERT_GT(denormal, 0.0f);
  ASSERT_LT(denormal, std::numeric_limits<float>::min());
  const std::vector<std::uint8_t> want = bank.expected(denormal);
  const FusedEpilogue ep{denormal};
  for (const KernelTier tier : maddness::available_kernel_tiers()) {
    std::vector<std::uint8_t> got(want.size(), 0xAB);
    apply_lut_fused(bank.lut, bank.enc, ep, tier, got.data());
    EXPECT_EQ(got, want) << maddness::kernel_tier_name(tier);
  }
}

}  // namespace
}  // namespace ssma::engine
