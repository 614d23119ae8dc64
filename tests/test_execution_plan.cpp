// Tests for the compiled ExecutionPlan: compile-time metadata (stage
// chain, fused-epilogue constants, bytes-avoided accounting), run_plan
// bit-exactness vs pipeline_reference_apply on every available LUT tier
// at every row residue of the 32-row block and a >=3-stage chain, the
// zero-allocation
// steady state of PlanScratch, the fused epilogue's table checked on
// every reachable accumulator of trained chains, and its rounding
// boundary under adversarial scales (exact half-integer ties, floats
// either side of k +- 0.5 at 2^-125 and its neighbours, denormal
// next_scale, saturating extremes, columns the first candidate misses
// and columns no pair fits) driven through apply_lut_fused directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "engine/execution_plan.hpp"
#include "engine/model_registry.hpp"
#include "kernel_test_util.hpp"
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

// Three chained dense stages (36 -> 36 -> 36 -> 12 at the default four
// codebooks; ncodebooks * 9 wide in general) trained the same way the
// serve path trains them: each stage calibrated on the previous stage's
// rectified dequantized output. 224 pool rows cover every row-count
// prefix test::ragged_row_counts() names.
struct ChainFixture {
  ModelRef model;
  maddness::QuantizedActivations pool;

  static ChainFixture make(std::uint64_t seed = 33, int ncodebooks = 4) {
    Rng rng(seed);
    const std::size_t d0 = static_cast<std::size_t>(ncodebooks) * 9;
    Matrix calib(384, d0);
    for (std::size_t i = 0; i < calib.size(); ++i)
      calib.data()[i] = static_cast<float>(rng.next_double(0, 200));
    Matrix w0(d0, d0);
    for (std::size_t i = 0; i < w0.size(); ++i)
      w0.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
    Matrix w1(d0, d0);
    for (std::size_t i = 0; i < w1.size(); ++i)
      w1.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
    Matrix w2(d0, 12);
    for (std::size_t i = 0; i < w2.size(); ++i)
      w2.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));

    maddness::Config cfg;
    cfg.ncodebooks = ncodebooks;
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
    Matrix fresh(224, d0);
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
  // Interior stages carry one table entry per output column; the final
  // stage stores int16 and has no table.
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(plan.stage(s).epilogue.mul.size(), 36u);
    EXPECT_EQ(plan.stage(s).epilogue.add.size(), 36u);
    EXPECT_EQ(plan.stage(s).epilogue.exact.size(), 1u);
  }
  EXPECT_TRUE(plan.stage(2).epilogue.mul.empty());
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
  // Every row residue of both SIMD row tiles (16 for AVX-512, 32 for
  // AVX2), whose ragged last blocks run on the tiers' own code.
  for (const KernelTier tier : maddness::available_kernel_tiers()) {
    PlanScratch scratch;
    std::vector<std::int16_t> out;
    for (const std::size_t rows : test::ragged_row_counts()) {
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

// ------------------------------------------ the fused epilogue's table

/// The SIMD tiers' handoff of one accumulator, modeled here rather than
/// taken from the library's checker: fma, then cvttps2dq (NaN and values
/// outside int32 become INT_MIN), then the saturating packs (a clamp to
/// [0, 255]).
std::uint8_t table_value(std::int32_t acc, float mul, float add) {
  const float x = std::fma(static_cast<float>(acc), mul, add);
  const std::int32_t t = x >= -0x1p31f && x < 0x1p31f
                             ? static_cast<std::int32_t>(x)
                             : std::numeric_limits<std::int32_t>::min();
  return static_cast<std::uint8_t>(std::clamp(t, 0, 255));
}

std::uint8_t reference_value(const LutBankPacked& lut, int o,
                             std::int32_t acc, float next_scale) {
  return maddness::detail::fused_requantize(
      maddness::detail::saturate_acc16(acc),
      maddness::detail::packed_scale(lut, o), next_scale);
}

/// Column o's reachable accumulators: the sums of its tables' minima and
/// maxima over every codebook.
std::pair<std::int32_t, std::int32_t> reachable(const LutBankPacked& lut,
                                                int o) {
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  for (int c = 0; c < lut.ncodebooks; ++c) {
    std::int32_t mn = 127;
    std::int32_t mx = -128;
    for (int k = 0; k < lut.nprotos; ++k) {
      mn = std::min<std::int32_t>(mn, lut.at(c, k, o));
      mx = std::max<std::int32_t>(mx, lut.at(c, k, o));
    }
    lo += mn;
    hi += mx;
  }
  return {lo, hi};
}

/// x moved by `n` ulps (down when n < 0).
float ulps_from(float x, int n) {
  for (; n > 0; --n) x = std::nextafter(x, INFINITY);
  for (; n < 0; ++n) x = std::nextafter(x, -INFINITY);
  return x;
}

bool marked_exact(const FusedEpilogue& ep, int o) {
  return ep.exact_bits(o, 1) != 0;
}

TEST(ExecutionPlan, EveryFusedColumnIsExactOnItsReachableRange) {
  // Every column of every interior stage of two trained chains: the
  // 4-codebook fixture and a 32-codebook one with 288-wide interior
  // stages (mlp_fused's shape). No column of either needs the exact
  // path, so a table that is wrong anywhere on a reachable accumulator
  // fails here, whether or not a trained activation lands on it.
  struct Chain {
    ChainFixture f;
    std::size_t expected_exact;
  };
  const Chain kChains[] = {{ChainFixture::make(), 0},
                           {ChainFixture::make(33, 32), 0}};
  for (const Chain& chain : kChains) {
    const ExecutionPlan& plan = chain.f.model->plan();
    std::size_t exact = 0;
    std::size_t checked = 0;
    for (std::size_t s = 0; s + 1 < plan.num_stages(); ++s) {
      const LutBankPacked& lut = plan.stage(s).amm->packed_lut();
      const FusedEpilogue& ep = plan.stage(s).epilogue;
      ASSERT_EQ(ep.mul.size(), static_cast<std::size_t>(lut.nout));
      for (int o = 0; o < lut.nout; ++o) {
        if (marked_exact(ep, o)) {
          ++exact;
          continue;
        }
        const auto [lo, hi] = reachable(lut, o);
        for (std::int32_t acc = lo; acc <= hi; ++acc) {
          ASSERT_EQ(table_value(acc, ep.mul[static_cast<std::size_t>(o)],
                                ep.add[static_cast<std::size_t>(o)]),
                    reference_value(lut, o, acc, ep.next_scale))
              << "stage " << s << " column " << o << " acc " << acc;
        }
        ++checked;
      }
    }
    EXPECT_EQ(exact, chain.expected_exact);
    EXPECT_GT(checked, 0u);
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
  const std::uint8_t* stage_ptr = scratch.encode.stage.data();
  const std::size_t stage_cap = scratch.encode.stage.capacity();
  const std::uint8_t* inter_ptr = scratch.inter.codes.data();
  const std::size_t inter_cap = scratch.inter.codes.capacity();
  const std::int16_t* out_ptr = out.data();
  const std::size_t out_cap = out.capacity();

  // Same-shape and smaller batches must not move or grow any buffer:
  // the worker-shard contract is zero allocations at steady state.
  for (const std::size_t rows : {224u, 17u, 1u, 223u}) {
    run_plan(f.model->plan(), prefix(f.pool, rows), scratch, out);
    EXPECT_EQ(scratch.enc.codes.data(), enc_ptr) << "rows=" << rows;
    EXPECT_EQ(scratch.enc.codes.capacity(), enc_cap) << "rows=" << rows;
    EXPECT_EQ(scratch.encode.stage.data(), stage_ptr) << "rows=" << rows;
    EXPECT_EQ(scratch.encode.stage.capacity(), stage_cap)
        << "rows=" << rows;
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
// epilogue's table must get right.
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
    a.enc.resize(a.rows, 4);
    for (int c = 0; c < 4; ++c)
      for (std::size_t n = 0; n < a.rows; ++n)
        a.enc.codebook(c)[n] = static_cast<std::uint8_t>(rng.next_double(0, 16));
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
    a.enc.resize(a.rows, kNcb);
    for (int c = 0; c < kNcb; ++c)
      for (std::size_t n = 0; n < a.rows; ++n)
        a.enc.codebook(c)[n] = static_cast<std::uint8_t>(rng.next_double(0, 16));
    return a;
  }

  /// kNcb codebooks whose tables span [-127, 127] in every column, with
  /// one scale for all columns. Every third row picks entry 1 of every
  /// table, and those entries sum to `target` in every column.
  static AdversarialBank reaching(float scale, std::int32_t target) {
    constexpr int kNcb = 32;
    constexpr int kNout = 20;
    AdversarialBank a;
    a.rows = 37;
    a.lut.ncodebooks = kNcb;
    a.lut.nprotos = 16;
    a.lut.nout = kNout;
    a.lut.per_column_scale = true;
    a.lut.scales.assign(kNout, scale);
    a.lut.q.resize(static_cast<std::size_t>(kNcb) * kNout * 16);
    Rng rng(505);
    for (auto& v : a.lut.q)
      v = static_cast<std::int8_t>(rng.next_double(-127, 128));
    for (int o = 0; o < kNout; ++o) {
      std::int32_t rest = target;
      for (int c = 0; c < kNcb; ++c) {
        const std::int32_t share =
            std::clamp<std::int32_t>(rest, -127, 127);
        rest -= share;
        std::int8_t* t = a.lut.q.data() + a.lut.table_index(c, o);
        t[0] = -127;
        t[1] = static_cast<std::int8_t>(share);
        t[15] = 127;
      }
    }
    a.enc.resize(a.rows, kNcb);
    for (int c = 0; c < kNcb; ++c)
      for (std::size_t n = 0; n < a.rows; ++n)
        a.enc.codebook(c)[n] =
            n % 3 == 0 ? 1 : static_cast<std::uint8_t>(rng.next_double(0, 16));
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
    const FusedEpilogue ep =
        maddness::make_fused_epilogue(c.bank->lut, c.next_scale);
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

TEST(FusedEpilogue, RoundingBoundariesAtTwoToTheMinus125AndNeighbours) {
  // Column scales put y / next_scale on k +- 0.5 and one float either
  // side of it, at next_scale = 2^-125 (where y = acc * scale is near
  // the denormal range), its neighbours and two ordinary scales. Non-
  // power-of-two scales make (k +- 0.5) * s inexact in float, so a
  // table that rounded the boundary the wrong way would misplace the
  // floats either side of it.
  const float smallest = 0x1p-125f;
  const float kScales[] = {smallest, std::nextafter(smallest, 0.0f),
                           std::nextafter(smallest, 1.0f), 3.0f, 0.37f};
  for (const float next_scale : kScales) {
    const AdversarialBank bank = AdversarialBank::boundaries(next_scale);
    const std::vector<std::uint8_t> want = bank.expected(next_scale);
    const FusedEpilogue ep =
        maddness::make_fused_epilogue(bank.lut, next_scale);
    for (const KernelTier tier : maddness::available_kernel_tiers()) {
      std::vector<std::uint8_t> got(want.size(), 0xAB);
      apply_lut_fused(bank.lut, bank.enc, ep, tier, got.data());
      EXPECT_EQ(got, want) << maddness::kernel_tier_name(tier)
                           << " next_scale=" << next_scale;
    }
  }
}

TEST(FusedEpilogue, DenormalNextScaleTakesTheExactPath) {
  // scale / next_scale overflows to +inf at a denormal next_scale, so no
  // pair fits a column that reaches a positive accumulator: those
  // columns take fused_requantize inside the SIMD tiles and still match
  // the reference element math.
  const AdversarialBank bank = AdversarialBank::make(false, 303);
  const float denormal = std::numeric_limits<float>::min() / 4.0f;
  ASSERT_GT(denormal, 0.0f);
  ASSERT_LT(denormal, std::numeric_limits<float>::min());
  const std::vector<std::uint8_t> want = bank.expected(denormal);
  const FusedEpilogue ep = maddness::make_fused_epilogue(bank.lut, denormal);
  for (const KernelTier tier : maddness::available_kernel_tiers()) {
    std::vector<std::uint8_t> got(want.size(), 0xAB);
    apply_lut_fused(bank.lut, bank.enc, ep, tier, got.data());
    EXPECT_EQ(got, want) << maddness::kernel_tier_name(tier);
  }
}

TEST(FusedEpilogue, SearchFixesAColumnTheFirstCandidateMisses) {
  // Seeded search (scale log-uniform in [1e-4, 0.1], next_scale in
  // [1e-3, 1]) for a column whose first candidate (fl(scale /
  // next_scale), 0.5) misses the reference at an accumulator a
  // 32-codebook bank can reach, in a bank whose rows reach it. About 1
  // in 250 such columns has a miss; a few of those fit no pair and are
  // passed over (ColumnsNoPairFitsTakeTheExactPath covers that path).
  Rng rng(2025);
  float scale = 0.0f;
  float next_scale = 0.0f;
  std::int32_t target = 0;
  AdversarialBank bank;
  FusedEpilogue ep;
  for (int attempt = 0; attempt < 20000; ++attempt) {
    scale = static_cast<float>(std::exp(rng.next_double(-9.2, -2.3)));
    next_scale = static_cast<float>(std::exp(rng.next_double(-6.9, 0.0)));
    const float mul0 = scale / next_scale;
    target = 0;
    for (std::int32_t acc = 1; acc <= 127 * 32; ++acc) {
      const std::uint8_t want = maddness::detail::fused_requantize(
          maddness::detail::saturate_acc16(acc), scale, next_scale);
      if (table_value(acc, mul0, 0.5f) != want) {
        target = acc;
        break;
      }
      if (want == 255) break;
    }
    if (target == 0) continue;
    bank = AdversarialBank::reaching(scale, target);
    ep = maddness::make_fused_epilogue(bank.lut, next_scale);
    if (!marked_exact(ep, 0)) break;
  }
  ASSERT_NE(target, 0) << "no first-candidate miss found";
  for (int o = 0; o < bank.lut.nout; ++o) {
    const auto i = static_cast<std::size_t>(o);
    ASSERT_FALSE(marked_exact(ep, o)) << "column " << o;
    EXPECT_FALSE(ep.mul[i] == scale / next_scale && ep.add[i] == 0.5f)
        << "column " << o << " kept the first candidate";
    EXPECT_EQ(table_value(target, ep.mul[i], ep.add[i]),
              reference_value(bank.lut, o, target, next_scale));
  }
  const std::vector<std::uint8_t> want = bank.expected(next_scale);
  for (const KernelTier tier : maddness::available_kernel_tiers()) {
    std::vector<std::uint8_t> got(want.size(), 0xAB);
    apply_lut_fused(bank.lut, bank.enc, ep, tier, got.data());
    EXPECT_EQ(got, want) << maddness::kernel_tier_name(tier)
                         << " scale=" << scale
                         << " next_scale=" << next_scale
                         << " acc=" << target;
  }
}

TEST(FusedEpilogue, ColumnsNoPairFitsTakeTheExactPath) {
  // At next_scale = 1e-30 the fma of any positive accumulator leaves
  // int32 and truncates to INT_MIN, which the packs clamp to 0 where the
  // reference saturates to 255: no pair fits a column that reaches a
  // positive accumulator. Each must be marked, and every tier must still
  // match the reference by running fused_requantize on its lanes.
  const float next_scale = 1e-30f;
  for (const bool per_column : {false, true}) {
    const AdversarialBank bank =
        AdversarialBank::make(per_column, per_column ? 606 : 505);
    const FusedEpilogue ep =
        maddness::make_fused_epilogue(bank.lut, next_scale);
    for (int o = 0; o < bank.lut.nout; ++o) {
      // No pair of the +-4-ulp neighbourhood of the first candidate
      // reproduces the reference at the column's largest accumulator.
      const std::int32_t hi = reachable(bank.lut, o).second;
      ASSERT_GT(hi, 0);
      const std::uint8_t want = reference_value(bank.lut, o, hi, next_scale);
      const float mul0 =
          maddness::detail::packed_scale(bank.lut, o) / next_scale;
      for (int dm = -4; dm <= 4; ++dm)
        for (int da = -4; da <= 4; ++da)
          ASSERT_NE(table_value(hi, ulps_from(mul0, dm), ulps_from(0.5f, da)),
                    want);
      EXPECT_TRUE(marked_exact(ep, o)) << "column " << o;
    }
    const std::vector<std::uint8_t> want = bank.expected(next_scale);
    for (const KernelTier tier : maddness::available_kernel_tiers()) {
      std::vector<std::uint8_t> got(want.size(), 0xAB);
      apply_lut_fused(bank.lut, bank.enc, ep, tier, got.data());
      EXPECT_EQ(got, want) << maddness::kernel_tier_name(tier)
                           << " per_column=" << per_column;
    }
  }
}

}  // namespace
}  // namespace ssma::engine
