// Correctness hardening of the LUT accumulation hot path: every packed
// kernel tier, with the store and the fused sink, must be bit-exact vs
// the reference int32-accumulate / saturate-once decode on randomized
// configurations (every row residue of the 32-row block, and
// non-16-multiple output tails), the fused sink must write no byte past
// the batch's rows, the encode cache's pad rows must hold code 0, the
// packed layout must round-trip, the saturation semantics must hold
// under adversarial all-±127 banks that overflow int16, and a CRC-valid
// SSMAAMM2 blob with hostile length fields, like a hand-built batch
// whose rows disagree with its codes, must fail as a CheckError, not
// allocate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "kernel_test_util.hpp"
#include "maddness/amm.hpp"
#include "maddness/framing.hpp"
#include "maddness/lut.hpp"
#include "maddness/lut_kernel.hpp"
#include "ppa/tech_constants.hpp"
#include "util/rng.hpp"

using namespace ssma;
using namespace ssma::maddness;

namespace {

/// Handcrafted random bank: entries uniform in [-127, 127].
LutBank random_bank(Rng& rng, int ncodebooks, int nlevels, int nout) {
  LutBank bank;
  bank.cfg.ncodebooks = ncodebooks;
  bank.cfg.nlevels = nlevels;
  bank.nout = nout;
  const std::size_t entries = static_cast<std::size_t>(ncodebooks) *
                              bank.cfg.nprototypes() * nout;
  bank.q.resize(entries);
  for (auto& v : bank.q)
    v = static_cast<std::int8_t>(rng.next_int(-127, 127));
  bank.scales.assign(
      bank.cfg.per_column_lut_scale ? static_cast<std::size_t>(nout) : 1u,
      1.0f);
  return bank;
}

std::vector<std::uint8_t> random_codes(Rng& rng, std::size_t rows,
                                       int ncodebooks, int nprotos) {
  std::vector<std::uint8_t> codes(rows * static_cast<std::size_t>(ncodebooks));
  for (auto& c : codes)
    c = static_cast<std::uint8_t>(rng.next_int(0, nprotos - 1));
  return codes;
}

/// The fused sink's reference: each reference accumulator through
/// fused_requantize with its column's scale.
std::vector<std::uint8_t> fused_reference(const LutBankPacked& packed,
                                          const std::vector<std::int16_t>& acc,
                                          float next_scale) {
  std::vector<std::uint8_t> want(acc.size());
  const auto nout = static_cast<std::size_t>(packed.nout);
  for (std::size_t i = 0; i < acc.size(); ++i)
    want[i] = maddness::detail::fused_requantize(
        acc[i],
        maddness::detail::packed_scale(packed, static_cast<int>(i % nout)),
        next_scale);
  return want;
}

Matrix random_activations(Rng& rng, std::size_t n, std::size_t d) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 200));
  return x;
}

Matrix random_weights(Rng& rng, std::size_t d, std::size_t o) {
  Matrix w(d, o);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.05));
  return w;
}

}  // namespace

// ------------------------------------------------------- layout round trip

TEST(LutPacked, PackUnpackRoundTrip) {
  Rng rng(101);
  for (const int nout : {1, 5, 16, 37}) {
    const LutBank bank = random_bank(rng, 3, 4, nout);
    const LutBankPacked packed = pack_lut(bank);
    ASSERT_EQ(packed.q.size(), bank.q.size());
    for (int c = 0; c < 3; ++c)
      for (int k = 0; k < 16; ++k)
        for (int o = 0; o < nout; ++o)
          ASSERT_EQ(packed.at(c, k, o), bank.at(c, k, o))
              << "c=" << c << " k=" << k << " o=" << o;
    const LutBank back = unpack_lut(packed, bank.cfg);
    EXPECT_EQ(back.q, bank.q);
    EXPECT_EQ(back.scales, bank.scales);
    EXPECT_EQ(back.nout, bank.nout);
  }
}

TEST(LutPacked, TableIsContiguousPerCodebookOutput) {
  Rng rng(103);
  const LutBank bank = random_bank(rng, 2, 4, 7);
  const LutBankPacked packed = pack_lut(bank);
  for (int c = 0; c < 2; ++c)
    for (int o = 0; o < 7; ++o) {
      const std::int8_t* t = packed.table_ptr(c, o);
      for (int k = 0; k < 16; ++k) EXPECT_EQ(t[k], bank.at(c, k, o));
    }
}

TEST(LutPacked, FourCodebookGroupsAreOneRunPerOutput) {
  // The vpermb operand: a group's four tables for one output are 64
  // contiguous bytes; a ragged last group (ncb = 6: width 2) keeps its
  // real width, and the bank's size is unchanged.
  Rng rng(105);
  const LutBank bank = random_bank(rng, 6, 4, 5);
  const LutBankPacked packed = pack_lut(bank);
  ASSERT_EQ(packed.q.size(), bank.q.size());
  for (int o = 0; o < 5; ++o) {
    for (int c = 0; c < 4; ++c)
      EXPECT_EQ(packed.table_ptr(c, o), packed.table_ptr(0, o) + 16 * c);
    EXPECT_EQ(packed.table_ptr(0, o), packed.q.data() + 64 * o);
    EXPECT_EQ(packed.table_ptr(4, o),
              packed.q.data() + 4 * 5 * 16 + 2 * 16 * o);
    EXPECT_EQ(packed.table_ptr(5, o), packed.table_ptr(4, o) + 16);
  }
  EXPECT_EQ(packed.out_stride(0), 64u);
  EXPECT_EQ(packed.out_stride(5), 32u);
}

// -------------------------------------------------- kernel bit-exactness

TEST(LutKernel, AllTiersBitExactOnRandomConfigMatrix) {
  Rng rng(2027);
  const auto tiers = available_kernel_tiers();
  // Every row residue of the 16- and 32-row blocks; nout not multiples
  // of the output blocks (including < 1 block); codebook counts around
  // the SIMD chunk boundaries, past the 256 codebooks the AVX2 tier
  // accumulates in int16 and past the 512 whose AVX-512 index vectors
  // fit its stack buffer. Each tier runs the store and the fused sink.
  // The fused dst leaves room for one whole 32-row block past the batch,
  // filled with a sentinel: a tier that stored its ragged last block's
  // pad rows would overwrite it.
  const int shapes[][2] = {
      // {ncodebooks, nout}
      {1, 1},   {1, 5},    {3, 16},   {7, 37},  {16, 64},
      {16, 130}, {32, 128}, {40, 23}, {521, 18},
  };
  const float next_scale = 3.0f;
  for (const auto& shape : shapes) {
    const int ncb = shape[0], nout = shape[1];
    const LutBank bank = random_bank(rng, ncb, 4, nout);
    const LutBankPacked packed = pack_lut(bank);
    const FusedEpilogue ep = make_fused_epilogue(packed, next_scale);
    for (const std::size_t rows : test::ragged_row_counts()) {
      const auto codes = random_codes(rng, rows, ncb, 16);
      const auto ref = apply_lut_reference(bank, codes, rows);
      const auto ref_fused = fused_reference(packed, ref, next_scale);
      const EncodedBatch enc = make_encoded_batch(codes, rows, ncb);
      ASSERT_TRUE(test::pad_codes_are_zero(enc)) << "rows=" << rows;
      for (const KernelTier tier : tiers) {
        ASSERT_EQ(apply_lut_packed(packed, enc, tier), ref)
            << "store tier=" << kernel_tier_name(tier) << " ncb=" << ncb
            << " nout=" << nout << " rows=" << rows;
        std::vector<std::uint8_t> got(
            ref_fused.size() +
                EncodedBatch::kRowBlock * static_cast<std::size_t>(nout),
            0xAB);
        apply_lut_fused(packed, enc, ep, tier, got.data());
        ASSERT_TRUE(std::equal(ref_fused.begin(), ref_fused.end(),
                               got.begin()))
            << "fused tier=" << kernel_tier_name(tier) << " ncb=" << ncb
            << " nout=" << nout << " rows=" << rows;
        for (std::size_t i = ref_fused.size(); i < got.size(); ++i)
          ASSERT_EQ(got[i], 0xAB)
              << "fused tier=" << kernel_tier_name(tier) << " ncb=" << ncb
              << " nout=" << nout << " rows=" << rows << " wrote byte " << i;
      }
    }
  }
}

TEST(LutKernel, NonHardwarePrototypeCountFallsBackExactly) {
  // K=8 (nlevels=3) banks cannot use the pshufb tiers; requesting the
  // top tier must still produce reference-exact results via the scalar
  // fallback rather than silently misindexing a 16-wide shuffle.
  Rng rng(2029);
  const LutBank bank = random_bank(rng, 5, 3, 21);
  const auto codes = random_codes(rng, 40, 5, 8);
  const auto ref = apply_lut_reference(bank, codes, 40);
  const LutBankPacked packed = pack_lut(bank);
  ASSERT_EQ(packed.nprotos, 8);
  const EncodedBatch enc = make_encoded_batch(codes, 40, 5);
  for (const KernelTier tier : available_kernel_tiers())
    EXPECT_EQ(apply_lut_packed(packed, enc, tier), ref)
        << kernel_tier_name(tier);
}

TEST(LutKernel, EmptyBatchAndEmptyBank) {
  Rng rng(2031);
  const LutBank bank = random_bank(rng, 2, 4, 6);
  const LutBankPacked packed = pack_lut(bank);
  EncodedBatch empty;
  empty.ncodebooks = 2;
  EXPECT_TRUE(apply_lut_packed(packed, empty).empty());
  const LutBank nooutputs = random_bank(rng, 2, 4, 0);
  const auto codes = random_codes(rng, 9, 2, 16);
  EXPECT_TRUE(apply_lut_packed(pack_lut(nooutputs),
                               make_encoded_batch(codes, 9, 2))
                  .empty());
  EXPECT_TRUE(apply_lut_reference(nooutputs, codes, 9).empty());
}

TEST(LutKernel, MismatchedBatchFailsItsCheckBeforeTheOutputIsSized) {
  // A hand-built batch whose rows disagree with its codes must fail as a
  // CheckError, not first size a rows x nout output of 2^60 rows.
  Rng rng(2035);
  const LutBankPacked packed = pack_lut(random_bank(rng, 2, 4, 6));
  EncodedBatch enc;
  enc.ncodebooks = 2;
  enc.rows = std::size_t{1} << 60;
  std::vector<std::int16_t> out;
  for (const KernelTier tier : available_kernel_tiers())
    EXPECT_THROW(apply_lut_packed(packed, enc, tier, out), CheckError)
        << kernel_tier_name(tier);
}

// --------------------------------------------- accumulator saturation

TEST(LutKernel, AdversarialAllMaxLutsSaturateInsteadOfWrapping) {
  // 300 codebooks of all-(+127) entries sum to 38100 > INT16_MAX: the old
  // int16 wraparound accumulator produced a negative garbage value here;
  // the int32-accumulate / clamp-once path must pin to the rail.
  const int ncb = 300;
  LutBank bank;
  bank.cfg.ncodebooks = ncb;
  bank.cfg.nlevels = 4;
  bank.cfg.validate();
  bank.nout = 10;
  bank.q.assign(static_cast<std::size_t>(ncb) * 16 * 10, 127);
  bank.scales.assign(10, 1.0f);
  Rng rng(2033);
  const std::size_t rows = 37;
  const auto codes = random_codes(rng, rows, ncb, 16);

  const auto ref = apply_lut_reference(bank, codes, rows);
  for (const std::int16_t v : ref) ASSERT_EQ(v, 32767);

  const LutBankPacked packed = pack_lut(bank);
  const EncodedBatch enc = make_encoded_batch(codes, rows, ncb);
  for (const KernelTier tier : available_kernel_tiers())
    EXPECT_EQ(apply_lut_packed(packed, enc, tier), ref)
        << kernel_tier_name(tier);

  // Negative rail: all -127 must clamp at -32768, not wrap positive.
  for (auto& v : bank.q) v = -127;
  const auto ref_neg = apply_lut_reference(bank, codes, rows);
  for (const std::int16_t v : ref_neg) ASSERT_EQ(v, -32768);
  const LutBankPacked packed_neg = pack_lut(bank);
  for (const KernelTier tier : available_kernel_tiers())
    EXPECT_EQ(apply_lut_packed(packed_neg, enc, tier), ref_neg)
        << kernel_tier_name(tier);
}

TEST(LutKernel, MixedSignNearRailStaysExact) {
  // Alternating ±127 banks hover around zero with large intermediate
  // partials; saturating per-add (e.g. adds_epi16) would diverge from
  // clamp-once semantics. All tiers must agree with the reference.
  const int ncb = 300;
  LutBank bank;
  bank.cfg.ncodebooks = ncb;
  bank.nout = 8;
  bank.q.resize(static_cast<std::size_t>(ncb) * 16 * 8);
  for (std::size_t i = 0; i < bank.q.size(); ++i) {
    const std::size_t c = i / (16u * 8u);
    bank.q[i] = (c % 2 == 0) ? 127 : -127;
  }
  bank.scales.assign(8, 1.0f);
  Rng rng(2035);
  const auto codes = random_codes(rng, 33, ncb, 16);
  const auto ref = apply_lut_reference(bank, codes, 33);
  for (const std::int16_t v : ref) ASSERT_EQ(v, 0);
  const LutBankPacked packed = pack_lut(bank);
  const EncodedBatch enc = make_encoded_batch(codes, 33, ncb);
  for (const KernelTier tier : available_kernel_tiers())
    EXPECT_EQ(apply_lut_packed(packed, enc, tier), ref)
        << kernel_tier_name(tier);
}

// ------------------------------------------------------ Amm integration

TEST(LutKernel, TrainedOperatorPackedMatchesReference) {
  Rng rng(2037);
  for (const int nout : {3, 17, 64}) {
    Config cfg;
    cfg.ncodebooks = 8;
    const std::size_t d = 8 * 9;
    const Matrix x = random_activations(rng, 200, d);
    const Matrix w = random_weights(rng, d, static_cast<std::size_t>(nout));
    const Amm amm = Amm::train(cfg, x, w);
    const auto q = quantize_activations(x, amm.activation_scale());
    EXPECT_EQ(amm.apply_int16(q), amm.apply_int16_reference(q))
        << "nout=" << nout;
  }
}

TEST(LutKernel, EncodeBatchCacheMatchesRowMajorEncode) {
  Rng rng(2039);
  Config cfg;
  cfg.ncodebooks = 4;
  const std::size_t d = 4 * 9;
  const Matrix x = random_activations(rng, 65, d);
  const Amm amm = Amm::train(cfg, x, random_weights(rng, d, 6));
  const auto q = quantize_activations(x, amm.activation_scale());
  const auto row_major = amm.encode(q);
  const EncodedBatch enc = amm.encode_batch(q);
  ASSERT_EQ(enc.rows, q.rows);
  ASSERT_EQ(enc.ncodebooks, 4);
  for (std::size_t n = 0; n < q.rows; ++n)
    for (int c = 0; c < 4; ++c)
      ASSERT_EQ(enc.codebook(c)[n], row_major[n * 4 + c]);
  // Applying through the cache equals the one-shot path.
  EXPECT_EQ(amm.apply_int16(enc), amm.apply_int16(q));
}

TEST(LutKernel, DispatchReportsAConsistentTier) {
  const KernelTier best = best_kernel_tier();
  EXPECT_TRUE(kernel_tier_available(best));
  EXPECT_TRUE(kernel_tier_available(KernelTier::kScalar));
  EXPECT_LE(static_cast<int>(select_kernel_tier()),
            static_cast<int>(best));
  EXPECT_STREQ(kernel_tier_name(KernelTier::kScalar), "scalar");
  EXPECT_STREQ(kernel_tier_name(KernelTier::kAvx2), "avx2");
  EXPECT_STREQ(kernel_tier_name(KernelTier::kAvx512), "avx512");
  const auto tiers = available_kernel_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), KernelTier::kScalar);
  EXPECT_EQ(tiers.back(), best);
}

TEST(LutKernel, EnvOverrideOnlyLowersTheTier) {
  // select_kernel_tier() caches its first answer, so the override is
  // checked through clamp_tier_by_env, for every tier a CPU could top
  // out at.
  const char* prev = std::getenv("SSMA_KERNEL");
  const std::optional<std::string> saved =
      prev ? std::optional<std::string>(prev) : std::nullopt;
  const auto clamp = [](const char* value, KernelTier best) {
    if (value)
      ::setenv("SSMA_KERNEL", value, 1);
    else
      ::unsetenv("SSMA_KERNEL");
    return maddness::detail::clamp_tier_by_env(best);
  };
  for (const KernelTier best :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    SCOPED_TRACE(kernel_tier_name(best));
    EXPECT_EQ(clamp(nullptr, best), best);
    EXPECT_EQ(clamp("scalar", best), KernelTier::kScalar);
    EXPECT_EQ(clamp("ssse3", best), KernelTier::kScalar);
    EXPECT_EQ(clamp("avx2", best),
              best == KernelTier::kScalar ? best : KernelTier::kAvx2);
    EXPECT_EQ(clamp("avx512", best), best);
    EXPECT_EQ(clamp("sse9", best), best);
  }
  if (saved)
    ::setenv("SSMA_KERNEL", saved->c_str(), 1);
  else
    ::unsetenv("SSMA_KERNEL");
}

// ------------------------------------------- serialization edge cases

TEST(LutSerialize, EmptyBankRoundTripsThroughCrcFrame) {
  Rng rng(2041);
  Config cfg;
  cfg.ncodebooks = 2;
  const std::size_t d = 2 * 9;
  const Matrix x = random_activations(rng, 120, d);
  const Amm amm = Amm::train(cfg, x, Matrix(d, 0));
  ASSERT_EQ(amm.lut().nout, 0);
  ASSERT_TRUE(amm.lut().q.empty());
  const Amm loaded = Amm::load_string(amm.save_string());
  EXPECT_EQ(loaded.lut().nout, 0);
  EXPECT_TRUE(loaded.lut().q.empty());
  EXPECT_EQ(loaded.packed_lut().q.size(), 0u);
  const auto q = quantize_activations(x, loaded.activation_scale());
  EXPECT_TRUE(loaded.apply_int16(q).empty());
}

TEST(LutSerialize, BroadcastScaleRoundTrips) {
  Rng rng(2043);
  Config cfg;
  cfg.ncodebooks = 2;
  cfg.per_column_lut_scale = false;
  const std::size_t d = 2 * 9;
  const Matrix x = random_activations(rng, 150, d);
  const Amm amm = Amm::train(cfg, x, random_weights(rng, d, 5));
  ASSERT_EQ(amm.lut().scales.size(), 1u);  // single broadcast scale
  const Amm loaded = Amm::load_string(amm.save_string());
  ASSERT_EQ(loaded.lut().scales.size(), 1u);
  EXPECT_EQ(loaded.lut().scales, amm.lut().scales);
  EXPECT_EQ(loaded.lut().q, amm.lut().q);
  EXPECT_FALSE(loaded.packed_lut().per_column_scale);
  // scale(o) broadcasts the single entry to every column.
  for (int o = 0; o < 5; ++o)
    EXPECT_EQ(loaded.lut().scale(o), loaded.lut().scales[0]);
  const auto q = quantize_activations(x, loaded.activation_scale());
  EXPECT_EQ(loaded.apply_int16(q), amm.apply_int16_reference(q));
}

TEST(LutSerialize, PackedUnpackedRoundTripUnderCrcFraming) {
  // The packed layout is derived state: serializing and reloading an
  // operator must (a) keep the SSMAAMM2 frame byte-identical, (b) yield
  // a packed bank equal to repacking the original, and (c) unpack back
  // to the exact proto-major entries that were framed.
  Rng rng(2045);
  Config cfg;
  cfg.ncodebooks = 3;
  const std::size_t d = 3 * 9;
  const Matrix x = random_activations(rng, 180, d);
  const Amm amm = Amm::train(cfg, x, random_weights(rng, d, 7));
  const std::string bytes = amm.save_string();
  const Amm loaded = Amm::load_string(bytes);
  EXPECT_EQ(loaded.packed_lut().q, amm.packed_lut().q);
  EXPECT_EQ(loaded.packed_lut().scales, amm.packed_lut().scales);
  const LutBank unpacked = unpack_lut(loaded.packed_lut(), loaded.cfg());
  EXPECT_EQ(unpacked.q, amm.lut().q);
  // Re-serializing the loaded operator reproduces the original frame
  // bit-for-bit (and therefore the same CRC).
  EXPECT_EQ(loaded.save_string(), bytes);
  // The framed payload itself still validates through the CRC reader.
  std::istringstream frame(bytes);
  char magic[8];
  frame.read(magic, 8);
  std::string payload;
  EXPECT_TRUE(try_read_framed_blob(frame, &payload));
  EXPECT_FALSE(payload.empty());
  // Flipping one payload byte must fail the CRC check, proving the frame
  // actually guards the LUT bytes the packed layout is derived from.
  std::string corrupt = bytes;
  corrupt[corrupt.size() - 1] ^= 0x01;
  std::istringstream bad(corrupt);
  bad.read(magic, 8);
  std::string dropped;
  EXPECT_FALSE(try_read_framed_blob(bad, &dropped));
}

namespace {

constexpr std::size_t kAmmBodyAt = 8 + 12;  // magic, then length + CRC

std::uint64_t u64_at(const std::string& s, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(s[at + i]))
         << (8 * i);
  return v;
}

/// Overwrites the u64 at body offset `at` of an SSMAAMM2 blob and
/// re-seals the frame: the CRC passes, so only that field is hostile.
std::string with_u64(const std::string& blob, std::size_t at,
                     std::uint64_t v) {
  std::string body = blob.substr(kAmmBodyAt);
  for (std::size_t i = 0; i < 8; ++i)
    body[at + i] = static_cast<char>(v >> (8 * i));
  std::ostringstream os;
  os.write(blob.data(), 8);
  write_framed_blob(os, body);
  return os.str();
}

}  // namespace

TEST(LutSerialize, HostileLengthFieldsFailAsCheckErrorsNotAllocations) {
  Rng rng(2047);
  Config cfg;
  cfg.ncodebooks = 2;
  const std::size_t d = 2 * 9;
  const Matrix x = random_activations(rng, 120, d);
  const Amm amm = Amm::train(cfg, x, random_weights(rng, d, 5));
  const std::string blob = amm.save_string();
  const std::string body = blob.substr(kAmmBodyAt);
  // Body offsets per Amm::save: 34 config bytes and the f32 activation
  // scale, 31 bytes per tree, the prototype matrix (u64 rows, u64 cols,
  // f32 entries), u32 nout, then a u64 count ahead of each of the
  // scales, the int8 entries and the float entries.
  const std::size_t rows_at = 38 + 31 * 2;
  const std::size_t scales_at = static_cast<std::size_t>(
      rows_at + 16 + 4 * u64_at(body, rows_at) * u64_at(body, rows_at + 8) +
      4);
  ASSERT_EQ(u64_at(body, scales_at), amm.lut().scales.size());
  const std::size_t q_at = scales_at + 8 + 4 * amm.lut().scales.size();
  ASSERT_EQ(u64_at(body, q_at), amm.lut().q.size());
  const std::size_t f_at = q_at + 8 + amm.lut().q.size();
  ASSERT_EQ(u64_at(body, f_at), amm.lut().f.size());
  EXPECT_EQ(Amm::load_string(blob).lut().q, amm.lut().q);

  // 2^40 would throw std::bad_alloc and 2^62 std::length_error if either
  // reached an allocation.
  for (const std::size_t at : {scales_at, q_at, f_at})
    for (const std::uint64_t count :
         {std::uint64_t{1} << 40, std::uint64_t{1} << 62})
      EXPECT_THROW(Amm::load_string(with_u64(blob, at, count)), CheckError)
          << "count " << count << " at body offset " << at;
  // Prototype dims each under the 2^24 cap whose product (2^46 floats)
  // still dwarfs the body.
  const std::string dims = with_u64(
      with_u64(blob, rows_at, std::uint64_t{1} << 23), rows_at + 8,
      std::uint64_t{1} << 23);
  EXPECT_THROW(Amm::load_string(dims), CheckError);
}
