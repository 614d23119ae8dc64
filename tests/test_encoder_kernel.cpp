// Correctness hardening of the vectorized batch encoder: every dispatch
// tier (scalar staging-tile walk, AVX2 staged traversal AND the
// windowed direct-gather fast path) must produce bit-identical leaf
// codes to the per-row HashTree::encode reference, and code 0 in every
// pad row, on randomized configurations — including every row residue
// of the 32-row SIMD block, duplicate split dims inside a codebook,
// thresholds pinned at the 0/255 rails, and the x == t equality edge at
// every level. The
// fused quantize+encode path must match quantize-then-encode to the
// bit, steady-state encoding must not allocate, and serve-side journal
// replay must stay bit-exact with the new encoder on the hot path.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "kernel_test_util.hpp"
#include "maddness/amm.hpp"
#include "maddness/encoder_kernel.hpp"
#include "maddness/framing.hpp"
#include "maddness/prototypes.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/recovery/recovery.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

#include "util/rng.hpp"

using namespace ssma;
using namespace ssma::maddness;

namespace {

/// Random tree over `subvec_dim` dims; with_rails sprinkles 0/255
/// thresholds and duplicate split dims into the mix.
HashTree random_tree(Rng& rng, int subvec_dim, bool with_rails) {
  HashTree t;
  const int forced_dim = rng.next_int(0, subvec_dim - 1);
  for (int l = 0; l < HashTree::kLevels; ++l) {
    // ~1 in 3 levels reuse one dimension -> duplicate split dims.
    const bool dup = with_rails && rng.next_bool(0.33);
    t.set_split_dim(l, dup ? forced_dim : rng.next_int(0, subvec_dim - 1));
    for (int node = 0; node < (1 << l); ++node) {
      int thr = rng.next_int(0, 255);
      if (with_rails && rng.next_bool(0.2))
        thr = rng.next_bool() ? 0 : 255;
      t.set_threshold(l, node, static_cast<std::uint8_t>(thr));
    }
  }
  return t;
}

QuantizedActivations random_quantized(Rng& rng, std::size_t rows,
                                      std::size_t cols) {
  QuantizedActivations q;
  q.rows = rows;
  q.cols = cols;
  q.scale = 1.0f;
  q.codes.resize(rows * cols);
  for (auto& v : q.codes)
    v = static_cast<std::uint8_t>(rng.next_int(0, 255));
  return q;
}

/// Reference codes via the per-row HashTree walk, codebook-major.
std::vector<std::uint8_t> reference_codes(
    const Config& cfg, const std::vector<HashTree>& trees,
    const QuantizedActivations& q) {
  return make_encoded_batch(encode_all(cfg, trees, q), q.rows,
                            cfg.ncodebooks)
      .codes;
}

/// Every tier on the bank as built (windowed on the AVX2 tier when the
/// bank allows it) and with windowing off (the staged path).
void expect_all_tiers_match(const Config& cfg,
                            const std::vector<HashTree>& trees,
                            const QuantizedActivations& q,
                            const char* what) {
  EncoderBank windowed = build_encoder_bank(cfg, trees);
  EncoderBank staged = windowed;
  staged.windowed = false;
  const auto ref = reference_codes(cfg, trees, q);
  EncodeScratch scratch;
  EncodedBatch out;
  for (const EncoderBank* bank : {&windowed, &staged})
    for (const KernelTier tier : available_encoder_tiers()) {
      encode_batch_packed(*bank, q, tier, scratch, out);
      ASSERT_EQ(out.rows, q.rows);
      ASSERT_EQ(out.ncodebooks, cfg.ncodebooks);
      ASSERT_TRUE(test::pad_codes_are_zero(out))
          << what << ": tier=" << kernel_tier_name(tier)
          << " windowed=" << bank->windowed << " rows=" << q.rows;
      ASSERT_EQ(out.codes, ref)
          << what << ": tier=" << kernel_tier_name(tier)
          << " windowed=" << bank->windowed << " ncb=" << cfg.ncodebooks
          << " rows=" << q.rows;
    }
}

}  // namespace

// ------------------------------------------------------------ bank layout

TEST(EncoderBank, FlattensTreesIntoSoaLayout) {
  Rng rng(4001);
  Config cfg;
  cfg.ncodebooks = 3;
  std::vector<HashTree> trees;
  for (int c = 0; c < cfg.ncodebooks; ++c)
    trees.push_back(random_tree(rng, cfg.subvec_dim, false));
  const EncoderBank bank = build_encoder_bank(cfg, trees);
  EXPECT_EQ(bank.ncodebooks, 3);
  EXPECT_EQ(bank.total_dims, 27);
  for (int c = 0; c < 3; ++c) {
    for (int l = 0; l < HashTree::kLevels; ++l)
      EXPECT_EQ(bank.split_dim(l, c),
                c * cfg.subvec_dim + trees[c].split_dims()[l]);
    const std::uint8_t* thr = bank.codebook_thresholds(c);
    for (int node = 0; node < HashTree::kNodes; ++node)
      EXPECT_EQ(thr[node], trees[c].threshold_flat(node));
    EXPECT_EQ(thr[15], 0) << "pad byte must be deterministic";
  }
  // 27 dims >= 16 and 9-dim subvectors always fit a 16-byte window.
  EXPECT_TRUE(bank.windowed);
  for (int c = 0; c < 3; ++c) {
    const std::uint8_t* pick = bank.pick_mask(c);
    for (int l = 0; l < HashTree::kLevels; ++l) {
      EXPECT_EQ(bank.window_off[c] + pick[l], bank.split_dim(l, c));
      EXPECT_LT(pick[l], EncoderBank::kThrStride);
    }
    EXPECT_LE(bank.window_off[c] + EncoderBank::kThrStride,
              bank.total_dims) << "window must never read past the row";
  }
}

TEST(EncoderBank, SingleCodebookBankIsNotWindowed) {
  // total_dims = 9 < 16: the window would read past the row, so the
  // bank must fall back to the staging-tile path.
  Rng rng(4003);
  Config cfg;
  cfg.ncodebooks = 1;
  std::vector<HashTree> trees{random_tree(rng, cfg.subvec_dim, false)};
  EXPECT_FALSE(build_encoder_bank(cfg, trees).windowed);
}

// --------------------------------------------------- tier bit-exactness

TEST(EncoderKernel, AllTiersBitExactOnRandomConfigMatrix) {
  Rng rng(4005);
  // Every row residue of the AVX2 tier's 32-row block and its 16-row
  // window gathers; ncodebooks = 1 builds a bank that cannot window.
  const int ncodebooks[] = {1, 2, 3, 5, 16, 32};
  for (const int ncb : ncodebooks) {
    Config cfg;
    cfg.ncodebooks = ncb;
    std::vector<HashTree> trees;
    for (int c = 0; c < ncb; ++c)
      trees.push_back(random_tree(rng, cfg.subvec_dim, true));
    for (const std::size_t rows : test::ragged_row_counts()) {
      QuantizedActivations q = random_quantized(
          rng, rows, static_cast<std::size_t>(cfg.total_dims()));
      // Plant exact-threshold values so the x == t edge fires inside
      // random data too.
      for (std::size_t n = 0; n < rows; n += 3) {
        const int c = rng.next_int(0, ncb - 1);
        const int l = rng.next_int(0, HashTree::kLevels - 1);
        q.codes[n * q.cols + static_cast<std::size_t>(c) * cfg.subvec_dim +
                trees[static_cast<std::size_t>(c)].split_dims()[l]] =
            trees[static_cast<std::size_t>(c)].threshold(
                l, rng.next_int(0, (1 << l) - 1));
      }
      expect_all_tiers_match(cfg, trees, q, "random matrix");
    }
  }
}

TEST(EncoderKernel, LutTopTierRequestClampsToTheEncoderTopTier) {
  // The encoder's top tier is AVX2: an avx512 request (what the LUT
  // kernel's SSMA_KERNEL value selects) runs the best encoder tier.
  EXPECT_FALSE(encoder_tier_available(KernelTier::kAvx512));
  EXPECT_EQ(available_encoder_tiers().back(), best_encoder_tier());
  Rng rng(4007);
  Config cfg;
  cfg.ncodebooks = 3;
  std::vector<HashTree> trees;
  for (int c = 0; c < 3; ++c)
    trees.push_back(random_tree(rng, cfg.subvec_dim, true));
  const QuantizedActivations q = random_quantized(
      rng, 40, static_cast<std::size_t>(cfg.total_dims()));
  EncodeScratch scratch;
  EncodedBatch out;
  encode_batch_packed(build_encoder_bank(cfg, trees), q,
                      KernelTier::kAvx512, scratch, out);
  EXPECT_EQ(out.codes, reference_codes(cfg, trees, q));
}

TEST(EncoderKernel, EqualityEdgeGoesRightAtEveryLevel) {
  // x == t must take the right branch (the hardware's >= rail) at every
  // level: with all thresholds equal to the data value the walk must
  // land in leaf 15, and one less must land in leaf 0.
  Config cfg;
  cfg.ncodebooks = 2;
  for (const int v : {1, 128, 255}) {
    std::vector<HashTree> trees(2);
    for (auto& t : trees) {
      for (int l = 0; l < HashTree::kLevels; ++l) {
        t.set_split_dim(l, l % cfg.subvec_dim);
        for (int node = 0; node < (1 << l); ++node)
          t.set_threshold(l, node, static_cast<std::uint8_t>(v));
      }
    }
    QuantizedActivations q;
    q.rows = 40;  // one whole SIMD block and a ragged one
    q.cols = static_cast<std::size_t>(cfg.total_dims());
    q.codes.assign(q.rows * q.cols, static_cast<std::uint8_t>(v));
    for (std::size_t n = 1; n < q.rows; n += 2)
      for (std::size_t j = 0; j < q.cols; ++j)
        q.codes[n * q.cols + j] = static_cast<std::uint8_t>(v - 1);
    const EncoderBank bank = build_encoder_bank(cfg, trees);
    EncodeScratch scratch;
    EncodedBatch out;
    for (const KernelTier tier : available_encoder_tiers()) {
      encode_batch_packed(bank, q, tier, scratch, out);
      for (std::size_t n = 0; n < q.rows; ++n)
        for (int c = 0; c < 2; ++c)
          ASSERT_EQ(out.codebook(c)[n], n % 2 == 0 ? 15 : 0)
              << "v=" << v << " tier=" << kernel_tier_name(tier)
              << " row=" << n;
    }
    expect_all_tiers_match(cfg, trees, q, "equality edge");
  }
}

TEST(EncoderKernel, ThresholdRailsZeroAndMax) {
  // t = 0: every uint8 x satisfies x >= 0, so all-zero thresholds must
  // send every row to leaf 15 — including x = 0 (equality at the rail).
  // t = 255: only x = 255 goes right.
  Rng rng(4009);
  Config cfg;
  cfg.ncodebooks = 2;
  for (const int rail : {0, 255}) {
    std::vector<HashTree> trees(2);
    for (auto& t : trees)
      for (int l = 0; l < HashTree::kLevels; ++l) {
        t.set_split_dim(l, rng.next_int(0, cfg.subvec_dim - 1));
        for (int node = 0; node < (1 << l); ++node)
          t.set_threshold(l, node, static_cast<std::uint8_t>(rail));
      }
    QuantizedActivations q = random_quantized(
        rng, 50, static_cast<std::size_t>(cfg.total_dims()));
    expect_all_tiers_match(cfg, trees, q, "rail thresholds");
  }
}

TEST(EncoderKernel, DuplicateSplitDimsWithinACodebook) {
  // All four levels comparing the same dimension is legal (the learner
  // can emit it) and the tournament must still walk correctly.
  Rng rng(4011);
  Config cfg;
  cfg.ncodebooks = 3;
  std::vector<HashTree> trees(3);
  for (auto& t : trees) {
    const int dim = rng.next_int(0, cfg.subvec_dim - 1);
    for (int l = 0; l < HashTree::kLevels; ++l) {
      t.set_split_dim(l, dim);
      for (int node = 0; node < (1 << l); ++node)
        t.set_threshold(l, node,
                        static_cast<std::uint8_t>(rng.next_int(0, 255)));
    }
  }
  const QuantizedActivations q = random_quantized(
      rng, 77, static_cast<std::size_t>(cfg.total_dims()));
  expect_all_tiers_match(cfg, trees, q, "duplicate dims");
}

// ----------------------------------------------- fused quantize + encode

TEST(EncoderKernel, FusedQuantizeEncodeMatchesTwoPassPath) {
  Rng rng(4013);
  Config cfg;
  cfg.ncodebooks = 4;
  const std::size_t d = static_cast<std::size_t>(cfg.total_dims());
  Matrix x(53, d);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 300));  // clips
  std::vector<HashTree> trees;
  for (int c = 0; c < cfg.ncodebooks; ++c)
    trees.push_back(random_tree(rng, cfg.subvec_dim, true));
  const EncoderBank bank = build_encoder_bank(cfg, trees);
  const float scale = 0.87f;
  const QuantizedActivations q = quantize_activations(x, scale);
  EncodeScratch scratch;
  EncodedBatch fused, two_pass;
  for (const KernelTier tier : available_encoder_tiers()) {
    encode_batch_packed(bank, x, scale, tier, scratch, fused);
    encode_batch_packed(bank, q, tier, scratch, two_pass);
    ASSERT_EQ(fused.codes, two_pass.codes) << kernel_tier_name(tier);
  }
}

TEST(EncoderKernel, AmmApplyUsesFusedEncodeBitExactly) {
  // Amm::apply runs the fused path; it must equal quantize + encode +
  // decode done explicitly.
  Rng rng(4015);
  Config cfg;
  cfg.ncodebooks = 4;
  const std::size_t d = static_cast<std::size_t>(cfg.total_dims());
  Matrix train(160, d);
  for (std::size_t i = 0; i < train.size(); ++i)
    train.data()[i] = static_cast<float>(rng.next_double(0, 220));
  Matrix w(d, 6);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
  const Amm amm = Amm::train(cfg, train, w);
  Matrix x(37, d);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 260));
  const auto q = quantize_activations(x, amm.activation_scale());
  const Matrix via_fused = amm.apply(x);
  const Matrix via_q = amm.dequantize_result(amm.apply_int16(q), q.rows);
  ASSERT_EQ(via_fused.rows(), via_q.rows());
  for (std::size_t i = 0; i < via_fused.size(); ++i)
    ASSERT_EQ(via_fused.data()[i], via_q.data()[i]) << "element " << i;
}

// -------------------------------------------------- Amm reference parity

TEST(EncoderKernel, AmmEncodePathsMatchReferenceWalk) {
  Rng rng(4017);
  Config cfg;
  cfg.ncodebooks = 5;
  const std::size_t d = static_cast<std::size_t>(cfg.total_dims());
  Matrix train(200, d);
  for (std::size_t i = 0; i < train.size(); ++i)
    train.data()[i] = static_cast<float>(rng.next_double(0, 220));
  const Amm amm = Amm::train(cfg, train, Matrix(d, 3));
  const auto q = quantize_activations(train, amm.activation_scale());
  // Row-major encode vs the scalar reference.
  EXPECT_EQ(amm.encode(q), encode_all(cfg, amm.trees(), q));
  // Codebook-major cache vs the same scalar reference, transposed.
  const EncodedBatch enc = amm.encode_batch(q);
  EXPECT_EQ(enc.codes, reference_codes(cfg, amm.trees(), q));
}

// ------------------------------------------------- steady-state scratch

TEST(EncoderKernel, SteadyStateEncodingDoesNotAllocate) {
  Rng rng(4019);
  Config cfg;
  cfg.ncodebooks = 8;
  const std::size_t d = static_cast<std::size_t>(cfg.total_dims());
  std::vector<HashTree> trees;
  for (int c = 0; c < cfg.ncodebooks; ++c)
    trees.push_back(random_tree(rng, cfg.subvec_dim, false));
  const EncoderBank bank = build_encoder_bank(cfg, trees);
  const KernelTier tier = select_encoder_tier();

  EncodeScratch scratch;
  EncodedBatch out;
  const QuantizedActivations big = random_quantized(rng, 96, d);
  encode_batch_packed(bank, big, tier, scratch, out);
  // Force the whole staging tile into existence too (the windowed fast
  // path sizes only its 32-row tail tile there): one scalar-tier pass
  // establishes its capacity.
  encode_batch_packed(bank, big, KernelTier::kScalar, scratch, out);

  const std::uint8_t* stage_ptr = scratch.stage.data();
  const std::size_t stage_cap = scratch.stage.capacity();
  const std::uint8_t* codes_ptr = out.codes.data();
  const std::size_t codes_cap = out.codes.capacity();

  // Same-size batches, then smaller, ragged ones (both SIMD and scalar
  // tiers): no buffer may reallocate once capacity is established.
  for (int iter = 0; iter < 8; ++iter) {
    const std::size_t rows = iter % 2 == 0 ? 96 : 41;
    const QuantizedActivations q = random_quantized(rng, rows, d);
    encode_batch_packed(bank, q, tier, scratch, out);
    encode_batch_packed(bank, q, KernelTier::kScalar, scratch, out);
    ASSERT_EQ(scratch.stage.data(), stage_ptr) << "iter " << iter;
    ASSERT_EQ(scratch.stage.capacity(), stage_cap) << "iter " << iter;
    ASSERT_EQ(out.codes.data(), codes_ptr) << "iter " << iter;
    ASSERT_EQ(out.codes.capacity(), codes_cap) << "iter " << iter;
  }
}

TEST(EncoderKernel, ApplyInt16IntoReusesOutputCapacity) {
  Rng rng(4021);
  Config cfg;
  cfg.ncodebooks = 4;
  const std::size_t d = static_cast<std::size_t>(cfg.total_dims());
  Matrix train(128, d);
  for (std::size_t i = 0; i < train.size(); ++i)
    train.data()[i] = static_cast<float>(rng.next_double(0, 220));
  Matrix w(d, 8);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
  const Amm amm = Amm::train(cfg, train, w);
  const auto q = quantize_activations(train, amm.activation_scale());

  EncodeScratch scratch;
  EncodedBatch enc;
  std::vector<std::int16_t> out;
  amm.encode_batch(q, scratch, enc);
  amm.apply_int16(enc, out);
  EXPECT_EQ(out, amm.apply_int16(q));  // into-form is bit-exact
  const std::int16_t* out_ptr = out.data();
  const std::size_t out_cap = out.capacity();
  for (int iter = 0; iter < 6; ++iter) {
    amm.encode_batch(q, scratch, enc);
    amm.apply_int16(enc, out);
    ASSERT_EQ(out.data(), out_ptr) << "iter " << iter;
    ASSERT_EQ(out.capacity(), out_cap) << "iter " << iter;
  }
}

// ------------------------------------------------ serve replay bit-exact

TEST(EncoderKernel, ServeJournalReplayStaysBitExactWithNewEncoder) {
  using namespace ssma::serve;
  using recovery::CheckpointManager;
  using recovery::FaultInjector;
  using recovery::FaultKind;
  using recovery::FaultPlan;
  using recovery::FaultSite;
  using recovery::RequestJournal;

  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("encoder-replay");
  const std::string journal_path = dir.file("requests.jnl");
  constexpr std::size_t kRequests = 24;

  std::size_t served = 0;
  {
    FaultInjector fault(seed);
    CheckpointManager ckpts(dir.str(), &fault);
    RequestJournal journal(journal_path);
    FaultPlan kill;
    kill.site = FaultSite::kExecute;
    kill.kind = FaultKind::kKillShard;
    kill.fire_at = 4;
    fault.arm(kill);

    ServerOptions opts;
    opts.num_workers = 1;
    opts.queue_capacity = 2 * kRequests;
    opts.batcher.max_batch_tokens = 2;
    opts.batcher.max_wait = std::chrono::microseconds(0);
    opts.recovery.fault = &fault;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.checkpoint_every = 6;
    opts.recovery.supervise = false;
    InferenceServer server(default_registry(f.amm), opts);
    std::vector<std::future<InferenceResult>> futs;
    for (std::size_t id = 0; id < kRequests; ++id)
      futs.push_back(server.submit("default", f.codes_for(id), 1));
    server.shutdown();
    for (auto& fut : futs) {
      try {
        const InferenceResult res = fut.get();
        served++;
      } catch (const std::runtime_error&) {
      }
    }
    ASSERT_LT(served, kRequests) << "the injected crash must lose work";
  }

  // Restart: replayed outputs — recomputed through the vectorized
  // encoder + packed kernel — must be bit-identical to the fault-free
  // reference for every journaled request.
  CheckpointManager ckpts(dir.str());
  const auto rs = serve::recovery::recover_state(ckpts, journal_path);
  EXPECT_EQ(rs.journal.accepted, kRequests);
  ASSERT_EQ(rs.journal.unacknowledged.size(), kRequests - served);
  RequestJournal journal(journal_path);
  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  auto server = InferenceServer::restore(rs, opts);
  auto futs = server->replay(rs.journal.unacknowledged);
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto& rec = rs.journal.unacknowledged[i];
    const InferenceResult res = futs[i].get();
    EXPECT_EQ(res.outputs, f.expected_for(rec.codes, rec.rows))
        << "replayed request " << rec.id << " diverged";
  }
  server->shutdown();

  // The crashed run's acknowledged CRCs audit against a recompute.
  for (const auto& [id, crc] : rs.journal.completed_crc) {
    const auto want = f.expected_for(f.codes_for(id), 1);
    EXPECT_EQ(crc, maddness::crc32(want.data(),
                                   want.size() * sizeof(std::int16_t)))
        << "ack CRC mismatch for request " << id;
  }
}
