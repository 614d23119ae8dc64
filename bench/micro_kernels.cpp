// Google-benchmark microbenchmarks of the software kernels: exact GEMM vs
// MADDNESS approximate matmul (encode + lookup-accumulate), the fused
// stage handoff, hash-tree encoding, the frame CRC-32, and the
// event-driven simulator's token rate — the software cost picture that
// motivates hardware acceleration in the first place (GPUs lack
// PQ/lookup primitives; Sec. I).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "engine/execution_plan.hpp"
#include "engine/pipeline.hpp"
#include "maddness/amm.hpp"
#include "maddness/framing.hpp"
#include "sim/macro.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

using namespace ssma;

namespace {

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

/// The first `rows` rows of `q`.
maddness::QuantizedActivations first_rows(
    const maddness::QuantizedActivations& q, std::size_t rows) {
  maddness::QuantizedActivations sub = q;
  sub.rows = rows;
  sub.codes.resize(rows * q.cols);
  return sub;
}

/// Row counts either side of a 32-row block boundary: 223 rows end in a
/// ragged 31-row block, 224 in a whole one.
constexpr int kRaggedRows[] = {223, 224};

void BM_ExactGemm(benchmark::State& state) {
  const std::size_t n = state.range(0);
  Rng rng(1);
  const Matrix x = random_activations(rng, n, 144);  // 16ch x 9
  const Matrix w = random_weights(rng, 144, 16);
  Matrix y;
  for (auto _ : state) {
    gemm(x, w, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 144 * 16 * 2);
}
BENCHMARK(BM_ExactGemm)->Arg(256)->Arg(1024);

void BM_MaddnessApply(benchmark::State& state) {
  // Full decode through the packed, tier-dispatched kernel (encode +
  // lookup-accumulate). Compare against BM_MaddnessApplyReference for
  // the cost of the pre-rewrite naive accumulation.
  const std::size_t n = state.range(0);
  Rng rng(2);
  maddness::Config cfg;
  cfg.ncodebooks = 16;
  const Matrix x = random_activations(rng, n, 144);
  const Matrix w = random_weights(rng, 144, 16);
  const auto amm = maddness::Amm::train(cfg, x, w);
  const auto q = maddness::quantize_activations(x, amm.activation_scale());
  for (auto _ : state) {
    auto y = amm.apply_int16(q);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 144 * 16 * 2);
}
BENCHMARK(BM_MaddnessApply)->Arg(256)->Arg(1024);

void BM_MaddnessApplyReference(benchmark::State& state) {
  const std::size_t n = state.range(0);
  Rng rng(2);
  maddness::Config cfg;
  cfg.ncodebooks = 16;
  const Matrix x = random_activations(rng, n, 144);
  const Matrix w = random_weights(rng, 144, 16);
  const auto amm = maddness::Amm::train(cfg, x, w);
  const auto q = maddness::quantize_activations(x, amm.activation_scale());
  for (auto _ : state) {
    auto y = amm.apply_int16_reference(q);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 144 * 16 * 2);
}
BENCHMARK(BM_MaddnessApplyReference)->Arg(256)->Arg(1024);

void BM_PackedLutKernel(benchmark::State& state) {
  // Accumulation only, on a prebuilt encode cache, at each available
  // dispatch tier.
  const auto tier = static_cast<maddness::KernelTier>(state.range(0));
  const std::size_t n = 1024;
  Rng rng(5);
  maddness::Config cfg;
  cfg.ncodebooks = 32;
  const Matrix x = random_activations(rng, n, 32 * 9);
  const Matrix w = random_weights(rng, 32 * 9, 128);
  const auto amm = maddness::Amm::train(cfg, x, w);
  const auto q = maddness::quantize_activations(x, amm.activation_scale());
  const maddness::EncodedBatch enc = amm.encode_batch(q);
  for (auto _ : state) {
    auto y = maddness::apply_lut_packed(amm.packed_lut(), enc, tier);
    benchmark::DoNotOptimize(y.data());
  }
  // One gathered LUT byte per (row, codebook, output).
  state.SetBytesProcessed(state.iterations() * n * 32 * 128);
  state.SetLabel(maddness::kernel_tier_name(tier));
}
BENCHMARK(BM_PackedLutKernel)->Apply([](benchmark::internal::Benchmark* b) {
  for (const maddness::KernelTier tier : maddness::available_kernel_tiers())
    b->Arg(static_cast<int>(tier));
});

/// One interior stage of a trained 32-codebook 288 -> 288 -> 288 chain,
/// its compiled plan, and 224 quantized input rows for it.
struct FusedStageFixture {
  std::vector<maddness::Amm> stages;
  engine::ExecutionPlan plan;
  maddness::QuantizedActivations input;

  FusedStageFixture() {
    Rng rng(8);
    maddness::Config cfg;
    cfg.ncodebooks = 32;
    const Matrix calib = random_activations(rng, 512, 32 * 9);
    Matrix mid;
    stages.push_back(engine::train_chained_stage(
        cfg, calib, random_weights(rng, 32 * 9, 288), &mid));
    stages.push_back(engine::train_chained_stage(
        cfg, mid, random_weights(rng, 288, 288), nullptr));
    plan = engine::ExecutionPlan::compile(stages);
    input = maddness::quantize_activations(random_activations(rng, 224, 32 * 9),
                                           stages[0].activation_scale());
  }
};

void BM_PackedLutFused(benchmark::State& state) {
  // The fused stage handoff (accumulate + requantize into the next
  // stage's uint8 rows, with the compiled plan's epilogue) against the
  // store kernel on the same bank and rows, at each available tier.
  static const FusedStageFixture f;
  const auto tier = static_cast<maddness::KernelTier>(state.range(0));
  const bool fused = state.range(1) != 0;
  const maddness::EncodedBatch enc = f.stages[0].encode_batch(
      first_rows(f.input, static_cast<std::size_t>(state.range(2))));
  const maddness::LutBankPacked& lut = f.stages[0].packed_lut();
  std::vector<std::uint8_t> dst(enc.rows * static_cast<std::size_t>(lut.nout));
  std::vector<std::int16_t> out;
  for (auto _ : state) {
    if (fused) {
      maddness::apply_lut_fused(lut, enc, f.plan.stage(0).epilogue, tier,
                                dst.data());
      benchmark::DoNotOptimize(dst.data());
    } else {
      maddness::apply_lut_packed(lut, enc, tier, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(enc.rows));
  state.SetLabel(std::string(maddness::kernel_tier_name(tier)) +
                 (fused ? " fused" : " store"));
}
BENCHMARK(BM_PackedLutFused)->Apply([](benchmark::internal::Benchmark* b) {
  for (const maddness::KernelTier tier : maddness::available_kernel_tiers())
    for (const int fused : {0, 1})
      for (const int rows : kRaggedRows)
        b->Args({static_cast<int>(tier), fused, rows});
});

void BM_TreeEncode(benchmark::State& state) {
  // Per-row reference walk — the scalar baseline BM_BatchEncoder is
  // measured against (and the bit-exactness oracle for all its tiers).
  Rng rng(3);
  maddness::HashTree tree;
  for (int l = 0; l < 4; ++l) tree.set_split_dim(l, rng.next_int(0, 8));
  for (int l = 0; l < 4; ++l)
    for (int nd = 0; nd < (1 << l); ++nd)
      tree.set_threshold(l, nd,
                         static_cast<std::uint8_t>(rng.next_int(1, 254)));
  std::vector<std::uint8_t> data(9 * 4096);
  for (auto& v : data) v = static_cast<std::uint8_t>(rng.next_int(0, 255));
  for (auto _ : state) {
    int acc = 0;
    for (std::size_t i = 0; i < 4096; ++i)
      acc += tree.encode(data.data() + i * 9);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TreeEncode);

void BM_BatchEncoder(benchmark::State& state) {
  // The vectorized batch encoder at each available dispatch tier, on the
  // first rows of its 1024 training rows. Scratch is reused across
  // iterations, as the serve worker shards do.
  const auto tier = static_cast<maddness::KernelTier>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  Rng rng(6);
  maddness::Config cfg;
  cfg.ncodebooks = 32;
  const Matrix x = random_activations(rng, 1024, 32 * 9);
  const Matrix w = random_weights(rng, 32 * 9, 16);
  const auto amm = maddness::Amm::train(cfg, x, w);
  const auto q = first_rows(
      maddness::quantize_activations(x, amm.activation_scale()), n);
  maddness::EncodeScratch scratch;
  maddness::EncodedBatch enc;
  for (auto _ : state) {
    maddness::encode_batch_packed(amm.encoder_bank(), q, tier, scratch,
                                  enc);
    benchmark::DoNotOptimize(enc.codes.data());
  }
  // One leaf code per (row, codebook).
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * 32);
  state.SetLabel(maddness::kernel_tier_name(tier));
}
BENCHMARK(BM_BatchEncoder)->Apply([](benchmark::internal::Benchmark* b) {
  for (const maddness::KernelTier tier : maddness::available_encoder_tiers())
    for (const int rows : kRaggedRows) b->Args({static_cast<int>(tier), rows});
});

void BM_Crc32(benchmark::State& state) {
  // Each CRC-32 path that can run here on one frame payload: rpc_small's
  // request and response, mlp_fused's response and request, and a
  // checkpoint-sized blob.
  const bool clmul = state.range(0) != 0;
  const auto crc32 = clmul ? &maddness::detail::crc32_clmul
                           : &maddness::detail::crc32_tables;
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  Rng rng(7);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_int(0, 255));
  for (auto _ : state) {
    const std::uint32_t crc = crc32(data.data(), n, 0);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * n);
  state.SetLabel(clmul ? "clmul" : "tables");
}
BENCHMARK(BM_Crc32)->Apply([](benchmark::internal::Benchmark* b) {
  for (const int clmul : {0, 1}) {
    if (clmul && !maddness::detail::crc32_clmul_available()) continue;
    for (const int n : {76, 112, 16430, 18474, 262144}) b->Args({clmul, n});
  }
});

void BM_EventSimTokens(benchmark::State& state) {
  const int ndec = static_cast<int>(state.range(0));
  const int ns = 4;
  Rng rng(4);
  std::vector<maddness::HashTree> trees(ns);
  for (auto& t : trees) {
    for (int l = 0; l < 4; ++l) t.set_split_dim(l, rng.next_int(0, 8));
    for (int l = 0; l < 4; ++l)
      for (int nd = 0; nd < (1 << l); ++nd)
        t.set_threshold(l, nd,
                        static_cast<std::uint8_t>(rng.next_int(1, 254)));
  }
  std::vector<std::vector<std::array<std::int8_t, 16>>> luts(
      ns, std::vector<std::array<std::int8_t, 16>>(ndec));
  for (auto& b : luts)
    for (auto& tb : b)
      for (auto& e : tb)
        e = static_cast<std::int8_t>(rng.next_int(-127, 127));
  std::vector<std::vector<sim::Subvec>> inputs(
      16, std::vector<sim::Subvec>(ns));
  for (auto& tok : inputs)
    for (auto& sv : tok)
      for (auto& v : sv) v = static_cast<std::uint8_t>(rng.next_int(0, 255));

  for (auto _ : state) {
    sim::MacroConfig mc;
    mc.ndec = ndec;
    mc.ns = ns;
    sim::Macro macro(mc);
    macro.program(trees, luts, std::vector<std::int16_t>(ndec, 0));
    auto res = macro.run(inputs);
    benchmark::DoNotOptimize(res.outputs.data());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_EventSimTokens)->Arg(4)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
