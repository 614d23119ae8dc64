// Serving cells that no other harness measures. perfbench
// (BENCHMARK.json) times the TCP front door, the fused 3-stage chain
// and the durable path, and reports the cost of tracing on each; ctest
// checks overload shedding and failover. What is left:
//
// - multi_model: one fixed cell served single-model, then with two
//   identically shaped models interleaved request by request.
//   overhead_frac is the throughput cost of registry dispatch and
//   model-affine batching.
// - shadow: the same cell with a RolloutManager mirroring every batch
//   through an identically trained staged bank. --shadow-gate exits 1
//   when the median overhead is above 5% or a row drifts.
// - fused_plan: the relative error of a 3-stage ncb=32 chain
//   (pipeline_reference_apply, dequantized) against the float chain
//   relu(relu(x W0) W1) W2 it approximates, input quantization
//   included. No server and no timing: perfbench's mlp_fused serves
//   this chain.
// - cnn_serve: a trained CNN registered through register_network, every
//   substituted conv's patch matmul served (forward_served); images/s
//   next to top-1 agreement with the float network. The served outputs
//   must equal the local LUT forward pass bit for bit.
//
// multi_model and shadow run on the device-paced backend: the kernel
// computes each batch's outputs, then the worker blocks for 10 us of
// modeled device time per token, so the cells measure how the runtime
// keeps parallel engines busy rather than how many cores the host has.
// cnn_serve runs on the kernel backend.
//
// One JSON object goes to --out and to stdout, a human log to stderr.
//
//   build/bench/serve_throughput [--requests=N] [--out=BENCH_serve.json]
//                                [--shadow-gate]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "engine/execution_engine.hpp"
#include "engine/model_registry.hpp"
#include "engine/pipeline.hpp"
#include "maddness/amm.hpp"
#include "nn/dataset.hpp"
#include "nn/maddness_network.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"
#include "serve/load_generator.hpp"
#include "serve/rollout/rollout.hpp"
#include "serve/server.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

using namespace ssma;

namespace {

constexpr double kDeviceNsPerToken = 10'000.0;
constexpr std::size_t kRowsPerRequest = 16;
// Enough in-flight requests per model to fill model-affine batches in
// the interleaved run; with fewer the cell measures pool depth, not
// dispatch cost.
constexpr int kClients = 32;

/// Serves `requests` closed-loop requests round-robin over `refs`, then
/// shuts the server down.
serve::LoadReport run_load(serve::InferenceServer& server,
                           const maddness::QuantizedActivations& pool,
                           std::size_t requests,
                           std::vector<std::string> refs) {
  serve::LoadSpec spec;
  spec.total_requests = requests;
  spec.rows_per_request = kRowsPerRequest;
  spec.model_refs = std::move(refs);
  serve::LoadGenerator gen(pool, spec);
  const serve::LoadReport r = gen.run_closed_loop(server, kClients);
  server.shutdown();
  return r;
}

/// Relative Frobenius error of the 3-stage ncb=32 chain (288 -> 288 ->
/// 288 -> 128), dequantized from pipeline_reference_apply, against the
/// float chain on 512 fresh rows.
double fused_chain_relative_error() {
  Rng rng(777);
  maddness::Config cfg;
  cfg.ncodebooks = 32;
  const std::size_t d = static_cast<std::size_t>(cfg.total_dims());
  Matrix calib(384, d);
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.data()[i] = static_cast<float>(rng.next_double(0, 200));
  Matrix w0(d, d), w1(d, d), w2(d, 128);
  for (Matrix* w : {&w0, &w1, &w2})
    for (std::size_t i = 0; i < w->size(); ++i)
      w->data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
  Matrix mid0, mid1;
  const maddness::Amm s0 = engine::train_chained_stage(cfg, calib, w0, &mid0);
  const maddness::Amm s1 = engine::train_chained_stage(cfg, mid0, w1, &mid1);
  const maddness::Amm s2 =
      engine::train_chained_stage(cfg, mid1, w2, nullptr);

  Matrix x(512, d);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 200));
  const maddness::QuantizedActivations q =
      maddness::quantize_activations(x, s0.activation_scale());
  const engine::ModelRef chain =
      engine::ModelHandle::from_stages("mlp", 1, {&s0, &s1, &s2});
  const Matrix got =
      s2.dequantize_result(engine::pipeline_reference_apply(*chain, q), q.rows);

  Matrix h0, h1, want;
  gemm(x, w0, h0);
  for (std::size_t i = 0; i < h0.size(); ++i)
    h0.data()[i] = std::max(0.0f, h0.data()[i]);
  gemm(h0, w1, h1);
  for (std::size_t i = 0; i < h1.size(); ++i)
    h1.data()[i] = std::max(0.0f, h1.data()[i]);
  gemm(h1, w2, want);
  return frobenius_diff(got, want) / frobenius(want);
}

struct CnnServe {
  std::size_t images = 0;
  std::size_t segments = 0;
  double images_per_s = 0.0;
  double top1_agreement = 0.0;
};

/// Serves a small trained CNN conv by conv. False when the segment
/// layout or a served output differs from the local LUT forward pass.
bool cnn_serve(CnnServe* out) {
  Rng rng(1);
  nn::Dataset data = nn::make_synthetic_dataset(rng, 60, 8, 8);
  nn::Network net;
  net.emplace<nn::Conv2d>(3, 8, 3, 1, 1, rng);
  net.emplace<nn::BatchNorm2d>(8);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2d>(8, 8, 3, 1, 1, rng);
  net.emplace<nn::BatchNorm2d>(8);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  net.emplace<nn::Linear>(8 * 8 * 8, 10, rng);
  nn::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 20;
  Rng train_rng(55);
  nn::train(net, data, tc, train_rng);
  std::vector<std::size_t> calib_idx(30);
  for (std::size_t i = 0; i < calib_idx.size(); ++i) calib_idx[i] = i;
  const nn::MaddnessNetwork mnet(net,
                                 nn::take_batch(data, calib_idx).first);

  auto registry = std::make_shared<engine::ModelRegistry>();
  const std::vector<std::string> names =
      engine::register_network(*registry, "cnn", mnet);
  // Conv stacks don't shape-chain (the im2col hop is the client's), so
  // segments map 1:1 onto substituted convs.
  if (names.size() != mnet.num_substituted_convs()) {
    std::fprintf(stderr, "cnn cell: unexpected segment layout\n");
    return false;
  }
  serve::ServerOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 1024;
  opts.engine.backend = engine::Backend::kKernel;
  opts.batcher.max_batch_tokens = 256;
  opts.batcher.max_wait = std::chrono::microseconds(200);
  serve::InferenceServer server(registry, opts);
  const nn::MaddnessNetwork::ConvExecutor exec =
      [&](std::size_t conv, const maddness::QuantizedActivations& q) {
        return server.submit(names[conv] + "@latest", q.codes, q.rows)
            .get()
            .outputs;
      };

  constexpr std::size_t kImages = 20;
  const auto image = [&](std::size_t i) {
    return nn::take_batch(data, std::vector<std::size_t>{i}).first;
  };
  const auto argmax = [](const nn::Tensor& t) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < t.size(); ++i)
      if (t[i] > t[best]) best = i;
    return best;
  };
  std::vector<nn::Tensor> served(kImages);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kImages; ++i)
    served[i] = mnet.forward_served(image(i), exec);
  const double serve_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  server.shutdown();

  std::size_t agree = 0;
  for (std::size_t i = 0; i < kImages; ++i) {
    const nn::Tensor x = image(i);
    const nn::Tensor local = mnet.forward(x, /*use_amm=*/true);
    for (std::size_t k = 0; k < local.size(); ++k)
      if (served[i][k] != local[k]) {
        std::fprintf(stderr,
                     "cnn cell: served network diverged from the local "
                     "LUT forward pass\n");
        return false;
      }
    if (argmax(served[i]) == argmax(mnet.forward(x, /*use_amm=*/false)))
      ++agree;
  }
  out->images = kImages;
  out->segments = names.size();
  out->images_per_s = serve_s > 0.0 ? kImages / serve_s : 0.0;
  out->top1_agreement = static_cast<double>(agree) / kImages;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t total_requests = 1024;
  std::string out_path = "BENCH_serve.json";
  bool shadow_gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--requests=", 11) == 0)
      total_requests = static_cast<std::size_t>(
          std::strtoull(argv[i] + 11, nullptr, 10));
    else if (std::strncmp(argv[i], "--out=", 6) == 0)
      out_path = argv[i] + 6;
    else if (std::strcmp(argv[i], "--shadow-gate") == 0)
      shadow_gate = true;
    else {
      std::fprintf(stderr, "unknown arg: %s\n", argv[i]);
      return 1;
    }
  }

  // A light operator (8 codebooks, D = 72 -> 16 outputs) keeps host
  // compute well below the modeled device time.
  Rng rng(2026);
  maddness::Config cfg;
  cfg.ncodebooks = 8;
  const std::size_t d = static_cast<std::size_t>(cfg.total_dims());
  Matrix train(512, d);
  for (std::size_t i = 0; i < train.size(); ++i)
    train.data()[i] = static_cast<float>(rng.next_double(0, 220));
  Matrix w(d, 16);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
  const maddness::Amm amm = maddness::Amm::train(cfg, train, w);
  Matrix fresh(512, d);
  for (std::size_t i = 0; i < fresh.size(); ++i)
    fresh.data()[i] = static_cast<float>(rng.next_double(0, 220));
  const maddness::QuantizedActivations pool =
      maddness::quantize_activations(fresh, amm.activation_scale());

  serve::ServerOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = 1024;
  opts.engine.backend = engine::Backend::kDevicePaced;
  opts.engine.device_ns_per_token = kDeviceNsPerToken;
  opts.batcher.max_batch_tokens = 64;
  opts.batcher.max_wait = std::chrono::microseconds(200);

  // ---- multi_model: best of 5 per variant, alternating; each run
  // lasts milliseconds on a shared host.
  serve::LoadReport single, interleaved;
  for (int rep = 0; rep < 5; ++rep) {
    {
      serve::InferenceServer server(opts);
      server.register_model("m0", amm);
      const serve::LoadReport r =
          run_load(server, pool, total_requests, {"m0@latest"});
      if (r.tokens_per_sec > single.tokens_per_sec) single = r;
    }
    {
      serve::InferenceServer server(opts);
      server.register_model("m0", amm);
      server.register_model("m1", amm);
      const serve::LoadReport r = run_load(server, pool, total_requests,
                                           {"m0@latest", "m1@latest"});
      if (r.tokens_per_sec > interleaved.tokens_per_sec) interleaved = r;
    }
  }
  const double dispatch_overhead =
      single.tokens_per_sec > 0.0
          ? 1.0 - interleaved.tokens_per_sec / single.tokens_per_sec
          : 0.0;
  std::fprintf(stderr,
               "registry dispatch: single %.0f tok/s, 2-model "
               "interleaved %.0f tok/s, overhead %.2f%%\n",
               single.tokens_per_sec, interleaved.tokens_per_sec,
               dispatch_overhead * 100.0);

  // ---- shadow: this cell decides a 5% gate, so each run is 8x the
  // dispatch workload (at least 8192 requests), there are 7 alternating
  // reps per variant, and the committed number is the gap between the
  // per-variant medians, clamped at zero: the oversubscribed closed loop
  // gives single runs fat tails both ways. min_shadow_rows is
  // effectively infinite, so the cell measures steady-state mirroring,
  // never the promote path. The identical bank doubles as a probe: any
  // drift row means the shadow compare itself is broken.
  const std::size_t shadow_requests =
      std::max<std::size_t>(8 * total_requests, 8192);
  serve::LoadReport plain, mirrored;
  serve::rollout::RolloutReport rollout;
  std::vector<double> plain_tps, mirrored_tps;
  for (int rep = 0; rep < 7; ++rep) {
    {
      serve::InferenceServer server(opts);
      server.register_model("m0", amm);
      const serve::LoadReport r =
          run_load(server, pool, shadow_requests, {"m0@latest"});
      plain_tps.push_back(r.tokens_per_sec);
      if (r.tokens_per_sec > plain.tokens_per_sec) plain = r;
    }
    {
      serve::InferenceServer server(opts);
      server.register_model("m0", amm);
      const std::uint64_t staged =
          server.stage_model("m0", amm.save_string());
      serve::rollout::RolloutOptions ropts;
      ropts.shadow_every = 1;
      ropts.min_shadow_rows = ~std::size_t{0} >> 1;
      ropts.engine = opts.engine;
      serve::rollout::RolloutManager mgr(server, ropts);
      mgr.shadow_existing("m0", staged);
      mgr.start();
      const serve::LoadReport r =
          run_load(server, pool, shadow_requests, {"m0@latest"});
      mgr.stop();
      mirrored_tps.push_back(r.tokens_per_sec);
      if (r.tokens_per_sec > mirrored.tokens_per_sec) {
        mirrored = r;
        rollout = mgr.report("m0");
      }
    }
  }
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double plain_med = median(plain_tps);
  const double mirrored_med = median(mirrored_tps);
  const double shadow_overhead =
      plain_med > 0.0 ? std::max(0.0, 1.0 - mirrored_med / plain_med) : 0.0;
  std::fprintf(stderr,
               "shadow rollout: plain %.0f tok/s, mirrored %.0f tok/s "
               "(medians), overhead %.2f%%  (%zu rows shadowed, "
               "%zu drifted)\n",
               plain_med, mirrored_med, shadow_overhead * 100.0,
               rollout.shadow_rows, rollout.drift_rows);

  const double fused_rel_err = fused_chain_relative_error();
  std::fprintf(stderr, "fused plan: 3-stage ncb=32 rel-err vs float %.4f\n",
               fused_rel_err);

  CnnServe cnn;
  if (!cnn_serve(&cnn)) return 1;
  std::fprintf(stderr,
               "cnn serve: %zu images via %zu served segments  %.1f "
               "images/s  top-1 agreement vs float %.2f\n",
               cnn.images, cnn.segments, cnn.images_per_s,
               cnn.top1_agreement);

  std::string out =
      "{\"bench\":\"serve_throughput\"," + benchenv::machine_json();
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                ",\"mode\":\"paced\",\"device_ns_per_token\":%.1f,"
                "\"total_requests\":%zu,\"rows_per_request\":%zu,"
                "\"clients\":%d,\"multi_model\":{\"workers\":4,"
                "\"max_batch_tokens\":64",
                kDeviceNsPerToken, total_requests, kRowsPerRequest,
                kClients);
  out += buf;
  out += ",\"single\":" + single.json() +
         ",\"interleaved_2_models\":" + interleaved.json();
  std::snprintf(buf, sizeof(buf),
                ",\"overhead_frac\":%.4f},\"shadow\":{\"workers\":4,"
                "\"max_batch_tokens\":64,\"requests\":%zu,"
                "\"shadow_rows\":%zu,\"shadow_batches\":%zu,"
                "\"drift_rows\":%zu,\"overhead_frac\":%.4f",
                dispatch_overhead, shadow_requests, rollout.shadow_rows,
                rollout.shadow_batches, rollout.drift_rows,
                shadow_overhead);
  out += buf;
  out += ",\"baseline\":" + plain.json() +
         ",\"mirrored\":" + mirrored.json() + "}";
  std::snprintf(buf, sizeof(buf),
                ",\"fused_plan\":{\"stages\":3,\"ncodebooks\":32,"
                "\"inter_cols\":288,\"nout\":128,\"rows\":512,"
                "\"relative_error_vs_float\":%.5f},\"cnn_serve\":{"
                "\"images\":%zu,\"segments\":%zu,\"images_per_s\":%.2f,"
                "\"top1_agreement_vs_float\":%.3f,"
                "\"served_bit_exact_vs_local_amm\":true}}",
                fused_rel_err, cnn.images, cnn.segments, cnn.images_per_s,
                cnn.top1_agreement);
  out += buf;
  if (!benchenv::write_artifact(out_path, out)) return 1;

  // ---- shadow gate: mirroring a canary must not tax the serving path,
  // and an identically trained candidate must compare drift-free.
  if (shadow_gate) {
    bool ok = true;
    const auto fail = [&](const char* what) {
      std::fprintf(stderr, "shadow gate: FAIL — %s\n", what);
      ok = false;
    };
    if (rollout.shadow_rows == 0)
      fail("shadow executor never mirrored a batch");
    if (rollout.drift_rows != 0)
      fail("identical staged bank reported drift");
    if (shadow_overhead > 0.05) fail("mirroring overhead above the 5% budget");
    std::fprintf(stderr, "shadow gate: %s (overhead %.2f%%)\n",
                 ok ? "PASS" : "FAIL", shadow_overhead * 100.0);
    if (!ok) return 1;
  }
  return 0;
}
