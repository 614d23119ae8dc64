// Serving throughput sweep: workers x max-batch-tokens over a fixed
// closed-loop workload, reporting aggregate tokens/s and latency
// percentiles per cell as machine-readable JSON (one object on stdout),
// plus the headline scaling number: aggregate throughput at 4 workers
// vs 1 worker on the same workload.
//
// The default mode is `paced`: each shard's outputs are computed by the
// hardware-exact kernel, then the worker blocks for the modeled device
// service time (--device-ns per token, default 10 us — a deliberately
// slow engine so device time dominates host compute). This isolates the
// quantity the runtime owns — how well N parallel engines are kept
// saturated — from the benchmark machine's core count. `kernel` mode
// measures raw host-side software throughput instead (scales with
// cores), `simulate` runs the full event-driven macro.
//
// The result is written as one JSON object to --out (default
// BENCH_serve.json) and echoed to stdout. The artifact records the
// machine (CPU model, logical cores) because worker scaling in kernel
// and simulate modes is meaningless without it — the CI container has a
// single CPU, so only paced mode shows >1x there.
//
// A second sweep measures registry-dispatch overhead: the same fixed
// (workers, batch) cell served single-model vs two-model interleaved
// (clients alternate between two identically-shaped registered models
// request by request). The multi_model.overhead_frac field is the
// fractional throughput cost of multi-model dispatch — the v2 API's
// acceptance gate is <= 2%.
//
// A third cell is the trace-overhead guard: when span tracing is
// compiled in (SSMA_TRACE=ON), the dispatch cell is re-run with the
// collector enabled vs disabled and the fractional throughput cost is
// recorded as telemetry.trace_overhead_frac — the observability
// acceptance gate is <= 3% enabled, and exactly 0 when compiled out.
// With --trace-out=PATH the bench also serves a 2-stage pipeline model
// under tracing and writes the Chrome trace-event JSON (load it at
// ui.perfetto.dev) so every artifact run leaves a sample span tree.
//
// A fourth cell (paced mode only) is the overload cell: the TCP front
// door driven through loopback NetClients at 2x the sustainable token
// rate by two tenants — "gold" (high priority, 0.7x capacity) and
// "free" (low priority, 1.3x capacity) — against a small admission
// queue. It records per-tenant offered/ok/shed counts and ok-latency
// percentiles. The SLO story it must show: gold keeps a bounded p99
// and is essentially never shed, free absorbs the overload as typed
// kQueueFull rejections, and every request gets exactly one ack.
// --overload-gate turns those properties into a hard exit code for CI.
//
// A fifth cell (kernel backend regardless of --mode) is the fused
// execution plan cell: a 3-stage chained dense stack registered as one
// pipeline model and served end-to-end through the engine's fused
// in-register stage handoff. Alongside throughput it records the
// pipeline's accuracy — relative Frobenius error of the served
// (dequantized) outputs against the exact float chain
// relu(relu(x W0) W1) W2 — because a fusion that changed numerics would
// be a bug: a served request is asserted bit-exact against
// pipeline_reference_apply before timing. The kernel-level fusion floor
// is gated by bench/amm_kernel_sweep.
//
// A sixth cell serves a whole trained CNN end-to-end: a MaddnessNetwork
// is registered via engine::register_network and every substituted
// conv's patch matmul is routed through the server (forward_served),
// reporting images/s next to the top-1 agreement with the exact float
// network — accuracy next to latency for a real multi-layer workload.
//
// A seventh cell is the shadow-rollout overhead guard: the dispatch
// cell re-run with a RolloutManager mirroring the serving traffic
// through an identically-trained staged bank on a spare engine. The
// hot path only pays the try-lock batch tap, so the committed budget
// is tight: shadow.overhead_frac must stay <= 5% (--shadow-gate turns
// that, plus zero drift on the identical bank, into an exit code).
//
// An eighth, gate-only check (--failover-gate) runs the distributed-HA
// pair once: a sync-acked leader with journal + checkpoints +
// ReplicationLog, a ReplicaApplier follower, a short load, then
// promotion — the gate passes iff promote() completes with a clean
// audit (no CRC mismatches, no replay failures) and the first
// post-promotion response is bit-exact against the fault-free
// reference. The full cadence x ack-mode sweep lives in
// bench/replication_failover.cpp; this is the cheap CI smoke.
//
//   build/bench/serve_throughput [--mode=paced|kernel|simulate]
//                                [--device-ns=N]
//                                [--requests=N] [--rows=N]
//                                [--out=BENCH_serve.json]
//                                [--trace-out=serve.trace.json]
//                                [--overload-gate] [--shadow-gate]
//                                [--failover-gate]
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.hpp"
#include "engine/execution_engine.hpp"
#include "engine/pipeline.hpp"
#include "maddness/amm.hpp"
#include "nn/dataset.hpp"
#include "nn/maddness_network.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"
#include "net/server.hpp"
#include "net/wire_protocol.hpp"
#include "serve/admission.hpp"
#include "serve/load_generator.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/replication/replica_applier.hpp"
#include "serve/replication/replication.hpp"
#include "serve/rollout/rollout.hpp"
#include "serve/server.hpp"
#include "telemetry/telemetry.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

using namespace ssma;

namespace {

struct Cell {
  int workers = 0;
  std::size_t max_batch = 0;
  serve::LoadReport load;
  serve::MetricsSnapshot metrics;
};

/// One tenant's side of the overload cell: everything it sent and
/// everything the wire acked back, plus ok-latency percentiles.
struct TenantRun {
  std::string tenant;
  double target_rps = 0.0;
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::array<std::uint64_t, serve::kNumRejectReasons> rejects{};
  std::size_t other_status = 0;  ///< internal errors (should be 0)
  std::size_t acked = 0;         ///< responses received, any status
  double actual_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;

  std::uint64_t total_rejects() const {
    std::uint64_t n = 0;
    for (const std::uint64_t r : rejects) n += r;
    return n;
  }
  std::string json() const {
    char buf[256];
    std::string s = "{\"tenant\":\"" + tenant + "\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"target_rps\":%.1f,\"actual_rps\":%.1f,\"sent\":%zu,"
                  "\"acked\":%zu,\"ok\":%zu,\"internal_errors\":%zu",
                  target_rps, actual_rps, sent, acked, ok, other_status);
    s += buf;
    s += ",\"rejects\":{";
    for (std::size_t r = 0; r < serve::kNumRejectReasons; ++r) {
      if (r) s += ",";
      s += "\"";
      s += serve::reject_reason_name(static_cast<serve::RejectReason>(r));
      s += "\":" + std::to_string(rejects[r]);
    }
    std::snprintf(buf, sizeof(buf),
                  "},\"ok_p50_ms\":%.3f,\"ok_p99_ms\":%.3f}", p50_ms,
                  p99_ms);
    s += buf;
    return s;
  }
};

/// Open-loop tenant driver over one pipelined NetClient connection:
/// a paced sender thread plus a receiver thread that classifies every
/// ack by wire status. Latency is measured send()-to-ack per
/// correlation id, so it includes queueing — the quantity the SLO
/// bounds.
void drive_tenant(std::uint16_t port, const std::string& tenant,
                  std::uint8_t wire_priority, double rps, std::size_t n,
                  std::size_t rows,
                  const std::vector<std::uint8_t>& codes, TenantRun* out) {
  using SteadyClock = std::chrono::steady_clock;
  out->tenant = tenant;
  out->target_rps = rps;

  net::NetClient cli;
  cli.connect("127.0.0.1", port);
  // Release/acquire pairs on each slot order the timestamp write
  // (before send) with the receiver's read (after the ack round-trip).
  std::vector<std::atomic<std::int64_t>> sent_ns(n);
  std::vector<double> ok_lat;
  ok_lat.reserve(n);

  std::thread rx([&] {
    for (std::size_t i = 0; i < n; ++i) {
      net::RpcResponse resp;
      if (!cli.recv_response(&resp)) return;  // lost acks -> acked < sent
      const std::int64_t now_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              SteadyClock::now().time_since_epoch())
              .count();
      out->acked++;
      if (resp.status == net::kStatusOk) {
        out->ok++;
        const std::int64_t t0 =
            sent_ns[resp.correlation_id].load(std::memory_order_acquire);
        ok_lat.push_back(static_cast<double>(now_ns - t0) / 1e6);
      } else if (resp.status >= 1 &&
                 resp.status <= serve::kNumRejectReasons) {
        out->rejects[resp.status - 1]++;
      } else {
        out->other_status++;
      }
    }
  });

  const auto start = SteadyClock::now();
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / rps));
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        start + interval * static_cast<std::int64_t>(i));
    net::RpcRequest req;
    req.correlation_id = i;
    req.tenant = tenant;
    req.model_ref = "m";
    req.priority = wire_priority;
    req.rows = rows;
    req.codes = codes;
    sent_ns[i].store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         SteadyClock::now().time_since_epoch())
                         .count(),
                     std::memory_order_release);
    cli.send(req);
    out->sent++;
  }
  rx.join();
  const double dur =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  out->actual_rps = dur > 0.0 ? static_cast<double>(out->sent) / dur : 0.0;
  std::sort(ok_lat.begin(), ok_lat.end());
  const auto pct = [&](double p) {
    if (ok_lat.empty()) return 0.0;
    const std::size_t idx = std::min(
        ok_lat.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(ok_lat.size())));
    return ok_lat[idx];
  };
  out->p50_ms = pct(0.50);
  out->p99_ms = pct(0.99);
  cli.close();
}

maddness::Amm train_operator(Rng& rng, int ncodebooks, int nout) {
  const std::size_t d = static_cast<std::size_t>(ncodebooks) * 9;
  Matrix train(512, d);
  for (std::size_t i = 0; i < train.size(); ++i)
    train.data()[i] = static_cast<float>(rng.next_double(0, 220));
  Matrix w(d, static_cast<std::size_t>(nout));
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
  maddness::Config cfg;
  cfg.ncodebooks = ncodebooks;
  return maddness::Amm::train(cfg, train, w);
}

}  // namespace

int main(int argc, char** argv) {
  engine::Backend mode = engine::Backend::kDevicePaced;
  std::size_t total_requests = 1024;
  std::size_t rows_per_request = 16;
  double device_ns = 10'000.0;
  std::string out_path = "BENCH_serve.json";
  std::string trace_out;
  bool overload_gate = false;
  bool shadow_gate = false;
  bool failover_gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mode=simulate") == 0)
      mode = engine::Backend::kSimulate;
    else if (std::strcmp(argv[i], "--mode=kernel") == 0)
      mode = engine::Backend::kKernel;
    else if (std::strcmp(argv[i], "--mode=paced") == 0)
      mode = engine::Backend::kDevicePaced;
    else if (std::strncmp(argv[i], "--device-ns=", 12) == 0)
      device_ns = std::strtod(argv[i] + 12, nullptr);
    else if (std::strncmp(argv[i], "--requests=", 11) == 0)
      total_requests = static_cast<std::size_t>(
          std::strtoull(argv[i] + 11, nullptr, 10));
    else if (std::strncmp(argv[i], "--rows=", 7) == 0)
      rows_per_request = static_cast<std::size_t>(
          std::strtoull(argv[i] + 7, nullptr, 10));
    else if (std::strncmp(argv[i], "--out=", 6) == 0)
      out_path = argv[i] + 6;
    else if (std::strncmp(argv[i], "--trace-out=", 12) == 0)
      trace_out = argv[i] + 12;
    else if (std::strcmp(argv[i], "--overload-gate") == 0)
      overload_gate = true;
    else if (std::strcmp(argv[i], "--shadow-gate") == 0)
      shadow_gate = true;
    else if (std::strcmp(argv[i], "--failover-gate") == 0)
      failover_gate = true;
    else {
      std::fprintf(stderr, "unknown arg: %s\n", argv[i]);
      return 1;
    }
  }
  const bool simulate = mode == engine::Backend::kSimulate;
  const bool paced = mode == engine::Backend::kDevicePaced;
  const char* mode_name =
      simulate ? "simulate" : (paced ? "paced" : "kernel");
  if (simulate) {
    // The event-driven macro is orders of magnitude slower per token;
    // shrink the default workload so the sweep stays interactive.
    if (total_requests == 1024) total_requests = 64;
    if (rows_per_request == 16) rows_per_request = 4;
  }

  // Kernel mode uses a serving-sized operator (32 channels, D=288 -> 64
  // outputs: ~2k table-lookup adds per token) so a 16-row request is a
  // meaningful work quantum. Paced mode uses a lighter operator so host
  // compute stays well below the modeled device time.
  Rng rng(2026);
  const int ncodebooks = simulate ? 4 : (paced ? 8 : 32);
  const int nout = simulate ? 8 : (paced ? 16 : 64);
  const maddness::Amm amm = train_operator(rng, ncodebooks, nout);

  const std::size_t d = static_cast<std::size_t>(ncodebooks) * 9;
  Matrix fresh(512, d);
  for (std::size_t i = 0; i < fresh.size(); ++i)
    fresh.data()[i] = static_cast<float>(rng.next_double(0, 220));
  const maddness::QuantizedActivations pool =
      maddness::quantize_activations(fresh, amm.activation_scale());

  serve::LoadSpec spec;
  spec.total_requests = total_requests;
  spec.rows_per_request = rows_per_request;

  const std::vector<int> worker_counts{1, 2, 4, 8};
  const std::vector<std::size_t> batch_sizes{16, 64, 256};
  constexpr int kClients = 16;

  std::vector<Cell> cells;
  for (const int workers : worker_counts)
    for (const std::size_t max_batch : batch_sizes) {
      serve::ServerOptions opts;
      opts.num_workers = workers;
      opts.queue_capacity = 1024;
      opts.engine.backend = mode;
      opts.batcher.max_batch_tokens = max_batch;
      opts.batcher.max_wait = std::chrono::microseconds(200);
      if (simulate) {
        opts.engine.accel.ns = 4;
        opts.engine.accel.ndec = 8;
      }
      if (paced) opts.engine.device_ns_per_token = device_ns;
      serve::InferenceServer server(opts);
      server.register_model("m", amm);
      serve::LoadSpec cell_spec = spec;
      cell_spec.model_refs = {"m@latest"};
      serve::LoadGenerator gen(pool, cell_spec);
      Cell cell;
      cell.workers = workers;
      cell.max_batch = max_batch;
      cell.load = gen.run_closed_loop(server, kClients);
      server.shutdown();
      cell.metrics = server.metrics();
      cells.push_back(cell);
      std::fprintf(stderr,
                   "workers=%d batch=%zu  %.0f tokens/s  p50 %.2f ms  "
                   "p99 %.2f ms  mean-batch %.1f\n",
                   workers, max_batch, cell.load.tokens_per_sec,
                   cell.load.p50_ms, cell.load.p99_ms,
                   cell.metrics.mean_batch_tokens);
    }

  // Headline: best tokens/s across batch sizes per worker count.
  auto best = [&](int workers) {
    double b = 0.0;
    for (const Cell& c : cells)
      if (c.workers == workers && c.load.tokens_per_sec > b)
        b = c.load.tokens_per_sec;
    return b;
  };
  const double speedup_4w = best(1) > 0.0 ? best(4) / best(1) : 0.0;
  std::fprintf(stderr, "\naggregate speedup: 4 workers vs 1 = %.2fx\n",
               speedup_4w);

  // ---- registry-dispatch overhead: single-model vs 2-model interleave
  // Same workload, same fixed cell; the interleaved run registers two
  // identically-shaped banks and alternates refs request by request, so
  // any extra cost is pure registry resolution + per-model batching.
  const auto dispatch_cell = [&](const std::vector<std::string>& refs,
                                 serve::InferenceServer& server) {
    serve::LoadSpec mspec = spec;
    mspec.model_refs = refs;
    serve::LoadGenerator gen(pool, mspec);
    // Twice the sweep's client pool: the interleaved run needs enough
    // in-flight requests PER MODEL to fill model-affine batches, or the
    // cell measures pool depth, not dispatch cost.
    serve::LoadReport r = gen.run_closed_loop(server, 2 * kClients);
    server.shutdown();
    return r;
  };
  serve::ServerOptions mopts;
  mopts.num_workers = 4;
  mopts.queue_capacity = 1024;
  mopts.engine.backend = mode;
  mopts.batcher.max_batch_tokens = 64;
  mopts.batcher.max_wait = std::chrono::microseconds(200);
  if (simulate) {
    mopts.engine.accel.ns = 4;
    mopts.engine.accel.ndec = 8;
  }
  if (paced) mopts.engine.device_ns_per_token = device_ns;

  // Best-of-5 per variant, alternating order: these are ~50 ms runs on
  // a shared host, so a single sample is scheduler noise, not dispatch
  // cost.
  serve::LoadReport single_rep, multi_rep;
  for (int rep = 0; rep < 5; ++rep) {
    {
      serve::InferenceServer server(mopts);
      server.register_model("m0", amm);
      const serve::LoadReport r = dispatch_cell({"m0@latest"}, server);
      if (r.tokens_per_sec > single_rep.tokens_per_sec) single_rep = r;
    }
    {
      serve::InferenceServer server(mopts);
      server.register_model("m0", amm);
      server.register_model("m1", amm);
      const serve::LoadReport r =
          dispatch_cell({"m0@latest", "m1@latest"}, server);
      if (r.tokens_per_sec > multi_rep.tokens_per_sec) multi_rep = r;
    }
  }
  const double overhead_frac =
      single_rep.tokens_per_sec > 0.0
          ? 1.0 - multi_rep.tokens_per_sec / single_rep.tokens_per_sec
          : 0.0;
  std::fprintf(stderr,
               "registry dispatch: single %.0f tok/s, 2-model "
               "interleaved %.0f tok/s, overhead %.2f%%\n",
               single_rep.tokens_per_sec, multi_rep.tokens_per_sec,
               overhead_frac * 100.0);

  // ---- trace-overhead guard: the dispatch cell re-run with the span
  // collector on vs off. Best-of-3 per variant for the same reason as
  // the dispatch sweep; the clamp at zero absorbs scheduler jitter when
  // the two variants are within noise of each other.
  double trace_overhead_frac = 0.0;
#if defined(SSMA_TRACE_ENABLED)
  {
    auto& trace = telemetry::TraceSession::instance();
    serve::LoadReport on_rep, off_rep;
    for (int rep = 0; rep < 3; ++rep) {
      for (int traced = 0; traced < 2; ++traced) {
        if (traced) trace.enable();
        serve::InferenceServer server(mopts);
        server.register_model("m0", amm);
        const serve::LoadReport r = dispatch_cell({"m0@latest"}, server);
        if (traced) {
          trace.disable();
          trace.clear();
          if (r.tokens_per_sec > on_rep.tokens_per_sec) on_rep = r;
        } else if (r.tokens_per_sec > off_rep.tokens_per_sec) {
          off_rep = r;
        }
      }
    }
    if (off_rep.tokens_per_sec > 0.0)
      trace_overhead_frac = std::max(
          0.0, 1.0 - on_rep.tokens_per_sec / off_rep.tokens_per_sec);
    std::fprintf(stderr,
                 "trace overhead: off %.0f tok/s, on %.0f tok/s, "
                 "overhead %.2f%%\n",
                 off_rep.tokens_per_sec, on_rep.tokens_per_sec,
                 trace_overhead_frac * 100.0);
  }

  // ---- sample trace: serve a 2-stage pipeline under tracing so the
  // exported span tree shows the full request lifecycle including the
  // inter-stage epilogue (requantization handoff between stages).
  if (!trace_out.empty()) {
    maddness::Config c1;
    c1.ncodebooks = 4;
    const std::size_t d1 = static_cast<std::size_t>(c1.total_dims());
    Matrix calib(256, d1);
    for (std::size_t i = 0; i < calib.size(); ++i)
      calib.data()[i] = static_cast<float>(rng.next_double(0, 220));
    // Stage 1's output width must equal stage 2's input width.
    Matrix w1(d1, d1);
    for (std::size_t i = 0; i < w1.size(); ++i)
      w1.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
    Matrix mid;
    const maddness::Amm s1 =
        engine::train_chained_stage(c1, calib, w1, &mid);
    maddness::Config c2;
    c2.ncodebooks = 4;
    Matrix w2(d1, 16);
    for (std::size_t i = 0; i < w2.size(); ++i)
      w2.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
    const maddness::Amm s2 =
        engine::train_chained_stage(c2, mid, w2, nullptr);

    Matrix traffic(256, d1);
    for (std::size_t i = 0; i < traffic.size(); ++i)
      traffic.data()[i] = static_cast<float>(rng.next_double(0, 220));
    const maddness::QuantizedActivations tpool =
        maddness::quantize_activations(traffic, s1.activation_scale());

    auto& trace = telemetry::TraceSession::instance();
    trace.clear();
    trace.set_ring_capacity(1 << 16);
    trace.enable();
    {
      serve::InferenceServer server(mopts);
      server.register_pipeline("pipe", {&s1, &s2});
      serve::LoadSpec tspec;
      tspec.total_requests = 256;
      tspec.rows_per_request = rows_per_request;
      tspec.model_refs = {"pipe@latest"};
      serve::LoadGenerator tgen(tpool, tspec);
      tgen.run_closed_loop(server, 8);
      server.shutdown();
    }
    trace.disable();
    std::ofstream os(trace_out);
    if (!os.is_open()) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    os << trace.render_chrome_json();
    trace.clear();
    std::fprintf(stderr, "wrote %s\n", trace_out.c_str());
  }
#else
  if (!trace_out.empty())
    std::fprintf(stderr,
                 "--trace-out ignored: built with -DSSMA_TRACE=OFF\n");
#endif

  // ---- shadow-rollout overhead: the dispatch cell re-run with a
  // RolloutManager mirroring every served batch through an
  // identically-trained staged bank on a spare engine. Only the
  // try-lock batch tap rides the hot path, so the committed budget is
  // tight (<= 5%). min_shadow_rows is effectively infinite: the cell
  // measures steady-state mirroring cost, never the promote path. The
  // identical bank doubles as a correctness probe — any drift row means
  // the shadow compare itself is broken.
  //
  // This cell decides a 5% gate, so it needs more statistical care than
  // the ranking sweeps: each run is ~30x the sweep workload (a
  // milliseconds-long run on a shared host is a scheduler lottery), 7
  // alternating reps per variant, and the committed number is the gap
  // between the per-variant MEDIANS, clamped at zero — medians because
  // the heavily oversubscribed closed loop leaves every individual run
  // with fat tails in both directions. Simulate mode keeps its shrunken
  // workload — the event-driven macro is too slow to scale up.
  const auto shadow_cell = [&](serve::InferenceServer& server) {
    serve::LoadSpec sspec = spec;
    if (!simulate)
      sspec.total_requests =
          std::max<std::size_t>(8 * total_requests, 8192);
    sspec.model_refs = {"m0@latest"};
    serve::LoadGenerator gen(pool, sspec);
    const serve::LoadReport r = gen.run_closed_loop(server, 2 * kClients);
    server.shutdown();
    return r;
  };
  serve::LoadReport shadow_base_rep, shadow_on_rep;
  serve::rollout::RolloutReport shadow_rollout_rep;
  std::vector<double> shadow_base_tps, shadow_on_tps;
  for (int rep = 0; rep < 7; ++rep) {
    {
      serve::InferenceServer server(mopts);
      server.register_model("m0", amm);
      const serve::LoadReport r = shadow_cell(server);
      shadow_base_tps.push_back(r.tokens_per_sec);
      if (r.tokens_per_sec > shadow_base_rep.tokens_per_sec)
        shadow_base_rep = r;
    }
    {
      serve::InferenceServer server(mopts);
      server.register_model("m0", amm);
      const std::uint64_t staged =
          server.stage_model("m0", amm.save_string());
      serve::rollout::RolloutOptions ropts;
      ropts.shadow_every = 1;
      ropts.min_shadow_rows = ~std::size_t{0} >> 1;
      ropts.engine = mopts.engine;
      serve::rollout::RolloutManager mgr(server, ropts);
      mgr.shadow_existing("m0", staged);
      mgr.start();
      const serve::LoadReport r = shadow_cell(server);
      mgr.stop();
      const serve::rollout::RolloutReport rr = mgr.report("m0");
      shadow_on_tps.push_back(r.tokens_per_sec);
      if (r.tokens_per_sec > shadow_on_rep.tokens_per_sec) {
        shadow_on_rep = r;
        shadow_rollout_rep = rr;
      }
    }
  }
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };
  const double shadow_base_med = median(shadow_base_tps);
  const double shadow_on_med = median(shadow_on_tps);
  const double shadow_overhead_frac =
      shadow_base_med > 0.0
          ? std::max(0.0, 1.0 - shadow_on_med / shadow_base_med)
          : 0.0;
  std::fprintf(stderr,
               "shadow rollout: plain %.0f tok/s, mirrored %.0f tok/s "
               "(medians), overhead %.2f%%  (%zu rows shadowed, "
               "%zu drifted)\n",
               shadow_base_med, shadow_on_med,
               shadow_overhead_frac * 100.0, shadow_rollout_rep.shadow_rows,
               shadow_rollout_rep.drift_rows);

  // ---- overload cell: the TCP front door at 2x sustainable load.
  // Paced mode only — it needs a known device capacity to overdrive.
  // Capacity with the fixed pacing below: 2 workers x 1e9/100us =
  // 20k tokens/s = 1250 req/s at 16 rows. Gold offers 0.7x that as the
  // high-priority tenant, free offers 1.3x as low priority, against a
  // 64-deep queue whose watermarks shed low traffic at depth 32 — so
  // the queue (and gold's queueing delay) stays bounded no matter how
  // hard free pushes.
  TenantRun gold, free_tier;
  bool overload_ran = false;
  if (paced) {
    constexpr double kOverloadDeviceNs = 100'000.0;
    constexpr int kOverloadWorkers = 2;
    constexpr std::size_t kOverloadRows = 16;
    constexpr double kDurationS = 1.2;
    const double capacity_rps = kOverloadWorkers * 1e9 /
                                (kOverloadDeviceNs *
                                 static_cast<double>(kOverloadRows));
    const double gold_rps = 0.7 * capacity_rps;
    const double free_rps = 1.3 * capacity_rps;

    serve::ServerOptions oopts;
    oopts.num_workers = kOverloadWorkers;
    oopts.queue_capacity = 64;
    oopts.engine.backend = engine::Backend::kDevicePaced;
    oopts.engine.device_ns_per_token = kOverloadDeviceNs;
    oopts.batcher.max_batch_tokens = 64;
    oopts.batcher.max_wait = std::chrono::microseconds(200);
    serve::InferenceServer server(oopts);
    server.register_model("m", amm);

    net::NetServerOptions nopts;
    nopts.admission.tenants["gold"] =
        serve::TenantConfig{0.0, 0.0, serve::Priority::kHigh};
    nopts.admission.tenants["free"] =
        serve::TenantConfig{0.0, 0.0, serve::Priority::kLow};
    net::NetServer net(server, nopts);

    // All requests reuse one payload; the cell measures admission and
    // scheduling, not encode bandwidth.
    std::vector<std::uint8_t> codes(
        pool.row(0), pool.row(0) + kOverloadRows * pool.cols);
    std::thread gold_thread(
        drive_tenant, net.port(), "gold",
        static_cast<std::uint8_t>(serve::Priority::kHigh), gold_rps,
        static_cast<std::size_t>(gold_rps * kDurationS), kOverloadRows,
        codes, &gold);
    drive_tenant(net.port(), "free",
                 static_cast<std::uint8_t>(serve::Priority::kLow),
                 free_rps, static_cast<std::size_t>(free_rps * kDurationS),
                 kOverloadRows, codes, &free_tier);
    gold_thread.join();
    net.stop();
    server.shutdown();
    overload_ran = true;

    std::fprintf(stderr,
                 "overload: gold %zu sent, %zu ok, %llu shed, p99 %.1f ms"
                 " | free %zu sent, %zu ok, %llu shed\n",
                 gold.sent, gold.ok,
                 static_cast<unsigned long long>(gold.total_rejects()),
                 gold.p99_ms, free_tier.sent, free_tier.ok,
                 static_cast<unsigned long long>(
                     free_tier.total_rejects()));
  }

  // ---- fused execution plan cell: a 3-stage chained stack (ncb=32,
  // 288-wide interior boundaries, 128 final outputs) registered as one
  // pipeline model and served through the kernel backend. Best-of-3,
  // like the dispatch sweep. Before timing, one request is checked
  // bit-exact against pipeline_reference_apply — the fusion claim is
  // "same bits, fewer memory trips", so a numeric drift here must fail
  // loudly, not show up as a benchmark delta.
  double fused_rel_err = 0.0;
  serve::LoadReport fused_rep;
  constexpr std::size_t kFusedRows = 64;
  constexpr std::size_t kFusedRequests = 256;
  {
    Rng frng(777);
    maddness::Config fcfg;
    fcfg.ncodebooks = 32;
    const std::size_t fd = static_cast<std::size_t>(fcfg.total_dims());
    Matrix fcalib(384, fd);
    for (std::size_t i = 0; i < fcalib.size(); ++i)
      fcalib.data()[i] = static_cast<float>(frng.next_double(0, 200));
    Matrix fw0(fd, fd), fw1(fd, fd), fw2(fd, 128);
    for (Matrix* w : {&fw0, &fw1, &fw2})
      for (std::size_t i = 0; i < w->size(); ++i)
        w->data()[i] = static_cast<float>(frng.next_gaussian(0, 0.08));
    Matrix mid0, mid1;
    const maddness::Amm fs0 =
        engine::train_chained_stage(fcfg, fcalib, fw0, &mid0);
    const maddness::Amm fs1 =
        engine::train_chained_stage(fcfg, mid0, fw1, &mid1);
    const maddness::Amm fs2 =
        engine::train_chained_stage(fcfg, mid1, fw2, nullptr);

    Matrix ffresh(512, fd);
    for (std::size_t i = 0; i < ffresh.size(); ++i)
      ffresh.data()[i] = static_cast<float>(frng.next_double(0, 200));
    const maddness::QuantizedActivations fpool =
        maddness::quantize_activations(ffresh, fs0.activation_scale());

    // Accuracy: served outputs (the final stage's dequantized
    // accumulators) vs the exact float chain on the same inputs. The
    // number includes the input-quantization step — the honest
    // end-to-end approximation error a client of this model sees.
    const engine::ModelRef fref =
        engine::ModelHandle::from_stages("mlp", 1, {&fs0, &fs1, &fs2});
    const std::vector<std::int16_t> facc =
        engine::pipeline_reference_apply(*fref, fpool);
    const Matrix fdeq = fs2.dequantize_result(facc, fpool.rows);
    Matrix h0, h1, fexact;
    gemm(ffresh, fw0, h0);
    for (std::size_t i = 0; i < h0.size(); ++i)
      h0.data()[i] = std::max(0.0f, h0.data()[i]);
    gemm(h0, fw1, h1);
    for (std::size_t i = 0; i < h1.size(); ++i)
      h1.data()[i] = std::max(0.0f, h1.data()[i]);
    gemm(h1, fw2, fexact);
    fused_rel_err = frobenius_diff(fdeq, fexact) / frobenius(fexact);

    serve::ServerOptions fopts;
    fopts.num_workers = 2;
    fopts.queue_capacity = 1024;
    fopts.engine.backend = engine::Backend::kKernel;
    fopts.batcher.max_batch_tokens = 256;
    fopts.batcher.max_wait = std::chrono::microseconds(200);

    // One-request bit-exactness probe.
    const std::size_t probe_rows = kFusedRows;
    maddness::QuantizedActivations probe;
    probe.rows = probe_rows;
    probe.cols = fpool.cols;
    probe.scale = fpool.scale;
    probe.codes.assign(fpool.row(0), fpool.row(0) + probe_rows * fpool.cols);
    {
      serve::InferenceServer server(fopts);
      server.register_pipeline("mlp", {&fs0, &fs1, &fs2});
      auto fut = server.submit("mlp@latest", probe.codes, probe_rows);
      const serve::InferenceResult got = fut.get();
      server.shutdown();
      if (got.outputs != engine::pipeline_reference_apply(*fref, probe)) {
        std::fprintf(stderr,
                     "fused cell: served plan diverged from "
                     "pipeline_reference_apply\n");
        return 1;
      }
    }

    const auto fused_cell = [&] {
      serve::InferenceServer server(fopts);
      server.register_pipeline("mlp", {&fs0, &fs1, &fs2});
      serve::LoadSpec fspec;
      fspec.total_requests = kFusedRequests;
      fspec.rows_per_request = kFusedRows;
      fspec.model_refs = {"mlp@latest"};
      serve::LoadGenerator gen(fpool, fspec);
      const serve::LoadReport r = gen.run_closed_loop(server, kClients);
      server.shutdown();
      return r;
    };
    for (int rep = 0; rep < 3; ++rep) {
      const serve::LoadReport f = fused_cell();
      if (f.tokens_per_sec > fused_rep.tokens_per_sec) fused_rep = f;
    }
    std::fprintf(stderr,
                 "fused plan: 3-stage ncb=32  %.0f tok/s  rel-err vs "
                 "float %.4f\n",
                 fused_rep.tokens_per_sec, fused_rel_err);
  }

  // ---- CNN end-to-end cell: a trained MaddnessNetwork registered via
  // engine::register_network, every substituted conv's patch matmul
  // served (forward_served), images/s next to accuracy. The served path
  // must be bit-exact vs the local LUT path; top-1 agreement vs the
  // exact float network is the accuracy that sits beside the latency.
  double cnn_images_per_s = 0.0;
  double cnn_top1_agreement = 0.0;
  std::size_t cnn_images = 0;
  std::size_t cnn_segments = 0;
  {
    Rng crng(1);
    nn::Dataset data = nn::make_synthetic_dataset(crng, 60, 8, 8);
    nn::Network net;
    net.emplace<nn::Conv2d>(3, 8, 3, 1, 1, crng);
    net.emplace<nn::BatchNorm2d>(8);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Conv2d>(8, 8, 3, 1, 1, crng);
    net.emplace<nn::BatchNorm2d>(8);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Flatten>();
    net.emplace<nn::Linear>(8 * 8 * 8, 10, crng);
    nn::TrainConfig tc;
    tc.epochs = 4;
    tc.batch_size = 20;
    Rng trng(55);
    nn::train(net, data, tc, trng);
    std::vector<std::size_t> cidx(30);
    for (std::size_t i = 0; i < cidx.size(); ++i) cidx[i] = i;
    const nn::Tensor ccalib = nn::take_batch(data, cidx).first;
    const nn::MaddnessNetwork mnet(net, ccalib);

    auto registry = std::make_shared<engine::ModelRegistry>();
    const std::vector<std::string> names =
        engine::register_network(*registry, "cnn", mnet);
    cnn_segments = names.size();
    // Conv stacks don't shape-chain (the im2col hop is the client's),
    // so segments map 1:1 onto substituted convs here.
    if (names.size() != mnet.num_substituted_convs()) {
      std::fprintf(stderr, "cnn cell: unexpected segment layout\n");
      return 1;
    }
    serve::ServerOptions copts;
    copts.num_workers = 2;
    copts.queue_capacity = 1024;
    copts.engine.backend = engine::Backend::kKernel;
    copts.batcher.max_batch_tokens = 256;
    copts.batcher.max_wait = std::chrono::microseconds(200);
    serve::InferenceServer server(registry, copts);
    const nn::MaddnessNetwork::ConvExecutor exec =
        [&](std::size_t conv,
            const maddness::QuantizedActivations& q) {
          auto fut = server.submit(names[conv] + "@latest", q.codes,
                                   q.rows);
          return fut.get().outputs;
        };

    const std::size_t kImages = 20;
    const auto argmax = [](const nn::Tensor& t) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < t.size(); ++i)
        if (t[i] > t[best]) best = i;
      return best;
    };
    std::size_t agree = 0;
    bool bit_exact = true;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<nn::Tensor> served(kImages);
    for (std::size_t i = 0; i < kImages; ++i) {
      std::vector<std::size_t> one{i};
      const nn::Tensor x = nn::take_batch(data, one).first;
      served[i] = mnet.forward_served(x, exec);
    }
    const double serve_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    for (std::size_t i = 0; i < kImages; ++i) {
      std::vector<std::size_t> one{i};
      const nn::Tensor x = nn::take_batch(data, one).first;
      const nn::Tensor local = mnet.forward(x, /*use_amm=*/true);
      for (std::size_t k = 0; k < local.size(); ++k)
        if (served[i][k] != local[k]) bit_exact = false;
      const nn::Tensor exact = mnet.forward(x, /*use_amm=*/false);
      if (argmax(served[i]) == argmax(exact)) ++agree;
    }
    server.shutdown();
    if (!bit_exact) {
      std::fprintf(stderr,
                   "cnn cell: served network diverged from the local "
                   "LUT forward pass\n");
      return 1;
    }
    cnn_images = kImages;
    cnn_images_per_s =
        serve_s > 0.0 ? static_cast<double>(kImages) / serve_s : 0.0;
    cnn_top1_agreement =
        static_cast<double>(agree) / static_cast<double>(kImages);
    std::fprintf(stderr,
                 "cnn serve: %zu images via %zu served segments  %.1f "
                 "images/s  top-1 agreement vs float %.2f\n",
                 cnn_images, cnn_segments, cnn_images_per_s,
                 cnn_top1_agreement);
  }

  // Machine-readable result: one JSON object, written to the BENCH
  // artifact and echoed on stdout.
  std::string out = "{\"bench\":\"serve_throughput\",";
  out += benchenv::machine_json();
  out += ",\"mode\":\"";
  out += mode_name;
  out += "\"";
  if (paced) {
    char dev[48];
    std::snprintf(dev, sizeof(dev), ",\"device_ns_per_token\":%.1f",
                  device_ns);
    out += dev;
  }
  out += ",\"total_requests\":" + std::to_string(total_requests) +
         ",\"rows_per_request\":" + std::to_string(rows_per_request) +
         ",\"clients\":" + std::to_string(kClients) + ",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out += ",";
    out += "{\"workers\":" + std::to_string(cells[i].workers) +
           ",\"max_batch_tokens\":" + std::to_string(cells[i].max_batch) +
           ",\"load\":" + cells[i].load.json() +
           ",\"server\":" + cells[i].metrics.json() + "}";
  }
  char tail[64];
  std::snprintf(tail, sizeof(tail), "],\"speedup_4w_vs_1w\":%.3f",
                speedup_4w);
  out += tail;
  out += ",\"multi_model\":{\"workers\":4,\"max_batch_tokens\":64";
  out += ",\"single\":" + single_rep.json();
  out += ",\"interleaved_2_models\":" + multi_rep.json();
  char ov[48];
  std::snprintf(ov, sizeof(ov), ",\"overhead_frac\":%.4f}",
                overhead_frac);
  out += ov;
  char tf[96];
  std::snprintf(tf, sizeof(tf),
                ",\"telemetry\":{\"trace_compiled_in\":%s,"
                "\"trace_overhead_frac\":%.4f}",
#if defined(SSMA_TRACE_ENABLED)
                "true",
#else
                "false",
#endif
                trace_overhead_frac);
  out += tf;
  char sh[192];
  std::snprintf(sh, sizeof(sh),
                ",\"shadow\":{\"workers\":4,\"max_batch_tokens\":64,"
                "\"shadow_rows\":%zu,\"shadow_batches\":%zu,"
                "\"drift_rows\":%zu,\"overhead_frac\":%.4f",
                shadow_rollout_rep.shadow_rows,
                shadow_rollout_rep.shadow_batches,
                shadow_rollout_rep.drift_rows, shadow_overhead_frac);
  out += sh;
  out += ",\"baseline\":" + shadow_base_rep.json();
  out += ",\"mirrored\":" + shadow_on_rep.json() + "}";
  if (overload_ran) {
    out += ",\"overload\":{\"queue_capacity\":64,\"workers\":2"
           ",\"device_ns_per_token\":100000.0,\"rows_per_request\":16"
           ",\"tenants\":[" +
           gold.json() + "," + free_tier.json() + "]}";
  } else {
    out += ",\"overload\":null";
  }
  char fcell[160];
  std::snprintf(fcell, sizeof(fcell),
                ",\"fused_plan\":{\"stages\":3,\"ncodebooks\":32,"
                "\"inter_cols\":288,\"nout\":128,\"workers\":2,"
                "\"requests\":%zu,\"rows_per_request\":%zu",
                kFusedRequests, kFusedRows);
  out += fcell;
  out += ",\"fused\":" + fused_rep.json();
  std::snprintf(fcell, sizeof(fcell),
                ",\"relative_error_vs_float\":%.5f,"
                "\"served_bit_exact_vs_reference\":true}",
                fused_rel_err);
  out += fcell;
  std::snprintf(fcell, sizeof(fcell),
                ",\"cnn_serve\":{\"images\":%zu,\"segments\":%zu,"
                "\"images_per_s\":%.2f,\"top1_agreement_vs_float\":%.3f,"
                "\"served_bit_exact_vs_local_amm\":true}",
                cnn_images, cnn_segments, cnn_images_per_s,
                cnn_top1_agreement);
  out += fcell;
  out += "}";
  if (!benchenv::write_artifact(out_path, out)) return 1;

  // ---- overload gate: turn the cell's SLO story into an exit code.
  if (overload_gate) {
    if (!overload_ran) {
      std::fprintf(stderr,
                   "overload gate: FAIL (cell only runs in paced mode)\n");
      return 1;
    }
    bool ok = true;
    const auto fail = [&](const char* what) {
      std::fprintf(stderr, "overload gate: FAIL — %s\n", what);
      ok = false;
    };
    // No lost acks, no untyped failures, on either tenant.
    for (const TenantRun* t : {&gold, &free_tier}) {
      if (t->acked != t->sent) fail("a tenant lost acks");
      if (t->ok + t->total_rejects() != t->acked)
        fail("acks do not partition into ok + typed rejections");
      if (t->other_status != 0) fail("internal errors on the wire");
    }
    // Gold's SLO holds under 2x overload...
    if (gold.sent == 0 ||
        static_cast<double>(gold.ok) <
            0.95 * static_cast<double>(gold.sent))
      fail("gold ok-rate below 95%");
    if (gold.p99_ms > 100.0) fail("gold ok p99 above 100 ms");
    // ...because free absorbed the overload as typed sheds.
    if (free_tier.rejects[static_cast<std::size_t>(
            serve::RejectReason::kQueueFull)] == 0)
      fail("free tier was never shed at the watermark");
    std::fprintf(stderr, "overload gate: %s\n", ok ? "PASS" : "FAIL");
    if (!ok) return 1;
  }

  // ---- shadow gate: mirroring a canary must not tax the serving path,
  // and an identically-trained candidate must compare drift-free.
  if (shadow_gate) {
    bool ok = true;
    const auto fail = [&](const char* what) {
      std::fprintf(stderr, "shadow gate: FAIL — %s\n", what);
      ok = false;
    };
    if (shadow_rollout_rep.shadow_rows == 0)
      fail("shadow executor never mirrored a batch");
    if (shadow_rollout_rep.drift_rows != 0)
      fail("identical staged bank reported drift");
    if (shadow_overhead_frac > 0.05)
      fail("mirroring overhead above the 5% budget");
    std::fprintf(stderr, "shadow gate: %s (overhead %.2f%%)\n",
                 ok ? "PASS" : "FAIL", shadow_overhead_frac * 100.0);
    if (!ok) return 1;
  }

  // ---- failover gate: one sync-acked leader/follower pair, promoted
  // after a short load; promotion must audit clean and the first
  // post-promotion response must be bit-exact. Kernel backend — the
  // gate checks the HA protocol, not device pacing.
  if (failover_gate) {
    namespace repl = serve::replication;
    const auto scratch =
        std::filesystem::temp_directory_path() /
        ("ssma-failover-gate-" + std::to_string(::getpid()));
    std::filesystem::create_directories(scratch);
    bool ok = true;
    {
      serve::recovery::CheckpointManager ckpts(
          (scratch / "leader-ckpts").string());
      serve::recovery::RequestJournal journal(
          (scratch / "leader.jnl").string());
      repl::ReplicationOptions ropts;
      ropts.ack_mode = repl::AckMode::kSync;
      ropts.ack_timeout = std::chrono::milliseconds(10000);
      repl::ReplicationLog log(journal, &ckpts, ropts);

      serve::ServerOptions gopts;
      gopts.num_workers = 2;
      gopts.queue_capacity = 1024;
      gopts.engine.backend = engine::Backend::kKernel;
      gopts.recovery.journal = &journal;
      gopts.recovery.checkpoints = &ckpts;
      gopts.recovery.checkpoint_every = 8;
      gopts.recovery.replication = &log;
      serve::InferenceServer leader(gopts);
      leader.register_model("m", amm);

      repl::ApplierOptions aopts;
      aopts.leader_port = log.port();
      aopts.dir = (scratch / "follower").string();
      aopts.server = gopts;
      aopts.checkpoint_every = 8;
      repl::ReplicaApplier applier(aopts);
      if (!log.wait_follower(1, std::chrono::milliseconds(10000))) {
        std::fprintf(stderr, "failover gate: follower never connected\n");
        ok = false;
      }
      constexpr std::size_t kGateRows = 4;
      std::vector<std::uint8_t> gate_codes(
          pool.row(0), pool.row(0) + kGateRows * pool.cols);
      maddness::QuantizedActivations gq;
      gq.rows = kGateRows;
      gq.cols = pool.cols;
      gq.scale = pool.scale;
      gq.codes = gate_codes;
      const std::vector<std::int16_t> gate_want = amm.apply_int16(gq);
      if (ok) {
        for (std::size_t i = 0; i < 32; ++i)
          leader.submit("m", gate_codes, kGateRows).get();
        leader.shutdown();
        if (!applier.wait_caught_up(journal.durable_seq(),
                                    std::chrono::milliseconds(10000))) {
          std::fprintf(stderr, "failover gate: follower never caught up\n");
          ok = false;
        }
      }
      if (ok) {
        log.stop();
        repl::PromotionReport rep;
        std::unique_ptr<serve::InferenceServer> promoted =
            applier.promote(&rep);
        if (rep.crc_mismatches != 0 || rep.replay_failures != 0) {
          std::fprintf(stderr, "failover gate: promotion audit failed\n");
          ok = false;
        }
        const serve::InferenceResult first =
            promoted->submit("m", gate_codes, kGateRows).get();
        promoted->shutdown();
        if (first.outputs != gate_want) {
          std::fprintf(
              stderr,
              "failover gate: first promoted response not bit-exact\n");
          ok = false;
        }
      }
    }
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
    std::fprintf(stderr, "failover gate: %s\n", ok ? "PASS" : "FAIL");
    if (!ok) return 1;
  }
  return 0;
}
