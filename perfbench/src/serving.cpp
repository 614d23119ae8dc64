// Serving workloads. One client thread on one TCP connection keeps a
// fixed window of requests in flight (closed loop) against
// net::NetServer + serve::InferenceServer with two workers, so the
// client, the epoll loop and the workers fit in four cores. Every
// response is checked bit-exact against the reference outputs of the
// pool slice it was computed from.
//
//   rpc_small     1-row requests, one stage ncb=8 nout=16: framing, the
//                 epoll loop, admission, queue, batcher and ack do almost
//                 all the work.
//   mlp_fused     64-row requests, a 3-stage fused pipeline ncb=32
//                 288->288->288->128: encode, LUT accumulate and the
//                 fused epilogue dominate.
//   durable_sync  rpc_small plus the write-ahead journal, a checkpoint
//                 cadence and an in-process follower with sync acks; its
//                 difference to rpc_small is the cost of durability.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/model_registry.hpp"
#include "engine/pipeline.hpp"
#include "models.hpp"
#include "net/server.hpp"
#include "probes.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/replication/replica_applier.hpp"
#include "serve/replication/replication.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ssma;
namespace rec = serve::recovery;
namespace rep = serve::replication;

/// Set-ups per run; setup_s is the fastest. The first deploys the stack
/// that serves. Each of the others runs before one segment of the timed
/// window, so they sample the host over the whole run. Set-up is fixed
/// work that interference only slows: on a shared 4-vCPU host single
/// set-ups vary by +-20% within one run, while the fastest of nine
/// repeats within a few percent across runs.
constexpr int kSetups = 9;
/// peak_rss_mb is ru_maxrss when the client sends this request (or at the
/// end of the warm-up, if that comes first): a fixed point of the run, so
/// the reading does not grow with throughput. The durable follower keeps
/// state per replayed request until promotion.
constexpr std::uint64_t kRssAtRequest = 2048;
/// Requests the client keeps in flight.
constexpr std::size_t kWindow = 8;
constexpr int kWorkers = 2;
constexpr std::size_t kBatchTokens = 256;
/// Short enough that the front door, not the batch timer, sets latency
/// (at the 200 us default the timer dominates 1-row requests).
constexpr std::chrono::microseconds kMaxWait{20};
constexpr std::size_t kCheckpointEvery = 4096;
constexpr auto kFollowerTimeout = std::chrono::seconds(10);

struct Spec {
  std::string model;
  ModelShape shape;
  std::size_t rows_per_request = 1;
  bool durable = false;
};

bool spec_for(const std::string& workload, Spec* out) {
  const ModelShape small{8, {16}, 8192, 4096};
  if (workload == "rpc_small") {
    *out = {"m", small, 1, false};
  } else if (workload == "mlp_fused") {
    *out = {"mlp", {32, {288, 288, 128}, 2048, 4096}, 64, false};
  } else if (workload == "durable_sync") {
    *out = {"m", small, 1, true};
  } else {
    return false;
  }
  return true;
}

serve::ServerOptions server_options(int workers) {
  serve::ServerOptions o;
  o.num_workers = workers;
  o.queue_capacity = 1024;
  o.batcher.max_batch_tokens = kBatchTokens;
  o.batcher.max_wait = kMaxWait;
  return o;
}

struct SetupTimes {
  double register_s = 0.0;
  double start_s = 0.0;
};

/// One running deployment: inference server, front door, optional
/// journal + checkpoints + sync-ack follower, and the connected client.
class Stack {
 public:
  Stack(const Spec& spec, const std::vector<maddness::Amm>& stages,
        const std::string& dir, Tracer& tracer, SetupTimes* times)
      : dir_(dir) {
    serve::ServerOptions opts = server_options(kWorkers);
    const std::int64_t t0 = now_ns();
    if (spec.durable) {
      std::filesystem::create_directories(dir_);
      ckpts_ = std::make_unique<rec::CheckpointManager>(dir_ + "/checkpoints");
      journal_ = std::make_unique<rec::RequestJournal>(dir_ + "/journal.ssj");
      rep::ReplicationOptions ropts;
      ropts.ack_mode = rep::AckMode::kSync;
      repl_ = std::make_unique<rep::ReplicationLog>(*journal_, ckpts_.get(),
                                                    ropts);
      opts.recovery.journal = journal_.get();
      opts.recovery.checkpoints = ckpts_.get();
      opts.recovery.checkpoint_every = kCheckpointEvery;
      opts.recovery.replication = repl_.get();
    }
    server_ = std::make_unique<serve::InferenceServer>(opts);
    const std::int64_t t1 = now_ns();
    if (stages.size() == 1)
      server_->register_model(spec.model, stages.front());
    else
      server_->register_pipeline(spec.model, stage_ptrs(stages));
    const std::int64_t t2 = now_ns();
    front_ = std::make_unique<net::NetServer>(*server_,
                                              net::NetServerOptions{});
    if (spec.durable) {
      rep::ApplierOptions aopts;
      aopts.leader_port = repl_->port();
      aopts.dir = dir_ + "/follower";
      aopts.server = server_options(1);
      aopts.checkpoint_every = kCheckpointEvery;
      follower_ = std::make_unique<rep::ReplicaApplier>(aopts);
      SSMA_CHECK_MSG(repl_->wait_follower(1, kFollowerTimeout),
                     "follower never handshook");
      SSMA_CHECK_MSG(follower_->wait_standby(kFollowerTimeout),
                     "follower built no standby");
    }
    client_.connect("127.0.0.1", front_->port());
    const std::int64_t t3 = now_ns();
    tracer.record("setup.start", t0, t1);
    tracer.record("setup.register", t1, t2);
    tracer.record("setup.start", t2, t3);
    times->start_s = static_cast<double>((t1 - t0) + (t3 - t2)) / 1e9;
    times->register_s = static_cast<double>(t2 - t1) / 1e9;
  }

  ~Stack() {
    try {
      stop();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: teardown: %s\n", e.what());
    }
    front_.reset();
    follower_.reset();
    server_.reset();
    repl_.reset();
    journal_.reset();
    ckpts_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Closes the client, drains the front door and the server, then the
  /// follower and the replication stream. Idempotent.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    client_.close();
    front_->stop();
    server_->shutdown();
    if (follower_) follower_->stop();
    if (repl_) repl_->stop();
  }

  net::NetClient& client() { return client_; }
  serve::InferenceServer& server() { return *server_; }
  net::NetServer& front() { return *front_; }
  const rep::ReplicationLog* replication() const { return repl_.get(); }

 private:
  std::string dir_;
  std::unique_ptr<rec::CheckpointManager> ckpts_;
  std::unique_ptr<rec::RequestJournal> journal_;
  std::unique_ptr<rep::ReplicationLog> repl_;
  std::unique_ptr<serve::InferenceServer> server_;
  std::unique_ptr<rep::ReplicaApplier> follower_;
  std::unique_ptr<net::NetServer> front_;
  net::NetClient client_;
  bool stopped_ = false;
};

/// Trains the operators and deploys a stack in `dir`, timing each phase.
std::unique_ptr<Stack> deploy(const Spec& spec, const WorkloadData& data,
                              const std::string& dir, Tracer& tracer,
                              SetupLog& setup,
                              std::vector<maddness::Amm>* stages) {
  const std::int64_t t0 = now_ns();
  *stages = train_stages(data);
  const std::int64_t t1 = now_ns();
  tracer.record("setup.train", t0, t1);
  SetupTimes times;
  auto stack = std::make_unique<Stack>(spec, *stages, dir, tracer, &times);
  setup.add(static_cast<double>(t1 - t0) / 1e9, times.register_s,
            times.start_s);
  return stack;
}

struct Traffic {
  const maddness::QuantizedActivations& pool;
  const std::vector<std::int16_t>& reference;
  std::size_t rows_per_request;
  std::size_t nout;
  std::string model_ref;
};

/// Completions that landed inside the timed windows of one phase.
struct Phase {
  LatencySample lat_ms;
  std::size_t rows_ok = 0;
  double seconds = 0.0;
  double rows_per_s() const {
    return seconds > 0.0 ? static_cast<double>(rows_ok) / seconds : 0.0;
  }
};

/// The client's progress over the whole run.
struct Load {
  std::uint64_t sent = 0;  ///< requests sent so far, also the next id
  double rss_mb = 0.0;     ///< ru_maxrss when request kRssAtRequest was sent
};

/// Closed loop for `seconds`: keeps kWindow requests in flight, sends a
/// new one per completion until the window ends, then drains. Latency is
/// send start to response decoded. Completions inside the window are
/// added to `phase`.
void drive(net::NetClient& cli, const Traffic& t, double seconds,
           Tracer& tracer, Report& report, Load& load, Phase& phase) {
  phase.seconds += seconds;
  const std::size_t rows = t.rows_per_request;
  const std::size_t slices = t.pool.rows / rows;
  struct Inflight {
    std::int64_t sent_ns;
    std::size_t slice;
  };
  std::unordered_map<std::uint64_t, Inflight> inflight;
  net::RpcRequest req;
  req.model_ref = t.model_ref;
  req.rows = rows;
  const auto send_one = [&] {
    const std::uint64_t id = load.sent++;
    if (load.sent == kRssAtRequest) load.rss_mb = peak_rss_mb();
    const std::size_t slice = id % slices;
    req.correlation_id = id;
    req.codes.assign(t.pool.row(slice * rows),
                     t.pool.row(slice * rows) + rows * t.pool.cols);
    const std::int64_t t0 = now_ns();
    cli.send(req);
    tracer.record("client.send", t0, now_ns(), id);
    inflight.emplace(id, Inflight{t0, slice});
    ++report.attempted;
  };

  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0; i < kWindow; ++i) send_one();
  net::RpcResponse resp;
  while (!inflight.empty()) {
    const std::int64_t r0 = now_ns();
    SSMA_CHECK_MSG(cli.recv_response(&resp), "server closed the connection");
    const std::int64_t r1 = now_ns();
    tracer.record("client.recv", r0, r1, resp.correlation_id);
    const auto it = inflight.find(resp.correlation_id);
    SSMA_CHECK_MSG(it != inflight.end(), "response to an unknown request");
    const Inflight done = it->second;
    inflight.erase(it);
    const auto want =
        t.reference.begin() +
        static_cast<std::ptrdiff_t>(done.slice * rows * t.nout);
    if (resp.status != net::kStatusOk) {
      if (report.failed++ == 0)
        std::fprintf(stderr, "perfbench: request failed (status %u): %s\n",
                     resp.status, resp.message.c_str());
    } else if (resp.rows != rows || resp.outputs.size() != rows * t.nout ||
               !std::equal(resp.outputs.begin(), resp.outputs.end(), want)) {
      ++report.mismatches;
    } else if (r1 <= end) {
      phase.rows_ok += rows;
      phase.lat_ms.add(static_cast<double>(r1 - done.sent_ns) / 1e6);
    }
    if (r1 < end) send_one();
  }
}

}  // namespace

bool run_serving(const Args& args, Report& report, Tracer& tracer) {
  Spec spec;
  if (!spec_for(args.workload, &spec)) return false;
  tracer.set_enabled(args.trace);
  const WorkloadData data = make_data(spec.shape, args.seed);

  SetupLog setup;
  std::vector<maddness::Amm> stages;
  const std::unique_ptr<Stack> stack =
      deploy(spec, data, args.scratch + "/deploy-0", tracer, setup, &stages);
  const engine::ModelRef model =
      stages.size() == 1
          ? engine::ModelHandle::from_amm(spec.model, 1, stages.front())
          : engine::ModelHandle::from_stages(spec.model, 1,
                                             stage_ptrs(stages));
  const maddness::QuantizedActivations pool =
      quantize_pool(data, stages.front());
  // Rows are independent, so a request's expected outputs are its slice
  // of the reference over the whole pool.
  const std::vector<std::int16_t> reference =
      engine::pipeline_reference_apply(*model, pool);
  const Traffic traffic{pool, reference, spec.rows_per_request,
                        model->nout(), spec.model};

  // Warm up, then the untraced window; a traced run splits its time
  // between an untraced and a traced window to measure the overhead. The
  // windows are cut into segments, each after one more set-up, which is
  // torn down again before the segment runs.
  Load load;
  Phase warm, plain, traced;
  tracer.set_enabled(false);
  drive(stack->client(), traffic, std::min(1.0, 0.25 * args.seconds), tracer,
        report, load, warm);
  if (load.rss_mb == 0.0) load.rss_mb = peak_rss_mb();
  const int segments = kSetups - 1;
  for (int k = 1; k <= segments; ++k) {
    const bool traced_segment = args.trace && 2 * k > segments;
    tracer.set_enabled(traced_segment);
    std::vector<maddness::Amm> unused;
    deploy(spec, data, args.scratch + "/deploy-" + std::to_string(k), tracer,
           setup, &unused)
        .reset();
    drive(stack->client(), traffic, args.seconds / segments, tracer, report,
          load, traced_segment ? traced : plain);
  }

  const serve::MetricsSnapshot snap = stack->server().metrics();
  const net::NetServerStats net_stats = stack->front().stats();
  const serve::AdmissionStats admission = stack->front().admission_stats();
  const rep::ReplicationStats repl_stats =
      spec.durable ? stack->replication()->stats() : rep::ReplicationStats{};
  stack->stop();
  if (repl_stats.sync_degraded > 0) {
    // A sync ack that timed out and degraded to async acknowledged a
    // write the follower may not hold: the run fails.
    std::fprintf(stderr, "perfbench: %llu sync acks degraded to async\n",
                 static_cast<unsigned long long>(repl_stats.sync_degraded));
    report.failed += repl_stats.sync_degraded;
  }
  print_detail(plain.lat_ms.percentile(99), plain.lat_ms.count(),
               setup.total_s, report);

  const double client_p50 = plain.lat_ms.percentile(50);
  if (!args.trace) {
    report.add("rows_per_s", plain.rows_per_s(), "rows/s");
    report.add("p50_ms", client_p50, "ms");
    report.add("p90_ms", plain.lat_ms.percentile(90), "ms");
    report.add("setup_s", setup.total_s.min(), "s");
    report.add("peak_rss_mb", load.rss_mb, "MB");
    return true;
  }

  const serve::ModelMetricsSnapshot* per_model = snap.for_model(spec.model);
  SSMA_CHECK_MSG(per_model != nullptr, "server recorded no batches");
  ProbeTarget target;
  target.model = model;
  target.pool = &pool;
  target.reference = &reference;
  target.request_rows = spec.rows_per_request;
  target.batch_rows = std::max<std::size_t>(
      1, static_cast<std::size_t>(snap.mean_batch_tokens + 0.5));
  target.scratch = args.scratch + "/probes";

  LayerView v;
  v.probe = run_probes(target, tracer, report);
  const ProbeResults& p = v.probe;
  v.overhead_p50_ms = client_p50 - per_model->p50_us / 1e3;
  v.bytes_per_row =
      static_cast<double>(net_stats.bytes_read + net_stats.bytes_written) /
      static_cast<double>(net_stats.frames_received * spec.rows_per_request);
  for (const std::uint64_t n : admission.rejects) v.rejects += n;
  v.queue_wait_p50_us = per_model->queue_p50_us;
  v.rows_per_batch = snap.mean_batch_tokens;
  v.service_p50_us = per_model->service_p50_us;
  if (spec.durable) {
    v.repl_bytes_per_req = static_cast<double>(repl_stats.bytes_sent) /
                           static_cast<double>(net_stats.requests_admitted);
    v.repl_sync_degraded = repl_stats.sync_degraded;
  } else {
    v.repl_bytes_per_req = p.repl_bytes_per_req;
    v.repl_sync_degraded = p.repl_sync_degraded;
  }
  // Client p50 minus the stages a request passes in series: client
  // framing, admission, (accept record), queue wait and service (which
  // includes the sync-ack wait). What is left is epoll, loopback and
  // wake-up latency no span covers.
  v.unattributed_p50_ms =
      client_p50 -
      (p.frame_us / 1e3 + p.admit_ns / 1e6 + per_model->queue_p50_us / 1e3 +
       per_model->service_p50_us / 1e3 +
       (spec.durable ? p.journal_append_us / 1e3 : 0.0));
  v.trace_overhead_frac = 1.0 - traced.rows_per_s() / plain.rows_per_s();
  add_layer_metrics(v, setup, report);
  return true;
}

}  // namespace perfbench
