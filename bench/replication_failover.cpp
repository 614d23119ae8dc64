// Replication failover bench: the distributed-HA pair measured end to
// end, sweeping checkpoint cadence x acked-write mode.
//
// Each cell runs a full leader/follower pair in-process: a leader
// InferenceServer with journal + checkpoints + ReplicationLog, a
// ReplicaApplier streaming into a warm standby, a serial closed-loop
// load of acked writes, then a failover — the leader stops, the
// follower promotes, and the first post-promotion response is checked
// bit-exact against the fault-free reference. Per cell it records:
//
//   - acked-write latency (mean/p99 us): what the durability contract
//     costs the client. kSync waits for the replication watermark on
//     every ack, kWindow(4) bounds the acked-but-unreplicated run,
//     kAsync never waits — the sweep quantifies the RPO/latency trade.
//   - replication lag at last ack (records/bytes): how far behind a
//     follower may be at the moment a leader dies, per mode.
//   - failover time (ms): promote() call to first bit-exact response
//     from the promoted server, plus the promote-internal
//     seal_to_serving_ms split out.
//
// The headline is the sync-over-async acked-write latency multiple at
// the middle checkpoint cadence — the price of zero RPO.
//
// Results are machine-dependent: both halves of the pair share one
// host, so the leader, follower and loopback stream contend for the
// same cores — absolute numbers bound the protocol overhead, not
// achievable failover time. The artifact records the CPU model and
// logical core count for that reason.
//
//   build/bench/replication_failover [--requests=N] [--rows=N]
//                                    [--out=BENCH_replication.json]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "maddness/amm.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/replication/replica_applier.hpp"
#include "serve/replication/replication.hpp"
#include "serve/server.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

using namespace ssma;
using serve::replication::AckMode;

namespace {

/// Self-cleaning scratch directory (the bench's TmpDir — the test
/// helper depends on gtest).
class Scratch {
 public:
  explicit Scratch(const std::string& tag) {
    static int counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("ssma-bench-" + tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++));
    std::filesystem::create_directories(path_);
  }
  ~Scratch() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

struct Operator {
  maddness::Amm amm;
  maddness::QuantizedActivations pool;
};

Operator train_operator(std::uint64_t seed) {
  Rng rng(seed);
  maddness::Config cfg;
  cfg.ncodebooks = 4;
  const std::size_t d = static_cast<std::size_t>(cfg.total_dims());
  Matrix train(512, d);
  for (std::size_t i = 0; i < train.size(); ++i)
    train.data()[i] = static_cast<float>(rng.next_double(0, 220));
  Matrix w(d, 8);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
  Operator op{maddness::Amm::train(cfg, train, w), {}};
  Matrix fresh(256, d);
  for (std::size_t i = 0; i < fresh.size(); ++i)
    fresh.data()[i] = static_cast<float>(rng.next_double(0, 220));
  op.pool =
      maddness::quantize_activations(fresh, op.amm.activation_scale());
  return op;
}

std::vector<std::uint8_t> codes_for(const Operator& op, std::size_t id,
                                    std::size_t rows) {
  std::vector<std::uint8_t> codes;
  std::size_t r = id % op.pool.rows;
  for (std::size_t i = 0; i < rows; ++i) {
    codes.insert(codes.end(), op.pool.row(r),
                 op.pool.row(r) + op.pool.cols);
    r = (r + 1) % op.pool.rows;
  }
  return codes;
}

std::vector<std::int16_t> expected_for(
    const Operator& op, const std::vector<std::uint8_t>& codes,
    std::size_t rows) {
  maddness::QuantizedActivations q;
  q.rows = rows;
  q.cols = op.pool.cols;
  q.scale = op.pool.scale;
  q.codes = codes;
  return op.amm.apply_int16(q);
}

struct CellResult {
  std::size_t checkpoint_every = 0;
  std::string ack_mode;
  double acked_us_mean = 0.0;
  double acked_us_p99 = 0.0;
  double tokens_per_sec = 0.0;
  std::uint64_t lag_records_at_last_ack = 0;
  std::uint64_t lag_bytes_at_last_ack = 0;
  std::uint64_t sync_degraded = 0;
  std::uint64_t checkpoints_shipped = 0;
  double failover_ms = 0.0;        ///< promote() call -> first response
  double seal_to_serving_ms = 0.0;
  std::uint64_t durable_seq = 0;
  std::uint64_t applied = 0;
  std::uint64_t backfilled = 0;

  std::string json() const {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"checkpoint_every\":%zu,\"ack_mode\":\"%s\","
        "\"acked_us_mean\":%.1f,\"acked_us_p99\":%.1f,"
        "\"tokens_per_sec\":%.0f,"
        "\"lag_records_at_last_ack\":%llu,"
        "\"lag_bytes_at_last_ack\":%llu,"
        "\"sync_degraded\":%llu,\"checkpoints_shipped\":%llu,"
        "\"failover_ms\":%.2f,\"seal_to_serving_ms\":%.2f,"
        "\"durable_seq\":%llu,\"applied\":%llu,\"backfilled\":%llu,"
        "\"first_response_bit_exact\":true}",
        checkpoint_every, ack_mode.c_str(), acked_us_mean, acked_us_p99,
        tokens_per_sec,
        static_cast<unsigned long long>(lag_records_at_last_ack),
        static_cast<unsigned long long>(lag_bytes_at_last_ack),
        static_cast<unsigned long long>(sync_degraded),
        static_cast<unsigned long long>(checkpoints_shipped), failover_ms,
        seal_to_serving_ms, static_cast<unsigned long long>(durable_seq),
        static_cast<unsigned long long>(applied),
        static_cast<unsigned long long>(backfilled));
    return buf;
  }
};

/// One full pair lifecycle. Returns false (and logs) when any
/// correctness invariant breaks — the bench is also a gate.
bool run_cell(const Operator& op, std::size_t checkpoint_every,
              AckMode mode, std::uint64_t window, std::size_t requests,
              std::size_t rows, CellResult* out) {
  using Clock = std::chrono::steady_clock;
  out->checkpoint_every = checkpoint_every;
  out->ack_mode = serve::replication::to_string(mode);
  if (mode == AckMode::kWindow)
    out->ack_mode += "(" + std::to_string(window) + ")";

  Scratch dir("failover");
  serve::recovery::CheckpointManager ckpts(dir.file("leader-ckpts"));
  serve::recovery::RequestJournal journal(dir.file("leader.jnl"));
  serve::replication::ReplicationOptions ropts;
  ropts.ack_mode = mode;
  ropts.window = window;
  ropts.ack_timeout = std::chrono::milliseconds(10000);
  serve::replication::ReplicationLog repl(journal, &ckpts, ropts);

  serve::ServerOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 1024;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.checkpoint_every = checkpoint_every;
  opts.recovery.replication = &repl;
  serve::InferenceServer server(opts);
  server.register_model("m", op.amm);

  serve::replication::ApplierOptions aopts;
  aopts.leader_port = repl.port();
  aopts.dir = dir.file("follower");
  aopts.server = opts;
  aopts.checkpoint_every = checkpoint_every;
  serve::replication::ReplicaApplier applier(aopts);
  if (!repl.wait_follower(1, std::chrono::milliseconds(10000))) {
    std::fprintf(stderr, "cell %s: follower never handshook\n",
                 out->ack_mode.c_str());
    return false;
  }

  // Serial closed loop: each iteration is one acked write, so the
  // latency sample includes exactly what the ack mode adds.
  std::vector<double> lat_us;
  lat_us.reserve(requests);
  const auto load_t0 = Clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    const auto t0 = Clock::now();
    auto fut = server.submit("m", codes_for(op, i, rows), rows);
    fut.get();
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0)
            .count());
  }
  const double load_s =
      std::chrono::duration<double>(Clock::now() - load_t0).count();
  const auto st = repl.stats();  // lag as the last ack returned
  out->lag_records_at_last_ack = st.lag_records;
  out->lag_bytes_at_last_ack = st.lag_bytes;
  out->sync_degraded = st.sync_degraded;

  double sum = 0.0;
  for (const double v : lat_us) sum += v;
  out->acked_us_mean = sum / static_cast<double>(lat_us.size());
  std::sort(lat_us.begin(), lat_us.end());
  out->acked_us_p99 =
      lat_us[std::min(lat_us.size() - 1,
                      static_cast<std::size_t>(
                          0.99 * static_cast<double>(lat_us.size())))];
  out->tokens_per_sec =
      load_s > 0.0
          ? static_cast<double>(requests * rows) / load_s
          : 0.0;

  // The leader "dies": graceful here (the crash matrix in
  // test_recovery.cpp covers SIGKILL at every fault site; the bench
  // measures the follower-side promotion cost, which is identical).
  server.shutdown();
  if (!applier.wait_caught_up(journal.durable_seq(),
                              std::chrono::milliseconds(20000))) {
    std::fprintf(stderr, "cell %s: follower never caught up\n",
                 out->ack_mode.c_str());
    return false;
  }
  out->checkpoints_shipped = repl.stats().checkpoints_shipped;
  repl.stop();

  const auto fo_t0 = Clock::now();
  serve::replication::PromotionReport rep;
  std::unique_ptr<serve::InferenceServer> promoted = applier.promote(&rep);
  // First post-promotion response, checked bit-exact against the
  // fault-free reference — promotion that serves wrong bits is a bug,
  // not a data point.
  const std::vector<std::uint8_t> probe = codes_for(op, 0, rows);
  const serve::InferenceResult first =
      promoted->submit("m", probe, rows).get();
  out->failover_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - fo_t0)
          .count();
  out->seal_to_serving_ms = rep.seal_to_serving_ms;
  out->durable_seq = rep.durable_seq;
  out->applied = rep.applied;
  out->backfilled = rep.completed_backfilled;
  promoted->shutdown();

  if (first.outputs != expected_for(op, probe, rows)) {
    std::fprintf(stderr, "cell %s: first promoted response diverged\n",
                 out->ack_mode.c_str());
    return false;
  }
  if (rep.crc_mismatches != 0 || rep.replay_failures != 0) {
    std::fprintf(stderr,
                 "cell %s: promotion audit failed (%llu crc mismatches, "
                 "%llu replay failures)\n",
                 out->ack_mode.c_str(),
                 static_cast<unsigned long long>(rep.crc_mismatches),
                 static_cast<unsigned long long>(rep.replay_failures));
    return false;
  }
  // Sync acks may never run ahead of the watermark: with 2 journal
  // records per request (accept + complete), lag in records at the
  // moment an ack returned is bounded by the in-flight request itself.
  if (mode == AckMode::kSync && out->sync_degraded == 0 &&
      out->lag_records_at_last_ack > 2) {
    std::fprintf(stderr, "cell %s: sync ack ran ahead of the watermark\n",
                 out->ack_mode.c_str());
    return false;
  }
  std::fprintf(stderr,
               "ckpt_every=%-4zu %-10s acked mean %7.1f us  p99 %7.1f us"
               "  lag@ack %3llu rec  failover %6.2f ms  applied %llu\n",
               checkpoint_every, out->ack_mode.c_str(),
               out->acked_us_mean, out->acked_us_p99,
               static_cast<unsigned long long>(
                   out->lag_records_at_last_ack),
               out->failover_ms,
               static_cast<unsigned long long>(out->applied));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 320;
  std::size_t rows = 4;
  std::string out_path = "BENCH_replication.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--requests=", 11) == 0)
      requests = static_cast<std::size_t>(
          std::strtoull(argv[i] + 11, nullptr, 10));
    else if (std::strncmp(argv[i], "--rows=", 7) == 0)
      rows =
          static_cast<std::size_t>(std::strtoull(argv[i] + 7, nullptr, 10));
    else if (std::strncmp(argv[i], "--out=", 6) == 0)
      out_path = argv[i] + 6;
    else {
      std::fprintf(stderr, "unknown arg: %s\n", argv[i]);
      return 1;
    }
  }

  const Operator op = train_operator(2026);
  const std::vector<std::size_t> cadences{4, 32, 256};
  struct ModeSpec {
    AckMode mode;
    std::uint64_t window;
  };
  const std::vector<ModeSpec> modes{
      {AckMode::kAsync, 0}, {AckMode::kWindow, 4}, {AckMode::kSync, 0}};

  std::vector<CellResult> cells;
  for (const std::size_t cadence : cadences)
    for (const ModeSpec& m : modes) {
      CellResult cell;
      if (!run_cell(op, cadence, m.mode, m.window, requests, rows, &cell))
        return 1;
      cells.push_back(cell);
    }

  // Headline: what zero RPO costs per acked write, at the middle
  // checkpoint cadence (cadence doesn't sit on the ack path; it moves
  // failover time, not ack latency).
  double async_us = 0.0, sync_us = 0.0;
  for (const CellResult& c : cells) {
    if (c.checkpoint_every != 32) continue;
    if (c.ack_mode == "async") async_us = c.acked_us_mean;
    if (c.ack_mode == "sync") sync_us = c.acked_us_mean;
  }
  const double sync_over_async =
      async_us > 0.0 ? sync_us / async_us : 0.0;
  std::fprintf(stderr,
               "\nsync-over-async acked-write latency: %.2fx "
               "(%.1f us vs %.1f us at ckpt_every=32)\n",
               sync_over_async, sync_us, async_us);

  std::string out = "{\"bench\":\"replication_failover\",";
  out += benchenv::machine_json();
  out += ",\"requests\":" + std::to_string(requests) +
         ",\"rows_per_request\":" + std::to_string(rows) + ",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out += ",";
    out += cells[i].json();
  }
  char tail[96];
  std::snprintf(tail, sizeof(tail),
                "],\"sync_over_async_acked_latency\":%.3f}",
                sync_over_async);
  out += tail;
  if (!benchenv::write_artifact(out_path, out)) return 1;
  return 0;
}
