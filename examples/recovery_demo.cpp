// Checkpoint/recovery walkthrough for the serving runtime (v2 Engine
// API: the operator is a named, versioned registry entry and every
// journal record is tagged with the bank it pinned), two acts:
//
//   1. Supervised self-healing: a shard is killed mid-load by the
//      deterministic fault injector; the supervisor requeues its
//      in-flight batch and respawns the shard from the latest
//      checkpoint. Clients never notice — every response is bit-exact.
//
//   2. Hard crash + restart: an unsupervised server dies with work
//      queued, in flight, and even accepted-but-never-enqueued. A new
//      server restores from the newest valid checkpoint and replays
//      the journal's unacknowledged requests, reproducing bit-for-bit
//      the outputs the dead server would have returned.
//
// Everything (arrivals, payloads, fault points) derives from one seed,
// printed below: a failing run is reproducible from its log line.
#include <cstdio>
#include <filesystem>
#include <future>
#include <sstream>
#include <vector>

#include "maddness/amm.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/recovery/recovery.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

using namespace ssma;
using serve::recovery::CheckpointManager;
using serve::recovery::FaultInjector;
using serve::recovery::FaultKind;
using serve::recovery::FaultPlan;
using serve::recovery::FaultSite;
using serve::recovery::RequestJournal;

namespace {

struct Workload {
  maddness::Amm amm;
  maddness::QuantizedActivations pool;
};

Workload make_workload(std::uint64_t seed) {
  Rng rng(seed);
  const int ncodebooks = 8, nout = 16;
  const std::size_t d = static_cast<std::size_t>(ncodebooks) * 9;
  Matrix train(512, d), w(d, nout);
  for (std::size_t i = 0; i < train.size(); ++i)
    train.data()[i] = static_cast<float>(rng.next_double(0, 220));
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
  maddness::Config cfg;
  cfg.ncodebooks = ncodebooks;
  Workload wl{maddness::Amm::train(cfg, train, w), {}};

  Matrix fresh(256, d);
  for (std::size_t i = 0; i < fresh.size(); ++i)
    fresh.data()[i] = static_cast<float>(rng.next_double(0, 220));
  wl.pool = maddness::quantize_activations(fresh, wl.amm.activation_scale());
  return wl;
}

std::vector<std::uint8_t> payload(const Workload& wl, std::size_t id) {
  const std::size_t r = id % wl.pool.rows;
  return {wl.pool.row(r), wl.pool.row(r) + wl.pool.cols};
}

std::vector<std::int16_t> reference(const Workload& wl,
                                    const std::vector<std::uint8_t>& codes,
                                    std::size_t rows) {
  maddness::QuantizedActivations q;
  q.rows = rows;
  q.cols = wl.pool.cols;
  q.scale = wl.pool.scale;
  q.codes = codes;
  return wl.amm.apply_int16(q);
}

}  // namespace

int main() {
  const std::uint64_t seed = 0x5eedac7ull;
  const Workload wl = make_workload(seed);
  const auto scratch =
      std::filesystem::temp_directory_path() / "ssma-recovery-demo";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  std::printf("recovery demo  seed=0x%llx  scratch=%s\n\n",
              static_cast<unsigned long long>(seed),
              scratch.string().c_str());

  // ---------------------------------------------- act 1: self-healing
  {
    std::printf("[1] supervised pool, shard killed mid-load\n");
    FaultInjector fault(seed);
    FaultPlan kill;
    kill.site = FaultSite::kExecute;  // outputs computed, ack pending
    kill.kind = FaultKind::kKillShard;
    kill.fire_at = 10;
    fault.arm(kill);

    CheckpointManager ckpts((scratch / "act1").string(), &fault);
    RequestJournal journal((scratch / "act1.jnl").string());

    serve::ServerOptions opts;
    opts.num_workers = 4;
    opts.batcher.max_batch_tokens = 8;
    opts.recovery.fault = &fault;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoint_every = 64;
    opts.recovery.supervise = true;
    serve::InferenceServer server(opts);
    server.register_model("embed", wl.amm);

    constexpr std::size_t kRequests = 200;
    std::vector<std::future<serve::InferenceResult>> futs;
    for (std::size_t id = 0; id < kRequests; ++id)
      futs.push_back(server.submit("embed", payload(wl, id), 1));

    std::size_t exact = 0;
    for (std::size_t id = 0; id < futs.size(); ++id)
      exact += futs[id].get().outputs ==
               reference(wl, payload(wl, id), 1);
    server.shutdown();

    std::printf("    served %zu/%zu bit-exact, shard respawns: %d\n",
                exact, kRequests, server.respawn_count());
    for (const std::string& line : fault.fired_log())
      std::printf("    fault fired: %s\n", line.c_str());
    const auto snap = server.metrics();
    std::printf("    p99 %.1f us over %zu batches\n\n", snap.p99_us,
                snap.batches);
  }

  // ------------------------------------- act 2: hard crash + restart
  const std::string jnl_path = (scratch / "act2.jnl").string();
  const std::string ckpt_dir = (scratch / "act2").string();
  constexpr std::size_t kRequests = 96;
  std::size_t served_before = 0;
  {
    std::printf("[2] unsupervised server crashes with work outstanding\n");
    FaultInjector fault(seed);
    FaultPlan kill;
    kill.site = FaultSite::kExecute;
    kill.kind = FaultKind::kKillShard;
    kill.fire_at = 7;
    fault.arm(kill);
    FaultPlan lost;  // accepted into the WAL, lost before the queue
    lost.site = FaultSite::kEnqueue;
    lost.kind = FaultKind::kKillShard;
    lost.fire_at = 20;
    fault.arm(lost);

    CheckpointManager ckpts(ckpt_dir, &fault);
    RequestJournal journal(jnl_path);

    serve::ServerOptions opts;
    opts.num_workers = 1;
    opts.queue_capacity = 2 * kRequests;
    opts.batcher.max_batch_tokens = 1;
    opts.recovery.fault = &fault;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoint_every = 16;
    serve::InferenceServer server(opts);
    server.register_model("embed", wl.amm);

    std::vector<std::future<serve::InferenceResult>> futs;
    for (std::size_t id = 0; id < kRequests; ++id)
      futs.push_back(server.submit("embed", payload(wl, id), 1));
    server.shutdown();  // the "crash": stranded futures fail

    for (auto& fut : futs) {
      try {
        fut.get();
        served_before++;
      } catch (const std::exception&) {
      }
    }
    std::printf("    crash: %zu/%zu acknowledged before the shard died\n",
                served_before, kRequests);
  }
  {
    CheckpointManager ckpts(ckpt_dir);
    const auto rs = serve::recovery::recover_state(ckpts, jnl_path);
    std::printf("    restart: checkpoint v%llu, journal %llu accepted / "
                "%llu completed -> %zu to replay\n",
                static_cast<unsigned long long>(rs.checkpoint_version),
                static_cast<unsigned long long>(rs.journal.accepted),
                static_cast<unsigned long long>(rs.journal.completed),
                rs.journal.unacknowledged.size());

    RequestJournal journal(jnl_path);
    serve::ServerOptions opts;
    opts.num_workers = 4;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.journal = &journal;
    auto server = serve::InferenceServer::restore(rs, opts);
    std::printf("    restored registry serves embed@%llu\n",
                static_cast<unsigned long long>(
                    server->registry().latest_version("embed")));
    auto futs = server->replay(rs.journal.unacknowledged);

    std::size_t exact = 0;
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const auto& rec = rs.journal.unacknowledged[i];
      exact += futs[i].get().outputs ==
               reference(wl, rec.codes, rec.rows);
    }
    server->shutdown();
    std::printf("    replayed %zu/%zu bit-exact vs the fault-free "
                "kernel (total %zu + %zu = %zu of %zu)\n",
                exact, futs.size(), served_before, exact,
                served_before + exact, kRequests);
    if (served_before + exact != kRequests) {
      std::printf("    RECOVERY INCOMPLETE\n");
      return 1;
    }
  }
  std::printf("\nevery request either acknowledged before the crash or "
              "replayed bit-exactly after it.\n");
  return 0;
}
