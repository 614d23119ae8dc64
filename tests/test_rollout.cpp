// Continuous-learning rollout pipeline tests: traffic reservoir
// determinism, shadow-execution exactness, end-to-end
// retrain -> shadow -> auto-promote / auto-rollback, journal
// compaction (standalone and under replication), and the admin plane.
//
// Every randomized piece derives from one seed (SSMA_TEST_SEED) so any
// failure reproduces bit-exactly.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/model_registry.hpp"
#include "maddness/amm.hpp"
#include "maddness/quantize.hpp"
#include "net/server.hpp"
#include "net/wire_protocol.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/recovery/recovery.hpp"
#include "serve/replication/replica_applier.hpp"
#include "serve/replication/replication.hpp"
#include "serve/rollout/rollout.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ssma::serve {
namespace {

using namespace std::chrono_literals;

/// Completion records are appended by the worker thread after the
/// response future is fulfilled, so a returned get() does not imply the
/// ack is journaled yet — spin until the journal holds `n` records.
void wait_journal_records(const recovery::RequestJournal& jnl,
                          std::uint64_t n) {
  for (int spin = 0; spin < 10000 && jnl.durable_seq() < n; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(jnl.durable_seq(), n);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Like ServeFixture, but retains the weights and config so a rollout
/// manager can retrain candidates against the same regression target.
struct RolloutFixture {
  maddness::Config cfg;
  Matrix weights;
  maddness::Amm amm;
  maddness::QuantizedActivations pool;

  static RolloutFixture make(int ncodebooks = 4, int nout = 8,
                             std::size_t pool_rows = 256,
                             std::uint64_t seed = 7) {
    Rng rng(seed);
    const std::size_t d = static_cast<std::size_t>(ncodebooks) * 9;
    Matrix train(512, d);
    for (std::size_t i = 0; i < train.size(); ++i)
      train.data()[i] = static_cast<float>(rng.next_double(0, 220));
    Matrix w(d, static_cast<std::size_t>(nout));
    for (std::size_t i = 0; i < w.size(); ++i)
      w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));

    maddness::Config cfg;
    cfg.ncodebooks = ncodebooks;

    RolloutFixture f{cfg, w, maddness::Amm::train(cfg, train, w), {}};
    Matrix fresh(pool_rows, d);
    for (std::size_t i = 0; i < fresh.size(); ++i)
      fresh.data()[i] = static_cast<float>(rng.next_double(0, 220));
    f.pool =
        maddness::quantize_activations(fresh, f.amm.activation_scale());
    return f;
  }

  std::vector<std::uint8_t> codes_for(std::size_t id) const {
    const std::size_t r = id % pool.rows;
    return std::vector<std::uint8_t>(pool.row(r), pool.row(r) + pool.cols);
  }

  std::vector<std::int16_t> expected(std::size_t first_row,
                                     std::size_t rows) const {
    maddness::QuantizedActivations q;
    q.rows = rows;
    q.cols = pool.cols;
    q.scale = pool.scale;
    std::size_t r = first_row;
    for (std::size_t i = 0; i < rows; ++i) {
      q.codes.insert(q.codes.end(), pool.row(r), pool.row(r) + pool.cols);
      r = (r + 1) % pool.rows;
    }
    return amm.apply_int16(q);
  }
};

/// Reference decode of one canonical request on an arbitrary bank.
std::vector<std::int16_t> decode_on(const RolloutFixture& f,
                                    const maddness::Amm& bank,
                                    std::size_t id) {
  maddness::QuantizedActivations q;
  q.rows = 1;
  q.cols = f.pool.cols;
  q.scale = f.pool.scale;
  q.codes = f.codes_for(id);
  return bank.apply_int16(q);
}

// ---------------------------------------------------------------------
// Journal compaction (satellite): virtual addressing, acked-prefix
// bound, reopen continuity.
// ---------------------------------------------------------------------

TEST(JournalCompaction, PrunesOnlyAckedPrefixAndKeepsVirtualAddressing) {
  TmpDir dir("compact");
  const std::string path = dir.file("wal.jnl");
  recovery::RequestJournal jnl(path);
  EXPECT_EQ(jnl.compact(~0ull), 0u);  // empty journal: nothing to prune

  // Six accepts (seq 1..6), completions for every id but 5 (seq 7..11).
  for (std::uint64_t id = 1; id <= 6; ++id)
    jnl.append_accepted(id, "m", 1, 1, {1, 2, 3, 4});
  for (std::uint64_t id = 1; id <= 6; ++id)
    if (id != 5) jnl.append_completed(id, 0, 0xabcu);
  ASSERT_EQ(jnl.durable_seq(), 11u);
  const std::uint64_t vbytes = jnl.durable_bytes();
  const std::uint64_t physical_before = slurp(path).size();

  // A bound below the acked prefix prunes exactly to the bound...
  EXPECT_EQ(jnl.compact(2), 2u);
  EXPECT_EQ(jnl.compaction_info().base_seq, 2u);
  // ...and an unbounded pass stops at the unacknowledged accept (id 5,
  // seq 5): records past it survive even though some are acked.
  EXPECT_EQ(jnl.compact(~0ull), 2u);
  EXPECT_EQ(jnl.compaction_info().base_seq, 4u);
  EXPECT_GE(jnl.compaction_info().generation, 2u);

  // Virtual addressing is untouched; the physical file shrank.
  EXPECT_EQ(jnl.durable_seq(), 11u);
  EXPECT_EQ(jnl.durable_bytes(), vbytes);
  EXPECT_LT(slurp(path).size(), physical_before);

  auto replay = recovery::RequestJournal::read(path);
  EXPECT_EQ(replay.compacted_through, 4u);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.unacknowledged.size(), 1u);
  EXPECT_EQ(replay.unacknowledged[0].id, 5u);

  // Acking id 5 makes the whole journal prunable; appends continue the
  // virtual sequence afterwards.
  jnl.append_completed(5, 0, 0xdeadu);  // seq 12
  EXPECT_EQ(jnl.compact(~0ull), 8u);    // seq 5..12
  EXPECT_EQ(jnl.compaction_info().base_seq, 12u);
  EXPECT_EQ(jnl.append_accepted(7, "m", 1, 1, {9, 9, 9, 9}), 13u);
  auto r2 = recovery::RequestJournal::read(path);
  EXPECT_EQ(r2.compacted_through, 12u);
  ASSERT_EQ(r2.unacknowledged.size(), 1u);
  EXPECT_EQ(r2.unacknowledged[0].id, 7u);
}

TEST(JournalCompaction, ReopenContinuesCompactedAddressing) {
  TmpDir dir("compact-reopen");
  const std::string path = dir.file("wal.jnl");
  std::uint64_t vbytes = 0;
  {
    recovery::RequestJournal jnl(path);
    for (std::uint64_t id = 1; id <= 4; ++id)
      jnl.append_accepted(id, "m", 1, 1, {1, 2, 3, 4});
    for (std::uint64_t id = 1; id <= 4; ++id)
      jnl.append_completed(id, 0, 0xfeedu);
    EXPECT_EQ(jnl.compact(~0ull), 8u);
    vbytes = jnl.durable_bytes();
  }
  recovery::RequestJournal jnl(path);
  EXPECT_EQ(jnl.durable_seq(), 8u);
  EXPECT_EQ(jnl.durable_bytes(), vbytes);
  EXPECT_EQ(jnl.compaction_info().base_seq, 8u);
  EXPECT_EQ(jnl.append_accepted(9, "m", 1, 1, {5, 5, 5, 5}), 9u);
  auto replay = recovery::RequestJournal::read(path);
  EXPECT_EQ(replay.compacted_through, 8u);
  ASSERT_EQ(replay.unacknowledged.size(), 1u);
  EXPECT_EQ(replay.unacknowledged[0].id, 9u);
}

// ---------------------------------------------------------------------
// Shadow executor exactness: an identical staged bank must shadow with
// zero drift at zero tolerance (the dequantize/requantize round trip is
// exact), and the passed budget auto-promotes it.
// ---------------------------------------------------------------------

TEST(Rollout, ShadowOfIdenticalStagedBankIsDriftFreeAndPromotes) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  RolloutFixture f = RolloutFixture::make();
  ServerOptions opts;
  opts.num_workers = 1;
  InferenceServer server(opts);
  ASSERT_EQ(server.register_model("m", f.amm), 1u);
  const std::uint64_t staged = server.stage_model("m", f.amm.save_string());
  ASSERT_EQ(staged, 2u);
  EXPECT_EQ(server.registry().latest_version("m"), 1u);  // staged != live

  rollout::RolloutOptions ropts;
  ropts.seed = seed;
  ropts.min_shadow_rows = 16;
  ropts.drift_tolerance = 0;
  ropts.error_budget = 0.0;
  rollout::RolloutManager mgr(server, ropts);
  mgr.shadow_existing("m", staged);
  mgr.start();

  // Pump until the verdict; both banks are the same blob, so every
  // response is bit-exact against the fixture regardless of version.
  std::size_t i = 0;
  while (mgr.report("m").state == rollout::RolloutState::kShadowing &&
         i < 4000) {
    const InferenceResult r =
        server.submit("m@latest", f.codes_for(i), 1).get();
    EXPECT_EQ(r.outputs, f.expected(i % f.pool.rows, 1));
    ++i;
  }
  ASSERT_EQ(mgr.wait_for_decision("m", 10000ms),
            rollout::RolloutState::kPromoted);
  const rollout::RolloutReport rep = mgr.report("m");
  EXPECT_EQ(rep.drift_rows, 0u);
  EXPECT_EQ(rep.max_abs_drift, 0);
  EXPECT_GE(rep.shadow_rows, ropts.min_shadow_rows);
  EXPECT_EQ(server.registry().latest_version("m"), 2u);

  // The mirrored comparisons landed in the metrics sink.
  const MetricsSnapshot ms = server.metrics();
  ASSERT_EQ(ms.shadow.size(), 1u);
  EXPECT_EQ(ms.shadow[0].model, "m");
  EXPECT_EQ(ms.shadow[0].rows, rep.shadow_rows);
  EXPECT_EQ(ms.shadow[0].drift_rows, 0u);
  EXPECT_GT(ms.shadow[0].shadow_ns_sum, 0.0);

  server.shutdown();
  mgr.stop();
}

// ---------------------------------------------------------------------
// Traffic reservoir: bounded memory, seed-deterministic sampling. The
// rows are offered through the tap directly (no controller racing the
// feed), then the controller retrains — same seed and same row stream
// must stage a byte-identical candidate.
// ---------------------------------------------------------------------

namespace {
std::string staged_blob_after_direct_feed(const RolloutFixture& f,
                                          std::uint64_t seed,
                                          std::uint64_t* candidate_version) {
  ServerOptions opts;
  opts.num_workers = 1;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  rollout::RolloutOptions ropts;
  ropts.seed = seed;
  ropts.reservoir_rows = 64;
  ropts.min_train_rows = 64;
  rollout::RolloutManager mgr(server, ropts);
  mgr.manage("m", f.weights, f.cfg);

  // 200 rows through the tap in ragged batches: Algorithm R consumes
  // one RNG draw per post-warmup row, so batch boundaries don't matter.
  engine::ModelRef live = server.registry().resolve("m", 1);
  const std::size_t kRows = 200, kBatch = 7;
  std::size_t fed = 0;
  while (fed < kRows) {
    const std::size_t rows = std::min(kBatch, kRows - fed);
    maddness::QuantizedActivations q;
    q.rows = rows;
    q.cols = f.pool.cols;
    q.scale = f.pool.scale;
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t pr = (fed + r) % f.pool.rows;
      q.codes.insert(q.codes.end(), f.pool.row(pr),
                     f.pool.row(pr) + f.pool.cols);
    }
    const std::vector<std::int16_t> outs(rows * 8, 0);
    mgr.on_batch(*live, q, outs, 1000.0);
    fed += rows;
  }
  {
    const rollout::RolloutReport rep = mgr.report("m");
    EXPECT_EQ(rep.seen_rows, kRows);
    EXPECT_EQ(rep.sampled_rows, ropts.reservoir_rows);  // bounded
  }

  // Now spawn the controller: it retrains from the frozen reservoir and
  // stages the candidate.
  mgr.start();
  std::string blob;
  for (int spin = 0; spin < 10000 && blob.empty(); ++spin) {
    const rollout::RolloutReport rep = mgr.report("m");
    if (rep.state == rollout::RolloutState::kShadowing) {
      *candidate_version = rep.candidate_version;
      blob = server.registry().resolve("m", rep.candidate_version)->blob();
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_FALSE(blob.empty());
  server.shutdown();
  mgr.stop();
  return blob;
}
}  // namespace

TEST(Rollout, ReservoirIsDeterministicAndBounded) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  RolloutFixture f = RolloutFixture::make();
  std::uint64_t v1 = 0, v2 = 0;
  const std::string b1 = staged_blob_after_direct_feed(f, seed, &v1);
  const std::string b2 = staged_blob_after_direct_feed(f, seed, &v2);
  EXPECT_EQ(v1, 2u);
  EXPECT_EQ(v2, 2u);
  // Same seed + same traffic -> byte-identical staged candidate.
  EXPECT_EQ(b1, b2);
}

// ---------------------------------------------------------------------
// End-to-end: serve -> sample -> retrain -> stage -> shadow ->
// auto-promote, with zero request loss, in-flight bit-exactness on the
// old bank, and a durable (restart-surviving) promotion.
// ---------------------------------------------------------------------

TEST(Rollout, EndToEndRetrainShadowAutoPromoteSurvivesRestart) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  RolloutFixture f = RolloutFixture::make();
  TmpDir dir("rollout-e2e");
  recovery::CheckpointManager ckpts(dir.file("ckpts"));
  recovery::RequestJournal journal(dir.file("wal.jnl"));
  ServerOptions opts;
  opts.num_workers = 1;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  rollout::RolloutOptions ropts;
  ropts.seed = seed;
  ropts.reservoir_rows = 96;
  ropts.min_train_rows = 96;
  ropts.min_shadow_rows = 24;
  // A genuinely retrained candidate has fresh hash trees, so its
  // outputs legitimately differ from the live bank's: this test gates
  // the promotion *mechanics*, with the drift gate wide open. The
  // drift-gated verdicts are covered by the identical-bank and
  // injected-drift tests.
  ropts.drift_tolerance = std::numeric_limits<std::int16_t>::max();
  ropts.error_budget = 1.0;
  rollout::RolloutManager mgr(server, ropts);
  mgr.manage("m", f.weights, f.cfg);
  mgr.start();

  std::size_t submitted = 0, v1_responses = 0, v2_responses = 0;
  auto pump = [&](std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t row = submitted % f.pool.rows;
      const InferenceResult r =
          server.submit("m@latest", f.codes_for(submitted), 1).get();
      if (r.model_version == 1) {
        // Pre-promotion (and in-flight-across-promotion) traffic stays
        // bit-exact on the bank it pinned.
        EXPECT_EQ(r.outputs, f.expected(row, 1));
        ++v1_responses;
      } else {
        EXPECT_EQ(r.model_version, 2u);
        EXPECT_EQ(r.outputs,
                  decode_on(f, server.registry().resolve("m", 2)->amm(),
                            submitted));
        ++v2_responses;
      }
      ++submitted;
    }
  };

  pump(96);  // fill the reservoir
  std::size_t guard = 0;
  while (mgr.report("m").state != rollout::RolloutState::kPromoted &&
         guard++ < 5000)
    pump(1);
  ASSERT_EQ(mgr.wait_for_decision("m", 10000ms),
            rollout::RolloutState::kPromoted);
  EXPECT_EQ(server.registry().latest_version("m"), 2u);
  EXPECT_GE(mgr.report("m").shadow_rows, ropts.min_shadow_rows);
  pump(8);  // post-promotion traffic serves the published candidate
  EXPECT_GT(v1_responses, 0u);
  EXPECT_GT(v2_responses, 0u);

  server.shutdown();
  mgr.stop();

  // The promotion force-checkpointed: a restarted server resolves
  // "@latest" to the promoted version with nothing left to replay.
  const recovery::RecoveredState rs =
      recovery::recover_state(ckpts, journal.path());
  EXPECT_TRUE(rs.journal.unacknowledged.empty());
  ServerOptions ropts2;
  ropts2.num_workers = 1;
  auto restored = InferenceServer::restore(rs, ropts2);
  EXPECT_EQ(restored->registry().latest_version("m"), 2u);
  EXPECT_EQ(restored->submit("m@latest", f.codes_for(0), 1)
                .get()
                .model_version,
            2u);
  restored->shutdown();
}

// ---------------------------------------------------------------------
// Auto-rollback: deterministic injected drift (FaultSite::kShadowCompare)
// blows the error budget; the candidate is discarded, live serving
// never blips, and the retraction is durable.
// ---------------------------------------------------------------------

TEST(Rollout, AutoRollbackOnInjectedDriftKeepsServingLive) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  RolloutFixture f = RolloutFixture::make();
  TmpDir dir("rollout-rb");
  recovery::CheckpointManager ckpts(dir.file("ckpts"));
  recovery::RequestJournal journal(dir.file("wal.jnl"));
  recovery::FaultInjector fault(seed);
  // Every shadow comparison reports a fully-drifted batch — a
  // deterministic model-quality regression.
  fault.arm_named("shadow_drift", 1, /*repeat=*/true);

  ServerOptions opts;
  opts.num_workers = 1;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  rollout::RolloutOptions ropts;
  ropts.seed = seed;
  ropts.reservoir_rows = 96;
  ropts.min_train_rows = 96;
  ropts.min_shadow_rows = 24;
  ropts.drift_tolerance = std::numeric_limits<std::int16_t>::max();
  ropts.error_budget = 0.5;
  ropts.fault = &fault;
  rollout::RolloutManager mgr(server, ropts);
  mgr.manage("m", f.weights, f.cfg);
  mgr.start();

  std::size_t submitted = 0;
  auto pump = [&](std::size_t n) {
    for (std::size_t k = 0; k < n; ++k, ++submitted) {
      const InferenceResult r =
          server.submit("m@latest", f.codes_for(submitted), 1).get();
      EXPECT_EQ(r.model_version, 1u);  // the candidate never publishes
      EXPECT_EQ(r.outputs, f.expected(submitted % f.pool.rows, 1));
    }
  };

  pump(96);
  std::size_t guard = 0;
  while (mgr.report("m").state != rollout::RolloutState::kRolledBack &&
         guard++ < 5000)
    pump(1);
  ASSERT_EQ(mgr.wait_for_decision("m", 10000ms),
            rollout::RolloutState::kRolledBack);
  const rollout::RolloutReport rep = mgr.report("m");
  EXPECT_EQ(rep.drift_rows, rep.shadow_rows);  // every mirrored row
  EXPECT_GT(rep.drift_fraction, ropts.error_budget);

  // The staged candidate is gone; live serving continues on v1.
  EXPECT_EQ(server.registry().latest_version("m"), 1u);
  EXPECT_EQ(server.registry().try_resolve("m", rep.candidate_version),
            nullptr);
  pump(8);

  server.shutdown();
  mgr.stop();

  // The retraction force-checkpointed: a restart does not resurrect the
  // discarded candidate.
  const recovery::RecoveredState rs =
      recovery::recover_state(ckpts, journal.path());
  ServerOptions ropts2;
  ropts2.num_workers = 1;
  auto restored = InferenceServer::restore(rs, ropts2);
  EXPECT_EQ(restored->registry().latest_version("m"), 1u);
  EXPECT_EQ(restored->registry().try_resolve("m", rep.candidate_version),
            nullptr);
  restored->shutdown();
}

// ---------------------------------------------------------------------
// Admin plane: rollout status / operator overrides / journal compaction
// over the wire, and typed failures when the plane is not wired.
// ---------------------------------------------------------------------

TEST(Rollout, AdminPlaneStatusOverridesAndCompaction) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  RolloutFixture f = RolloutFixture::make();
  TmpDir dir("rollout-admin");
  recovery::CheckpointManager ckpts(dir.file("ckpts"));
  recovery::RequestJournal journal(dir.file("wal.jnl"));
  ServerOptions opts;
  opts.num_workers = 1;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  InferenceServer server(opts);
  server.register_model("m", f.amm);
  const std::uint64_t staged = server.stage_model("m", f.amm.save_string());

  rollout::RolloutOptions ropts;
  ropts.seed = seed;
  ropts.min_shadow_rows = 1u << 20;  // never auto-decides in this test
  rollout::RolloutManager mgr(server, ropts);
  mgr.shadow_existing("m", staged);
  mgr.start();

  net::NetServerOptions nopts;
  net::NetServer net(server, nopts);
  net.set_rollout(&mgr);
  net::NetClient cli;
  cli.connect("127.0.0.1", net.port());

  // Acked traffic so compaction has a prunable prefix.
  for (std::size_t i = 0; i < 8; ++i)
    server.submit("m@latest", f.codes_for(i), 1).get();

  auto admin = [&](std::uint8_t op, const std::string& target) {
    net::AdminRequest req;
    req.correlation_id = 0x5000 + op;
    req.op = op;
    req.target = target;
    cli.send_admin(req);
    net::AdminResponse resp;
    EXPECT_TRUE(cli.recv_admin(&resp));
    EXPECT_EQ(resp.correlation_id, req.correlation_id);
    return resp;
  };

  // op 0: status — all models, then one model.
  net::AdminResponse st = admin(0, "");
  EXPECT_EQ(st.status, 0);
  EXPECT_NE(st.body.find("model=m"), std::string::npos);
  EXPECT_NE(st.body.find("state=shadowing"), std::string::npos);
  st = admin(0, "m");
  EXPECT_EQ(st.status, 0);
  EXPECT_NE(st.body.find("candidate=@2"), std::string::npos);

  // Typed failures: unmanaged target, unknown op.
  EXPECT_NE(admin(0, "nope").status, 0);
  EXPECT_NE(admin(42, "m").status, 0);

  // op 3: compact the journal (8 accepted + 8 completed, all acked). A
  // shard writes a batch's ack records after it fulfils the batch, so
  // the last get() can return before its ack is in the journal.
  for (int i = 0; i < 10000 && journal.durable_seq() < 16; ++i)
    std::this_thread::sleep_for(100us);
  const net::AdminResponse comp = admin(3, "");
  EXPECT_EQ(comp.status, 0);
  EXPECT_GE(comp.arg, 16u);
  EXPECT_GT(journal.compaction_info().base_seq, 0u);

  // op 1: operator force-promote, budget notwithstanding.
  const net::AdminResponse prom = admin(1, "m");
  EXPECT_EQ(prom.status, 0);
  EXPECT_NE(prom.body.find("state=promoted"), std::string::npos);
  EXPECT_EQ(server.registry().latest_version("m"), staged);
  EXPECT_NE(admin(1, "m").status, 0);  // no candidate shadowing anymore

  // Detached plane: rollout ops answer a typed failure, compaction
  // still works (it only needs the inference server).
  net.set_rollout(nullptr);
  EXPECT_NE(admin(0, "").status, 0);
  EXPECT_EQ(admin(3, "").status, 0);

  cli.close();
  net.stop();
  server.shutdown();
  mgr.stop();
}

// ---------------------------------------------------------------------
// Compaction under replication: a caught-up follower keeps streaming
// across a leader compaction (generation reopen), and a fresh follower
// joining a compacted leader adopts the base and ends byte-identical.
// ---------------------------------------------------------------------

TEST(RolloutReplication, MidStreamCompactionKeepsFollowerConsistent) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  RolloutFixture f = RolloutFixture::make();
  TmpDir ldir("compact-lead");
  TmpDir fdir("compact-follow");
  recovery::CheckpointManager ckpts(ldir.file("ckpts"));
  recovery::RequestJournal journal(ldir.file("wal.jnl"));
  replication::ReplicationOptions ropts;
  replication::ReplicationLog repl(journal, &ckpts, ropts);
  ServerOptions opts;
  opts.num_workers = 1;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.replication = &repl;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  replication::ApplierOptions aopts;
  aopts.leader_port = repl.port();
  aopts.dir = fdir.str();
  aopts.server.num_workers = 1;
  replication::ReplicaApplier applier(aopts);
  ASSERT_TRUE(repl.wait_follower(1, 10000ms));

  std::size_t submitted = 0;
  auto pump = [&](std::size_t n) {
    for (std::size_t k = 0; k < n; ++k, ++submitted)
      server.submit("m@latest", f.codes_for(submitted), 1).get();
  };

  pump(8);
  wait_journal_records(journal, 16);  // 8 accepts + 8 completions
  ASSERT_TRUE(applier.wait_caught_up(journal.durable_seq(), 10000ms));
  // The follower is durable; wait for its acks to land on the leader so
  // the compaction horizon deterministically covers everything.
  for (int spin = 0;
       spin < 10000 && repl.stats().replicated_seq < journal.durable_seq();
       ++spin)
    std::this_thread::sleep_for(1ms);
  ASSERT_EQ(repl.stats().replicated_seq, journal.durable_seq());

  // With the follower fully acked, the whole acked prefix is below the
  // compaction horizon.
  const std::uint64_t pruned = server.compact_journal();
  EXPECT_GE(pruned, 16u);
  EXPECT_GT(journal.compaction_info().base_seq, 0u);

  // The stream survives the physical rewrite: the tailer reopens on the
  // generation bump and keeps translating virtual offsets.
  pump(8);
  wait_journal_records(journal, 32);
  ASSERT_TRUE(applier.wait_caught_up(journal.durable_seq(), 10000ms));
  EXPECT_EQ(applier.stats().gap_reconnects, 0u);

  // The follower's journal was never compacted: full history, no base.
  const auto freplay =
      recovery::RequestJournal::read(applier.journal_path());
  EXPECT_EQ(freplay.accepted, 16u);
  EXPECT_EQ(freplay.completed, 16u);
  EXPECT_EQ(freplay.compacted_through, 0u);
  EXPECT_FALSE(freplay.torn_tail);

  applier.stop();
  server.shutdown();
  repl.stop();
}

TEST(RolloutReplication, FreshFollowerAdoptsCompactedBase) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  RolloutFixture f = RolloutFixture::make();
  TmpDir ldir("adopt-lead");
  TmpDir f1dir("adopt-f1");
  TmpDir f2dir("adopt-f2");
  recovery::CheckpointManager ckpts(ldir.file("ckpts"));
  recovery::RequestJournal journal(ldir.file("wal.jnl"));
  replication::ReplicationOptions ropts;
  replication::ReplicationLog repl(journal, &ckpts, ropts);
  ServerOptions opts;
  opts.num_workers = 1;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.replication = &repl;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  replication::ApplierOptions a1;
  a1.leader_port = repl.port();
  a1.dir = f1dir.str();
  a1.server.num_workers = 1;
  replication::ReplicaApplier applier1(a1);
  ASSERT_TRUE(repl.wait_follower(1, 10000ms));

  std::size_t submitted = 0;
  auto pump = [&](std::size_t n) {
    for (std::size_t k = 0; k < n; ++k, ++submitted)
      server.submit("m@latest", f.codes_for(submitted), 1).get();
  };

  pump(8);
  wait_journal_records(journal, 16);
  ASSERT_TRUE(applier1.wait_caught_up(journal.durable_seq(), 10000ms));
  for (int spin = 0;
       spin < 10000 && repl.stats().replicated_seq < journal.durable_seq();
       ++spin)
    std::this_thread::sleep_for(1ms);
  ASSERT_GT(server.compact_journal(), 0u);
  const std::uint64_t base = journal.compaction_info().base_seq;
  ASSERT_GT(base, 0u);
  pump(4);
  wait_journal_records(journal, 24);

  // A fresh follower joining the compacted leader receives the base
  // frame, seeds its empty journal with it, and then the record stream
  // keeps it byte-identical to the leader's physical file.
  replication::ApplierOptions a2;
  a2.leader_port = repl.port();
  a2.dir = f2dir.str();
  a2.server.num_workers = 1;
  replication::ReplicaApplier applier2(a2);
  ASSERT_TRUE(repl.wait_follower(2, 10000ms));
  ASSERT_TRUE(applier2.wait_caught_up(journal.durable_seq(), 10000ms));

  const auto r2 = recovery::RequestJournal::read(applier2.journal_path());
  EXPECT_EQ(r2.compacted_through, base);
  // Only post-base records reached the fresh follower.
  EXPECT_EQ(r2.accepted + r2.completed, journal.durable_seq() - base);
  EXPECT_EQ(slurp(applier2.journal_path()), slurp(journal.path()));

  // And the adopted follower is a real standby: it promotes into a
  // server whose registry serves the leader's model.
  applier1.stop();
  applier2.stop();
  server.shutdown();
  repl.stop();
  auto promoted = applier2.promote();
  EXPECT_EQ(promoted->registry().latest_version("m"), 1u);
  EXPECT_EQ(promoted->submit("m@latest", f.codes_for(0), 1)
                .get()
                .model_version,
            1u);
  promoted->shutdown();
}

}  // namespace
}  // namespace ssma::serve
