// Tests for the batched serving runtime on the v2 Engine API:
// queue/batcher mechanics (including model-handle batching), the
// central bit-exactness contract (threaded InferenceServer results ==
// single-threaded Amm::apply_int16 for every request, under 4+ workers
// and randomized multi-client arrival order), the engine-backend matrix
// (kernel / simulate+PPA / device-paced), batches that close at
// max_wait on shard threads with a small timer slack, multi-model
// serving with per-model metrics, operator save/load round trips,
// backpressure, typed shutdown rejection, and the load generator's two
// arrival models.
#include <gtest/gtest.h>

#include <sys/prctl.h>

#include <atomic>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "core/ppa_report.hpp"
#include "engine/execution_engine.hpp"
#include "engine/model_registry.hpp"
#include "maddness/amm.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"
#include "serve/metrics.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ssma::serve {
namespace {

/// A small trained operator + a quantized request pool, shared by tests.
struct Fixture {
  maddness::Amm amm;
  maddness::QuantizedActivations pool;

  static Fixture make(int ncodebooks = 4, int nout = 8,
                      std::size_t pool_rows = 256) {
    Rng rng(7);
    const std::size_t d = static_cast<std::size_t>(ncodebooks) * 9;
    Matrix train(512, d);
    for (std::size_t i = 0; i < train.size(); ++i)
      train.data()[i] = static_cast<float>(rng.next_double(0, 220));
    Matrix w(d, static_cast<std::size_t>(nout));
    for (std::size_t i = 0; i < w.size(); ++i)
      w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));

    maddness::Config cfg;
    cfg.ncodebooks = ncodebooks;
    Fixture f{maddness::Amm::train(cfg, train, w), {}};

    Matrix fresh(pool_rows, d);
    for (std::size_t i = 0; i < fresh.size(); ++i)
      fresh.data()[i] = static_cast<float>(rng.next_double(0, 220));
    f.pool =
        maddness::quantize_activations(fresh, f.amm.activation_scale());
    return f;
  }

  /// Reference outputs for a row slice of the pool (with wraparound).
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

InferenceRequest make_request(std::uint64_t id, std::size_t rows,
                              std::size_t cols) {
  InferenceRequest req;
  req.id = id;
  req.rows = rows;
  req.codes.assign(rows * cols, static_cast<std::uint8_t>(id & 0xff));
  req.enqueued_at = Clock::now();
  return req;
}

// ---------------------------------------------------------------- queue

TEST(RequestQueue, FifoAndClose) {
  RequestQueue q(8);
  EXPECT_TRUE(q.push(make_request(1, 1, 4)));
  EXPECT_TRUE(q.push(make_request(2, 1, 4)));
  InferenceRequest out;
  ASSERT_EQ(q.pop_wait(&out), PopStatus::kOk);
  EXPECT_EQ(out.id, 1u);
  q.close();
  EXPECT_FALSE(q.push(make_request(3, 1, 4)));
  ASSERT_EQ(q.pop_wait(&out), PopStatus::kOk);  // drains the remainder
  EXPECT_EQ(out.id, 2u);
  EXPECT_EQ(q.pop_wait(&out), PopStatus::kClosed);
}

TEST(RequestQueue, TryPushRespectsCapacity) {
  RequestQueue q(2);
  EXPECT_TRUE(q.try_push(make_request(1, 1, 4)));
  EXPECT_TRUE(q.try_push(make_request(2, 1, 4)));
  EXPECT_FALSE(q.try_push(make_request(3, 1, 4)));
  EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueue, PopCompatibleReportsOversizedHead) {
  RequestQueue q(4);
  EXPECT_TRUE(q.push(make_request(1, 10, 4)));
  InferenceRequest out;
  EXPECT_EQ(q.pop_compatible(5, Clock::now() + std::chrono::seconds(1),
                             &out),
            PopStatus::kWouldExceed);
  EXPECT_EQ(q.pop_compatible(10, Clock::now() + std::chrono::seconds(1),
                             &out),
            PopStatus::kOk);
  // Empty queue + short deadline -> timeout.
  EXPECT_EQ(q.pop_compatible(
                10, Clock::now() + std::chrono::milliseconds(1), &out),
            PopStatus::kTimeout);
}

// -------------------------------------------------------------- batcher

TEST(Batcher, CoalescesUpToTokenBudget) {
  RequestQueue q(64);
  for (std::uint64_t i = 0; i < 10; ++i)
    ASSERT_TRUE(q.push(make_request(i, 3, 4)));
  q.close();

  BatcherOptions opts;
  opts.max_batch_tokens = 8;  // fits two 3-row requests
  opts.max_wait = std::chrono::microseconds(0);
  const Batcher batcher(opts);

  std::vector<std::size_t> sizes;
  std::uint64_t expect_id = 0;
  for (;;) {
    Batch b = batcher.next_batch(q);
    if (b.empty()) break;
    sizes.push_back(b.tokens);
    for (const InferenceRequest& r : b.requests)
      EXPECT_EQ(r.id, expect_id++) << "FIFO order violated";
    EXPECT_LE(b.tokens, opts.max_batch_tokens);
  }
  EXPECT_EQ(expect_id, 10u);
  EXPECT_EQ(sizes.size(), 5u);  // 10 requests, 2 per batch
}

TEST(Batcher, OversizedRequestServedAlone) {
  RequestQueue q(4);
  ASSERT_TRUE(q.push(make_request(0, 100, 4)));
  ASSERT_TRUE(q.push(make_request(1, 1, 4)));
  q.close();

  BatcherOptions opts;
  opts.max_batch_tokens = 8;
  opts.max_wait = std::chrono::microseconds(0);
  const Batcher batcher(opts);
  Batch b = batcher.next_batch(q);
  ASSERT_EQ(b.requests.size(), 1u);
  EXPECT_EQ(b.tokens, 100u);
  b = batcher.next_batch(q);
  ASSERT_EQ(b.requests.size(), 1u);
  EXPECT_EQ(b.tokens, 1u);
}

TEST(Batcher, ModelAffineCoalescingNeverMixesOrFragments) {
  // Interleaved two-model traffic: batches must be single-model, full
  // (affine pulls past the other model's requests), and per-model FIFO.
  const Fixture f = Fixture::make();
  const engine::ModelRef ma = engine::ModelHandle::from_amm("a", 1, f.amm);
  const engine::ModelRef mb = engine::ModelHandle::from_amm("b", 1, f.amm);

  RequestQueue q(64);
  for (std::uint64_t i = 0; i < 12; ++i) {
    InferenceRequest req = make_request(i, 2, 4);
    req.model = (i % 2 == 0) ? ma : mb;
    ASSERT_TRUE(q.push(std::move(req)));
  }
  q.close();

  BatcherOptions opts;
  opts.max_batch_tokens = 6;  // three 2-row requests per batch
  opts.max_wait = std::chrono::microseconds(0);
  const Batcher batcher(opts);

  std::uint64_t next_a = 0, next_b = 1;
  std::size_t batches = 0;
  for (;;) {
    Batch b = batcher.next_batch(q);
    if (b.empty()) break;
    batches++;
    EXPECT_EQ(b.tokens, 6u) << "affine batch under-filled";
    const void* key = b.requests.front().model.get();
    for (const InferenceRequest& r : b.requests) {
      EXPECT_EQ(r.model.get(), key) << "batch mixed model handles";
      std::uint64_t& next = key == ma.get() ? next_a : next_b;
      EXPECT_EQ(r.id, next) << "per-model FIFO violated";
      next += 2;
    }
  }
  EXPECT_EQ(batches, 4u);  // 12 requests, 3 per batch, never mixed
  EXPECT_EQ(next_a, 12u);
  EXPECT_EQ(next_b, 13u);
}

TEST(Batcher, AlignmentRoundsBudgetDown) {
  BatcherOptions opts;
  opts.max_batch_tokens = 30;
  opts.align_tokens = 8;
  EXPECT_EQ(Batcher(opts).budget_tokens(), 24u);
  opts.max_batch_tokens = 5;  // smaller than alignment
  EXPECT_EQ(Batcher(opts).budget_tokens(), 8u);
}

// -------------------------------------------------------------- metrics

TEST(LatencyHistogram, PercentilesWithinBucketError) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i) * 1e3);
  // Geometric buckets at ratio 1.12 -> <= ~12% relative error.
  EXPECT_NEAR(h.percentile_ns(50), 500e3, 500e3 * 0.13);
  EXPECT_NEAR(h.percentile_ns(99), 990e3, 990e3 * 0.13);
  EXPECT_DOUBLE_EQ(h.max_ns(), 1000e3);
  EXPECT_NEAR(h.mean_ns(), 500.5e3, 1.0);

  LatencyHistogram other;
  other.add(2e6);
  h.merge(other);
  EXPECT_EQ(h.count(), 1001u);
  EXPECT_DOUBLE_EQ(h.max_ns(), 2e6);
}

TEST(Metrics, CountsAndRates) {
  Metrics m;
  m.mark_start();
  m.record_batch("a", 6, {1e3, 2e3}, {5e3, 6e3});
  m.record_batch("b", 2, {1e3}, {2e3});
  m.mark_stop();
  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.requests, 3u);
  EXPECT_EQ(s.tokens, 8u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_DOUBLE_EQ(s.mean_batch_tokens, 4.0);
  EXPECT_GT(s.wall_seconds, 0.0);
  EXPECT_GT(s.tokens_per_sec, 0.0);

  // Per-model slices: one row per name, sorted, counters partitioned.
  ASSERT_EQ(s.per_model.size(), 2u);
  EXPECT_EQ(s.per_model[0].model, "a");
  EXPECT_EQ(s.per_model[0].requests, 2u);
  EXPECT_EQ(s.per_model[0].tokens, 6u);
  ASSERT_NE(s.for_model("b"), nullptr);
  EXPECT_EQ(s.for_model("b")->requests, 1u);
  EXPECT_EQ(s.for_model("nope"), nullptr);
}

// ------------------------------------------------- the central contract

TEST(InferenceServer, BitExactUnderWorkersAndRandomArrival) {
  const Fixture f = Fixture::make();
  ServerOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = 64;
  opts.batcher.max_batch_tokens = 16;
  opts.batcher.max_wait = std::chrono::microseconds(100);
  InferenceServer server(opts);
  EXPECT_EQ(server.register_model("m", f.amm), 1u);

  // 4 client threads, each submitting a shuffled shard of the id space
  // with variable request sizes — arrival order is fully randomized.
  constexpr std::size_t kIds = 240;
  struct Issued {
    std::future<InferenceResult> fut;
    std::size_t first_row;
    std::size_t rows;
  };
  std::vector<std::vector<Issued>> issued(4);
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + static_cast<std::uint64_t>(c));
      const auto order = rng.permutation(kIds / 4);
      for (const std::size_t k : order) {
        const std::size_t id = static_cast<std::size_t>(c) * (kIds / 4) + k;
        const std::size_t rows = 1 + id % 5;
        const std::size_t first = (id * 7) % f.pool.rows;
        std::vector<std::uint8_t> codes;
        std::size_t r = first;
        for (std::size_t i = 0; i < rows; ++i) {
          codes.insert(codes.end(), f.pool.row(r),
                       f.pool.row(r) + f.pool.cols);
          r = (r + 1) % f.pool.rows;
        }
        issued[static_cast<std::size_t>(c)].push_back(
            {server.submit("m", std::move(codes), rows), first, rows});
      }
    });
  }
  for (std::thread& t : clients) t.join();

  std::set<int> workers_seen;
  std::size_t checked = 0;
  for (std::vector<Issued>& shard : issued)
    for (Issued& is : shard) {
      const InferenceResult res = is.fut.get();
      workers_seen.insert(res.worker_id);
      ASSERT_EQ(res.rows, is.rows);
      EXPECT_EQ(res.outputs, f.expected(is.first_row, is.rows))
          << "served output differs from Amm::apply_int16";
      checked++;
    }
  EXPECT_EQ(checked, kIds);
  EXPECT_GE(workers_seen.size(), 1u);

  server.shutdown();
  const MetricsSnapshot s = server.metrics();
  EXPECT_EQ(s.requests, kIds);
  EXPECT_GT(s.mean_batch_tokens, 0.0);
}

TEST(InferenceServer, SimulateModeBitExactWithPpaAggregation) {
  const Fixture f = Fixture::make(4, 8, 64);
  ServerOptions opts;
  opts.num_workers = 4;
  opts.engine.backend = engine::Backend::kSimulate;
  opts.engine.accel.ndec = 8;  // forces lane tiling (8 outs in 1 pass)
  opts.engine.accel.ns = 4;    // same for codebooks
  opts.batcher.max_batch_tokens = 8;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < 24; ++id)
    futs.push_back(server.submit(
        "m@latest",
        std::vector<std::uint8_t>(f.pool.row(id % f.pool.rows),
                                  f.pool.row(id % f.pool.rows) +
                                      f.pool.cols),
        1));
  for (std::size_t id = 0; id < futs.size(); ++id)
    EXPECT_EQ(futs[id].get().outputs, f.expected(id % f.pool.rows, 1))
        << "simulated macro output differs from Amm::apply_int16";

  server.shutdown();
  const core::PpaReport agg = server.aggregate_report();
  EXPECT_GT(agg.total_ops, 0);
  EXPECT_GT(agg.events, 0u);
  EXPECT_GT(agg.energy_per_op_fj, 0.0);
  EXPECT_GT(agg.throughput_tops, 0.0);
  // Shards that served tokens contribute; the pool serves all 24.
  std::size_t total_tokens = 0;
  for (const std::size_t t : server.shard_tokens()) total_tokens += t;
  EXPECT_EQ(total_tokens, 24u);

  // Every shard's macro contributes its silicon — even one that never
  // received a batch — and the config echo survives idle shards.
  core::Accelerator one(opts.engine.accel);
  EXPECT_NEAR(agg.core_mm2, 4.0 * one.analytic_report(0).core_mm2,
              1e-12);
  EXPECT_EQ(agg.ndec, opts.engine.accel.ndec);
  EXPECT_EQ(agg.ns, opts.engine.accel.ns);
}

TEST(InferenceServer, IdleShardsStillContributeSiliconToAggregate) {
  const Fixture f = Fixture::make(4, 8, 16);
  ServerOptions opts;
  opts.num_workers = 4;
  opts.engine.backend = engine::Backend::kSimulate;
  opts.engine.accel.ns = 4;
  opts.engine.accel.ndec = 8;
  InferenceServer server(opts);
  server.register_model("m", f.amm);
  // One request: at most one shard does work, three stay idle.
  auto fut = server.submit(
      "m",
      std::vector<std::uint8_t>(f.pool.row(0), f.pool.row(0) + f.pool.cols),
      1);
  EXPECT_EQ(fut.get().outputs, f.expected(0, 1));
  server.shutdown();

  const core::PpaReport agg = server.aggregate_report();
  core::Accelerator one(opts.engine.accel);
  EXPECT_NEAR(agg.core_mm2, 4.0 * one.analytic_report(0).core_mm2, 1e-12);
  EXPECT_EQ(agg.ndec, opts.engine.accel.ndec);
  EXPECT_GT(agg.total_ops, 0);  // the busy shard's work is still there
}

TEST(InferenceServer, DevicePacedBitExactAndEnforcesServiceTime) {
  const Fixture f = Fixture::make();
  ServerOptions opts;
  opts.num_workers = 1;
  opts.engine.backend = engine::Backend::kDevicePaced;
  opts.engine.device_ns_per_token = 100'000.0;  // 100 us per token
  opts.batcher.max_batch_tokens = 8;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  const Clock::time_point t0 = Clock::now();
  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < 32; ++id)
    futs.push_back(server.submit(
        "m",
        std::vector<std::uint8_t>(f.pool.row(id % f.pool.rows),
                                  f.pool.row(id % f.pool.rows) +
                                      f.pool.cols),
        1));
  for (std::size_t id = 0; id < futs.size(); ++id)
    EXPECT_EQ(futs[id].get().outputs, f.expected(id % f.pool.rows, 1));
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();
  // One device serving 32 tokens at 100 us each cannot finish faster
  // than the modeled service time.
  EXPECT_GE(wall, 32 * 100e-6);
}

TEST(InferenceServer, PacingForcesWorkAcrossMultipleShards) {
  const Fixture f = Fixture::make();
  ServerOptions opts;
  opts.num_workers = 4;
  opts.engine.backend = engine::Backend::kDevicePaced;
  opts.engine.device_ns_per_token = 100'000.0;
  opts.batcher.max_batch_tokens = 4;
  opts.batcher.max_wait = std::chrono::microseconds(0);
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  // While one shard's device is busy (sleeping), queued requests must
  // wake the parked shards — a single worker draining everything would
  // mean the pool isn't actually sharing load.
  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < 48; ++id)
    futs.push_back(server.submit(
        "m",
        std::vector<std::uint8_t>(f.pool.row(id % f.pool.rows),
                                  f.pool.row(id % f.pool.rows) +
                                      f.pool.cols),
        1));
  std::set<int> workers_seen;
  for (std::size_t id = 0; id < futs.size(); ++id) {
    const InferenceResult res = futs[id].get();
    workers_seen.insert(res.worker_id);
    EXPECT_EQ(res.outputs, f.expected(id % f.pool.rows, 1));
  }
  EXPECT_GE(workers_seen.size(), 2u);
}

/// Queue-wait p50 of `n` sequential 1-row requests to a fresh 1-worker
/// server. Each request arrives to an idle shard and alone, so its
/// batch closes on max_wait, never on the token budget.
double sequential_queue_p50_us(const Fixture& f,
                               std::chrono::microseconds max_wait,
                               std::size_t n) {
  ServerOptions opts;
  opts.num_workers = 1;
  opts.batcher.max_wait = max_wait;
  InferenceServer server(opts);
  server.register_model("m", f.amm);
  for (std::size_t id = 0; id < n; ++id) {
    const std::size_t row = id % f.pool.rows;
    std::future<InferenceResult> fut = server.submit(
        "m",
        std::vector<std::uint8_t>(f.pool.row(row),
                                  f.pool.row(row) + f.pool.cols),
        1);
    EXPECT_EQ(fut.get().outputs, f.expected(row, 1));
  }
  server.shutdown();
  return server.metrics().queue_p50_us;
}

TEST(InferenceServer, LoneRequestBatchClosesAtMaxWait) {
  // The baseline (max_wait = 0) is the hand-off from submit to the
  // shard, with whatever a sanitizer or a loaded host adds to it. At
  // max_wait = 100 us a lone request waits that hand-off plus 100 us
  // plus the shard's late wake-up. With Linux's default 50 us timer
  // slack on the shard the wake-up alone ran ~45 us late.
  const Fixture f = Fixture::make();
  constexpr std::size_t kRequests = 300;
  constexpr double kMaxWaitUs = 100.0;
  constexpr double kLateUs = 25.0;
  const double base_us = sequential_queue_p50_us(
      f, std::chrono::microseconds(0), kRequests);
  const double p50_us = sequential_queue_p50_us(
      f, std::chrono::microseconds(100), kRequests);
  RecordProperty("queue_p50_us_at_max_wait_0", std::to_string(base_us));
  RecordProperty("queue_p50_us_at_max_wait_100", std::to_string(p50_us));
  // A lone request's batch never closes before max_wait (the 0.9
  // allows for the histogram's bucket midpoints).
  EXPECT_GE(p50_us, 0.9 * kMaxWaitUs);
  EXPECT_LE(p50_us, kMaxWaitUs + base_us + kLateUs)
      << "batches close late: queue-wait p50 " << p50_us
      << " us at max_wait " << kMaxWaitUs << " us, " << base_us
      << " us at max_wait 0";
}

/// Records the timer slack of the shard thread that ran each batch.
class SlackProbe : public BatchObserver {
 public:
  void on_batch(const engine::ModelHandle&,
                const maddness::QuantizedActivations&,
                const std::vector<std::int16_t>&, double) override {
    const int slack_ns = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    std::lock_guard<std::mutex> lock(mu_);
    slack_ns_.push_back(slack_ns);
  }

  std::vector<int> slack_ns() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slack_ns_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<int> slack_ns_;
};

TEST(InferenceServer, EveryShardThreadRunsWithATimerSlackOfAtMost1Us) {
  const Fixture f = Fixture::make();
  recovery::FaultInjector fault(1);
  recovery::FaultPlan kill;
  kill.site = recovery::FaultSite::kExecute;
  kill.kind = recovery::FaultKind::kKillShard;
  kill.fire_at = 2;  // the second batch kills the shard after running
  fault.arm(kill);
  ServerOptions opts;
  opts.num_workers = 1;
  opts.batcher.max_wait = std::chrono::microseconds(0);
  opts.recovery.fault = &fault;
  opts.recovery.supervise = true;
  InferenceServer server(opts);
  server.register_model("m", f.amm);
  SlackProbe probe;
  server.set_batch_observer(&probe);

  // One request at a time, so each is its own batch. The kill fires
  // before the second batch's observer call, so the first batch is
  // observed on the original shard thread and the other three only on
  // the thread respawned after the kill, which re-executes the second.
  constexpr std::size_t kRequests = 4;
  for (std::size_t id = 0; id < kRequests; ++id) {
    std::future<InferenceResult> fut = server.submit(
        "m",
        std::vector<std::uint8_t>(f.pool.row(id),
                                  f.pool.row(id) + f.pool.cols),
        1);
    EXPECT_EQ(fut.get().outputs, f.expected(id, 1));
  }
  server.shutdown();
  server.set_batch_observer(nullptr);
  EXPECT_EQ(server.respawn_count(), 1);

  const std::vector<int> slack_ns = probe.slack_ns();
  ASSERT_EQ(slack_ns.size(), kRequests);
  for (std::size_t b = 0; b < slack_ns.size(); ++b) {
    EXPECT_GT(slack_ns[b], 0) << "batch " << b;
    EXPECT_LE(slack_ns[b], 1000)
        << "batch " << b << " on the "
        << (b == 0 ? "original" : "respawned") << " shard thread";
  }
}

// ------------------------------------------- replica construction path

TEST(Amm, SaveLoadRoundTripDrivesIdenticalServing) {
  const Fixture f = Fixture::make();

  // Round-trip through the exact blob the worker pool hands its shards.
  const maddness::Amm replica =
      maddness::Amm::load_string(f.amm.save_string());

  EXPECT_EQ(replica.cfg().ncodebooks, f.amm.cfg().ncodebooks);
  EXPECT_FLOAT_EQ(replica.activation_scale(), f.amm.activation_scale());
  EXPECT_EQ(replica.encode(f.pool), f.amm.encode(f.pool));
  EXPECT_EQ(replica.apply_int16(f.pool), f.amm.apply_int16(f.pool));

  // A server built from the replica serves the same bits as one built
  // from the original.
  ServerOptions opts;
  opts.num_workers = 2;
  InferenceServer server(opts);
  server.register_model("replica", replica);
  auto fut = server.submit(
      "replica",
      std::vector<std::uint8_t>(f.pool.row(3), f.pool.row(3) + f.pool.cols),
      1);
  EXPECT_EQ(fut.get().outputs, f.expected(3, 1));
}

// -------------------------------------------------- lifecycle semantics

TEST(InferenceServer, BackpressureTinyQueueStillServesEverything) {
  const Fixture f = Fixture::make();
  ServerOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 2;  // submit() must block and resume
  opts.batcher.max_batch_tokens = 4;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < 64; ++id)
    futs.push_back(server.submit(
        "m",
        std::vector<std::uint8_t>(f.pool.row(id % f.pool.rows),
                                  f.pool.row(id % f.pool.rows) +
                                      f.pool.cols),
        1));
  for (std::size_t id = 0; id < futs.size(); ++id)
    EXPECT_EQ(futs[id].get().outputs, f.expected(id % f.pool.rows, 1));
}

TEST(InferenceServer, SubmitAfterShutdownRejectsWithTypedError) {
  const Fixture f = Fixture::make();
  ServerOptions opts;
  opts.num_workers = 2;
  InferenceServer server(opts);
  server.register_model("m", f.amm);
  server.shutdown();
  server.shutdown();  // idempotent
  auto fut = server.submit(
      "m",
      std::vector<std::uint8_t>(f.pool.row(0), f.pool.row(0) + f.pool.cols),
      1);
  // The rejection is immediate (never blocks on the bounded queue) and
  // typed: clients can distinguish drain from compute faults.
  EXPECT_THROW(fut.get(), ShutdownError);
}

TEST(InferenceServer, SubmitRacingShutdownNeverWedges) {
  // A client hammering submit() while another thread shuts the server
  // down must get served-or-rejected promptly — the bounded-queue push
  // must not park forever on a queue nobody will drain. A tiny queue
  // plus slow device pacing makes admission block mid-run.
  const Fixture f = Fixture::make();
  ServerOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 1;
  opts.engine.backend = engine::Backend::kDevicePaced;
  opts.engine.device_ns_per_token = 200'000.0;
  InferenceServer server(opts);
  server.register_model("m", f.amm);
  const engine::ModelRef model = server.registry().resolve("m");
  std::atomic<std::size_t> outcomes{0};
  std::thread client([&] {
    for (std::size_t id = 0; id < 400; ++id) {
      try {
        auto fut = server.submit(
            model,
            std::vector<std::uint8_t>(f.pool.row(id % f.pool.rows),
                                      f.pool.row(id % f.pool.rows) +
                                          f.pool.cols),
            1);
        fut.get();
      } catch (const std::runtime_error&) {
        // rejected (ShutdownError) or failed at drain: both fine
      }
      outcomes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.shutdown();
  client.join();  // would deadlock before the typed-rejection fix
  EXPECT_EQ(outcomes.load(), 400u);
}

TEST(InferenceServer, SubmitBatchSlicesAMatrix) {
  const Fixture f = Fixture::make();
  ServerOptions opts;
  opts.num_workers = 4;
  InferenceServer server(opts);
  server.register_model("m", f.amm);
  const std::size_t nout = server.registry().resolve("m")->nout();

  maddness::QuantizedActivations q;
  q.rows = 37;  // deliberately not a multiple of the slice size
  q.cols = f.pool.cols;
  q.scale = f.pool.scale;
  for (std::size_t r = 0; r < q.rows; ++r)
    q.codes.insert(q.codes.end(), f.pool.row(r), f.pool.row(r) + f.pool.cols);

  auto futs = server.submit_batch("m", q, 8);
  ASSERT_EQ(futs.size(), 5u);  // 8+8+8+8+5
  const std::vector<std::int16_t> whole = f.amm.apply_int16(q);
  std::size_t row = 0;
  for (auto& fut : futs) {
    const InferenceResult res = fut.get();
    const std::vector<std::int16_t> want(
        whole.begin() + static_cast<std::ptrdiff_t>(row * nout),
        whole.begin() +
            static_cast<std::ptrdiff_t>((row + res.rows) * nout));
    EXPECT_EQ(res.outputs, want);
    row += res.rows;
  }
  EXPECT_EQ(row, q.rows);
}

// ----------------------------------------------- multi-model serving

TEST(InferenceServer, TwoModelsServedConcurrentlyWithPerModelMetrics) {
  // Two differently-shaped models behind one server: requests
  // interleave freely, every response is bit-exact vs its own model's
  // reference, batches never mix models, and the metrics split per
  // model.
  const Fixture fa = Fixture::make(4, 8);
  const Fixture fb = Fixture::make(8, 16, 128);
  ServerOptions opts;
  opts.num_workers = 4;
  opts.batcher.max_batch_tokens = 8;
  InferenceServer server(opts);
  server.register_model("alpha", fa.amm);
  server.register_model("beta", fb.amm);
  EXPECT_EQ(server.registry().num_models(), 2u);

  constexpr std::size_t kPerModel = 60;
  std::vector<std::future<InferenceResult>> fa_futs, fb_futs;
  for (std::size_t id = 0; id < kPerModel; ++id) {
    fa_futs.push_back(server.submit(
        "alpha",
        std::vector<std::uint8_t>(fa.pool.row(id % fa.pool.rows),
                                  fa.pool.row(id % fa.pool.rows) +
                                      fa.pool.cols),
        1));
    fb_futs.push_back(server.submit(
        "beta",
        std::vector<std::uint8_t>(fb.pool.row(id % fb.pool.rows),
                                  fb.pool.row(id % fb.pool.rows) +
                                      fb.pool.cols),
        1));
  }
  for (std::size_t id = 0; id < kPerModel; ++id) {
    const InferenceResult ra = fa_futs[id].get();
    EXPECT_EQ(ra.model, "alpha");
    EXPECT_EQ(ra.model_version, 1u);
    EXPECT_EQ(ra.outputs, fa.expected(id % fa.pool.rows, 1));
    const InferenceResult rb = fb_futs[id].get();
    EXPECT_EQ(rb.model, "beta");
    EXPECT_EQ(rb.outputs, fb.expected(id % fb.pool.rows, 1));
  }
  server.shutdown();

  const MetricsSnapshot s = server.metrics();
  EXPECT_EQ(s.requests, 2 * kPerModel);
  ASSERT_NE(s.for_model("alpha"), nullptr);
  ASSERT_NE(s.for_model("beta"), nullptr);
  EXPECT_EQ(s.for_model("alpha")->requests, kPerModel);
  EXPECT_EQ(s.for_model("beta")->requests, kPerModel);
  EXPECT_GT(s.for_model("alpha")->p50_us, 0.0);
}

TEST(InferenceServer, UnknownModelRefThrowsAtSubmit) {
  const Fixture f = Fixture::make();
  ServerOptions opts;
  opts.num_workers = 1;
  InferenceServer server(opts);
  server.register_model("m", f.amm);
  std::vector<std::uint8_t> codes(f.pool.row(0),
                                  f.pool.row(0) + f.pool.cols);
  EXPECT_THROW(server.submit("nope", codes, 1), CheckError);
  EXPECT_THROW(server.submit("m@7", codes, 1), CheckError);
  EXPECT_THROW(server.submit("m@bogus", codes, 1), CheckError);
  // Shape mismatch is a caller bug, reported synchronously.
  std::vector<std::uint8_t> short_codes(3, 0);
  EXPECT_THROW(server.submit("m", short_codes, 1), CheckError);
}

// ------------------------------------------------------- report merging

TEST(PpaReport, ParallelMergePoolsShards) {
  core::PpaReport a;
  a.ndec = 8;
  a.ns = 4;
  a.total_ops = 1000;
  a.duration_ns = 10.0;
  a.core_mm2 = 0.5;
  a.sram_bits = 1024;
  a.throughput_tops = 2.0;
  a.token_interval_ns = 5.0;
  a.freq_mhz = 200.0;
  a.energy_per_op_fj = 10.0;
  a.energy_decoder_share = 0.6;
  core::PpaReport b = a;
  b.total_ops = 3000;
  b.duration_ns = 30.0;
  b.energy_per_op_fj = 20.0;
  b.energy_decoder_share = 0.8;
  b.token_interval_ns = 10.0;  // a slower shard: freq = 1e3/10
  b.freq_mhz = 100.0;
  b.throughput_tops = 1.0;

  const core::PpaReport m = core::merge_reports({a, b});
  EXPECT_EQ(m.total_ops, 4000);
  EXPECT_DOUBLE_EQ(m.duration_ns, 30.0);           // parallel: max
  EXPECT_DOUBLE_EQ(m.core_mm2, 1.0);               // silicon adds
  EXPECT_EQ(m.sram_bits, 2048);
  EXPECT_DOUBLE_EQ(m.throughput_tops, 3.0);        // engines add
  // Interval is the ops-weighted mean: (1000*5 + 3000*10) / 4000.
  EXPECT_DOUBLE_EQ(m.token_interval_ns, 8.75);
  // Frequency is derived from it, preserving make_report's invariant.
  EXPECT_DOUBLE_EQ(m.freq_mhz, 1e3 / m.token_interval_ns);
  // Energy/op pools: (1000*10 + 3000*20) / 4000 = 17.5.
  EXPECT_DOUBLE_EQ(m.energy_per_op_fj, 17.5);
  EXPECT_DOUBLE_EQ(m.tops_per_w, 1e3 / 17.5);
  // Decoder share weighted by energy: (0.6*10k + 0.8*60k) / 70k.
  EXPECT_NEAR(m.energy_decoder_share, (0.6 * 1e4 + 0.8 * 6e4) / 7e4,
              1e-12);

  const core::PpaReport seq = core::merge_sequential_reports({a, b});
  EXPECT_DOUBLE_EQ(seq.duration_ns, 40.0);         // sequential: sum
  EXPECT_DOUBLE_EQ(seq.core_mm2, 0.5);             // same macro
  EXPECT_DOUBLE_EQ(seq.energy_per_op_fj, 17.5);
  EXPECT_DOUBLE_EQ(seq.token_interval_ns, 8.75);
  EXPECT_DOUBLE_EQ(seq.freq_mhz, 1e3 / seq.token_interval_ns);
  // One macro: throughput re-derives from the merged interval using the
  // config-constant throughput*interval product (= 10 for both parts).
  EXPECT_DOUBLE_EQ(seq.throughput_tops, 10.0 / 8.75);
  EXPECT_EQ(core::merge_reports({}).total_ops, 0);
}

// --------------------------------------------------------- load models

TEST(LoadGenerator, ClosedLoopServesExactlyTheSpec) {
  const Fixture f = Fixture::make();
  ServerOptions opts;
  opts.num_workers = 4;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  LoadSpec spec;
  spec.total_requests = 120;
  spec.rows_per_request = 2;
  EXPECT_THROW(LoadGenerator(f.pool, spec), CheckError)
      << "a spec without a model ref must be refused";
  spec.model_refs = {"m@latest"};
  LoadGenerator gen(f.pool, spec);
  // Payloads are a deterministic function of the request id.
  EXPECT_EQ(gen.request_codes(5), gen.request_codes(5));
  EXPECT_EQ(gen.first_row(3), (3 * 2) % f.pool.rows);

  const LoadReport r = gen.run_closed_loop(server, 4);
  EXPECT_EQ(r.completed, spec.total_requests);
  EXPECT_EQ(r.tokens, spec.total_requests * spec.rows_per_request);
  EXPECT_GT(r.achieved_rps, 0.0);
  EXPECT_GE(r.p99_ms, r.p50_ms);
  EXPECT_NE(r.json().find("\"completed\":120"), std::string::npos);

  server.shutdown();
  EXPECT_EQ(server.metrics().requests, spec.total_requests);
}

}  // namespace
}  // namespace ssma::serve
