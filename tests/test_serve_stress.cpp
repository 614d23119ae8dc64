// Hardened concurrency tests for the serving runtime's moving parts:
// MPMC RequestQueue churn under many producers/consumers with
// randomized close/drain (no request lost or duplicated), the
// recovery requeue path, batcher property tests (budget ceiling, FIFO
// order, per-shard ordering under a live pool), and a full-pool
// bit-exactness run with seed-driven injected delays shaking the
// thread interleavings. Every randomized test derives from one seed
// (SSMA_TEST_SEED to override) that is printed into failure logs.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace ssma::serve {
namespace {

using recovery::FaultInjector;

InferenceRequest make_request(std::uint64_t id, std::size_t rows,
                              std::size_t cols) {
  InferenceRequest req;
  req.id = id;
  req.rows = rows;
  req.codes.assign(rows * cols, static_cast<std::uint8_t>(id & 0xff));
  req.enqueued_at = Clock::now();
  return req;
}

// ----------------------------------------------------------- MPMC churn

TEST(RequestQueueStress, MpmcChurnLosesNothingDuplicatesNothing) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  constexpr int kProducers = 6;
  constexpr int kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 400;
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;

  RequestQueue queue(32);
  std::vector<std::atomic<int>> seen(kTotal);
  for (auto& s : seen) s.store(0);

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&] {
      InferenceRequest req;
      while (queue.pop_wait(&req) == PopStatus::kOk)
        seen[req.id].fetch_add(1, std::memory_order_relaxed);
    });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      Rng rng(seed + static_cast<std::uint64_t>(p));
      for (std::uint64_t k = 0; k < kPerProducer; ++k) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(p) * kPerProducer + k;
        // Mix blocking and non-blocking pushes; a non-blocking one may
        // bounce off a full queue and must then be retried blocking.
        if (rng.next_bool() &&
            push_one(queue, make_request(id, 1, 4), /*blocking=*/false))
          continue;
        ASSERT_TRUE(push_one(queue, make_request(id, 1, 4)));
      }
    });

  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  std::uint64_t lost = 0, duplicated = 0;
  for (std::uint64_t id = 0; id < kTotal; ++id) {
    const int n = seen[id].load();
    lost += n == 0;
    duplicated += n > 1;
  }
  EXPECT_EQ(lost, 0u);
  EXPECT_EQ(duplicated, 0u);
}

TEST(RequestQueueStress, RandomizedCloseDrainsExactlyTheAccepted) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr std::uint64_t kPerProducer = 300;
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;

  // Several rounds with a close racing the producers at a seed-chosen
  // instant: everything accepted must drain, everything rejected must
  // stay rejected — no request may fall between the two sets.
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    RequestQueue queue(16);
    std::vector<std::atomic<int>> consumed(kTotal);
    for (auto& s : consumed) s.store(0);
    std::vector<std::atomic<int>> accepted(kTotal);
    for (auto& s : accepted) s.store(0);

    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c)
      consumers.emplace_back([&] {
        InferenceRequest req;
        while (queue.pop_wait(&req) == PopStatus::kOk)
          consumed[req.id].fetch_add(1, std::memory_order_relaxed);
      });

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p)
      producers.emplace_back([&, p] {
        for (std::uint64_t k = 0; k < kPerProducer; ++k) {
          const std::uint64_t id =
              static_cast<std::uint64_t>(p) * kPerProducer + k;
          if (push_one(queue, make_request(id, 1, 4)))
            accepted[id].store(1, std::memory_order_relaxed);
        }
      });

    Rng rng(seed + static_cast<std::uint64_t>(round) * 1315423911u);
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng.next_below(2000)));
    queue.close();
    for (auto& t : producers) t.join();
    for (auto& t : consumers) t.join();

    for (std::uint64_t id = 0; id < kTotal; ++id)
      ASSERT_EQ(consumed[id].load(), accepted[id].load())
          << "request " << id
          << (accepted[id].load() ? " was accepted but never drained"
                                  : " was rejected but still served");
  }
}

TEST(RequestQueueStress, RequeueFrontBypassesCapacityAndKeepsOrder) {
  RequestQueue queue(2);
  ASSERT_TRUE(push_one(queue, make_request(10, 1, 4)));
  ASSERT_TRUE(push_one(queue, make_request(11, 1, 4)));
  EXPECT_FALSE(push_one(queue, make_request(12, 1, 4),
                        /*blocking=*/false));  // full

  // A crashed shard's batch goes back to the head, above capacity,
  // even after close().
  queue.close();
  std::vector<InferenceRequest> orphans;
  orphans.push_back(make_request(1, 1, 4));
  orphans.push_back(make_request(2, 1, 4));
  orphans.push_back(make_request(3, 1, 4));
  queue.requeue_front(std::move(orphans));
  EXPECT_EQ(queue.size(), 5u);

  std::vector<std::uint64_t> order;
  InferenceRequest req;
  while (queue.pop_wait(&req) == PopStatus::kOk) order.push_back(req.id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 10, 11}));
}

// ------------------------------------------------- batcher properties

TEST(BatcherProperty, BudgetCeilingAndGlobalFifoUnderRandomSizes) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  Rng rng(seed);
  constexpr std::uint64_t kRequests = 600;

  BatcherOptions opts;
  opts.max_batch_tokens = 16;
  opts.max_wait = std::chrono::microseconds(0);
  const Batcher batcher(opts);
  RequestQueue queue(64);

  std::thread producer([&] {
    for (std::uint64_t id = 0; id < kRequests; ++id)
      ASSERT_TRUE(
          push_one(queue, make_request(id, 1 + rng.next_below(12), 4)));
    queue.close();
  });

  // Single consumer: batches must preserve global FIFO id order and
  // never exceed the budget unless a single oversized request forces a
  // batch of one.
  std::uint64_t expect_id = 0;
  for (;;) {
    Batch batch = batcher.next_batch(queue);
    if (batch.empty()) break;
    if (batch.tokens > batcher.budget_tokens()) {
      EXPECT_EQ(batch.requests.size(), 1u)
          << "over-budget batch was not a lone oversized request";
    }
    for (const InferenceRequest& req : batch.requests)
      EXPECT_EQ(req.id, expect_id++) << "FIFO order violated";
  }
  producer.join();
  EXPECT_EQ(expect_id, kRequests);
}

TEST(BatcherProperty, PerShardFifoUnderLivePool) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();

  ServerOptions opts;
  opts.num_workers = 3;
  opts.batcher.max_batch_tokens = 8;
  opts.batcher.max_wait = std::chrono::microseconds(50);
  InferenceServer server(default_registry(f.amm), opts);

  // One client submits in id order, so within any one shard the
  // completion times must be monotonic in id (batches are formed FIFO
  // and executed serially per shard).
  constexpr std::size_t kRequests = 150;
  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < kRequests; ++id)
    futs.push_back(server.submit("default", f.codes_for(id), 1));

  std::map<int, Clock::time_point> last_done;
  for (std::size_t id = 0; id < futs.size(); ++id) {
    const InferenceResult res = futs[id].get();
    EXPECT_EQ(res.outputs, f.expected(id % f.pool.rows, 1));
    const auto it = last_done.find(res.worker_id);
    if (it != last_done.end()) {
      EXPECT_LE(it->second, res.completed_at)
          << "shard " << res.worker_id
          << " completed request " << id << " before an earlier one";
    }
    last_done[res.worker_id] = res.completed_at;
  }
  server.shutdown();
  EXPECT_EQ(server.metrics().requests, kRequests);
}

// --------------------------------- full pool under seed-driven chaos

TEST(ServeStress, InjectedDelaysShakeInterleavingsBitExact) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();

  // Seed-derived delay faults at the queue-push and batch-formed sites
  // reshuffle producer/consumer interleavings deterministically.
  FaultInjector fault(seed);
  fault.arm_random_delays(/*count=*/24, /*max_fire_at=*/200,
                          std::chrono::microseconds(800));

  ServerOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = 32;
  opts.batcher.max_batch_tokens = 8;
  opts.batcher.max_wait = std::chrono::microseconds(100);
  opts.recovery.fault = &fault;
  InferenceServer server(default_registry(f.amm), opts);

  constexpr int kClients = 4;
  constexpr std::size_t kPerClient = 60;
  struct Issued {
    std::future<InferenceResult> fut;
    std::size_t first_row;
    std::size_t rows;
  };
  std::vector<std::vector<Issued>> issued(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      Rng rng(seed + 1000 + static_cast<std::uint64_t>(c));
      for (std::size_t k = 0; k < kPerClient; ++k) {
        const std::size_t rows = 1 + rng.next_below(4);
        const std::size_t first = rng.next_below(f.pool.rows);
        std::vector<std::uint8_t> codes;
        std::size_t r = first;
        for (std::size_t i = 0; i < rows; ++i) {
          codes.insert(codes.end(), f.pool.row(r),
                       f.pool.row(r) + f.pool.cols);
          r = (r + 1) % f.pool.rows;
        }
        issued[static_cast<std::size_t>(c)].push_back(
            {server.submit("default", std::move(codes), rows), first, rows});
      }
    });
  for (auto& t : clients) t.join();

  std::size_t checked = 0;
  for (auto& shard : issued)
    for (Issued& is : shard) {
      const InferenceResult res = is.fut.get();
      ASSERT_EQ(res.rows, is.rows);
      EXPECT_EQ(res.outputs, f.expected(is.first_row, is.rows))
          << "served output diverged under injected delays";
      checked++;
    }
  EXPECT_EQ(checked, kClients * kPerClient);
  EXPECT_GT(fault.fired(), 0u) << "chaos run injected no delays";
  server.shutdown();
  EXPECT_EQ(server.metrics().requests, kClients * kPerClient);
}

}  // namespace
}  // namespace ssma::serve
