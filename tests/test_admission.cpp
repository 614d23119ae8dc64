// Admission-layer tests: per-tenant token buckets (deterministic
// injected clock, refill across tenant churn and LRU eviction),
// priority-watermark load shedding, priority-aware queue ordering, the
// pop_compatible starvation guard (regression for the unbounded
// model-affine skip), deadline handling at batch formation, and the
// typed rejection taxonomy.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "engine/model_registry.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace ssma::serve {
namespace {

using namespace std::chrono_literals;

Clock::time_point t0() {
  static const Clock::time_point t = Clock::now();
  return t;
}

constexpr auto kNoDeadline = Clock::time_point::max();

// ------------------------------------------------------- token bucket

TEST(AdmissionTest, TokenBucketRefillsAtConfiguredRate) {
  AdmissionOptions opts;
  opts.tenants["t"] = TenantConfig{/*tokens_per_sec=*/10.0,
                                   /*burst_tokens=*/20.0,
                                   Priority::kNormal};
  AdmissionController adm(opts);

  // Full burst up front, then empty.
  auto now = t0();
  EXPECT_TRUE(adm.admit("t", 20, now, kNoDeadline, 0, 100).admitted);
  auto out = adm.admit("t", 1, now, kNoDeadline, 0, 100);
  EXPECT_FALSE(out.admitted);
  EXPECT_EQ(out.reason, RejectReason::kRateLimited);

  // 1 s of refill at 10 tok/s buys exactly 10 rows.
  now += 1s;
  EXPECT_TRUE(adm.admit("t", 10, now, kNoDeadline, 0, 100).admitted);
  EXPECT_FALSE(adm.admit("t", 1, now, kNoDeadline, 0, 100).admitted);

  // Refill clamps at the burst cap no matter how long the idle.
  now += 3600s;
  EXPECT_TRUE(adm.admit("t", 20, now, kNoDeadline, 0, 100).admitted);
  EXPECT_FALSE(adm.admit("t", 1, now, kNoDeadline, 0, 100).admitted);

  const AdmissionStats st = adm.stats();
  EXPECT_EQ(st.admitted, 3u);
  EXPECT_EQ(st.rejects[static_cast<std::size_t>(
                RejectReason::kRateLimited)],
            3u);
}

TEST(AdmissionTest, DefaultTenantIsUnlimitedByDefault) {
  AdmissionController adm(AdmissionOptions{});
  const auto now = t0();
  for (int i = 0; i < 1000; ++i)
    ASSERT_TRUE(
        adm.admit("anyone", 1000, now, kNoDeadline, 0, 100).admitted);
}

TEST(AdmissionTest, TokenBucketRefillAcrossTenantChurn) {
  // Dynamic (default-policy) tenants are tracked LRU up to the bound;
  // an evicted tenant that returns gets a fresh burst — the documented
  // bounded over-admit — while a *configured* tenant's bucket survives
  // any amount of churn.
  AdmissionOptions opts;
  opts.default_tenant =
      TenantConfig{/*tokens_per_sec=*/1.0, /*burst_tokens=*/5.0,
                   Priority::kNormal};
  opts.tenants["vip"] = TenantConfig{1.0, 5.0, Priority::kHigh};
  opts.max_tracked_tenants = 2;
  AdmissionController adm(opts);

  const auto now = t0();
  // Drain vip's and a's buckets completely.
  EXPECT_TRUE(adm.admit("vip", 5, now, kNoDeadline, 0, 100).admitted);
  EXPECT_FALSE(adm.admit("vip", 1, now, kNoDeadline, 0, 100).admitted);
  EXPECT_TRUE(adm.admit("a", 5, now, kNoDeadline, 0, 100).admitted);
  EXPECT_FALSE(adm.admit("a", 1, now, kNoDeadline, 0, 100).admitted);

  // Churn: b and c push a out of the 2-slot LRU.
  EXPECT_TRUE(adm.admit("b", 1, now, kNoDeadline, 0, 100).admitted);
  EXPECT_TRUE(adm.admit("c", 1, now, kNoDeadline, 0, 100).admitted);
  EXPECT_GE(adm.stats().evicted_tenants, 1u);

  // a returns post-eviction: full burst again (no refill time passed).
  EXPECT_TRUE(adm.admit("a", 5, now, kNoDeadline, 0, 100).admitted);

  // vip is configured, never evicted: its bucket is still empty.
  EXPECT_FALSE(adm.admit("vip", 1, now, kNoDeadline, 0, 100).admitted);
  // ...and refills on schedule.
  EXPECT_TRUE(
      adm.admit("vip", 2, now + 2s, kNoDeadline, 0, 100).admitted);
}

// -------------------------------------------------- watermark shedding

TEST(AdmissionTest, ShedsByPriorityWatermark) {
  AdmissionOptions opts;  // defaults: high 1.01, normal 0.75, low 0.5
  opts.tenants["gold"] = TenantConfig{0.0, 0.0, Priority::kHigh};
  opts.tenants["free"] = TenantConfig{0.0, 0.0, Priority::kLow};
  AdmissionController adm(opts);
  const auto now = t0();

  // Below every watermark: everyone passes.
  EXPECT_TRUE(adm.admit("free", 1, now, kNoDeadline, 49, 100).admitted);
  // Depth 50/100 >= 0.5: low sheds, normal and high pass.
  auto out = adm.admit("free", 1, now, kNoDeadline, 50, 100);
  EXPECT_FALSE(out.admitted);
  EXPECT_EQ(out.reason, RejectReason::kQueueFull);
  EXPECT_EQ(out.priority, Priority::kLow);
  EXPECT_TRUE(adm.admit("anon", 1, now, kNoDeadline, 50, 100).admitted);
  EXPECT_TRUE(adm.admit("gold", 1, now, kNoDeadline, 50, 100).admitted);
  // Depth 75: normal sheds too, high still passes.
  EXPECT_FALSE(adm.admit("anon", 1, now, kNoDeadline, 75, 100).admitted);
  EXPECT_TRUE(adm.admit("gold", 1, now, kNoDeadline, 75, 100).admitted);
  // Even a brim-full queue never depth-sheds high (watermark > 1): the
  // bounded queue's own kQueueFull handles the true limit.
  EXPECT_TRUE(adm.admit("gold", 1, now, kNoDeadline, 100, 100).admitted);
}

TEST(AdmissionTest, ExpiredDeadlineRefusedBeforeBucketDebit) {
  AdmissionOptions opts;
  opts.tenants["t"] = TenantConfig{10.0, 10.0, Priority::kNormal};
  AdmissionController adm(opts);
  const auto now = t0();
  const auto out = adm.admit("t", 5, now, now - 1ms, 0, 100);
  EXPECT_FALSE(out.admitted);
  EXPECT_EQ(out.reason, RejectReason::kDeadlineExpired);
  // The refusal must not have debited the bucket.
  EXPECT_TRUE(adm.admit("t", 10, now, kNoDeadline, 0, 100).admitted);
}

// ------------------------------------------------------ queue ordering

class AdmissionQueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fix_ = std::make_unique<ServeFixture>(ServeFixture::make());
    registry_.register_model("hot", fix_->amm);
    registry_.register_model("cold", fix_->amm);
    hot_ = registry_.resolve("hot");
    cold_ = registry_.resolve("cold");
  }

  InferenceRequest make_req(std::uint64_t id, engine::ModelRef model,
                            Priority pri = Priority::kNormal,
                            Clock::time_point deadline = kNoDeadline) {
    InferenceRequest r;
    r.id = id;
    r.rows = 1;
    r.codes = fix_->codes_for(id);
    r.model = std::move(model);
    r.enqueued_at = Clock::now();
    r.priority = pri;
    r.deadline = deadline;
    return r;
  }

  std::unique_ptr<ServeFixture> fix_;
  engine::ModelRegistry registry_;
  engine::ModelRef hot_, cold_;
};

TEST_F(AdmissionQueueTest, PopWaitServesMostUrgentClassFirst) {
  RequestQueue q(16);
  ASSERT_TRUE(q.push(make_req(1, hot_, Priority::kLow)));
  ASSERT_TRUE(q.push(make_req(2, hot_, Priority::kNormal)));
  ASSERT_TRUE(q.push(make_req(3, hot_, Priority::kHigh)));
  ASSERT_TRUE(q.push(make_req(4, hot_, Priority::kHigh)));

  InferenceRequest out;
  ASSERT_EQ(q.pop_wait(&out), PopStatus::kOk);
  EXPECT_EQ(out.id, 3u);  // oldest high
  ASSERT_EQ(q.pop_wait(&out), PopStatus::kOk);
  EXPECT_EQ(out.id, 4u);
  ASSERT_EQ(q.pop_wait(&out), PopStatus::kOk);
  EXPECT_EQ(out.id, 2u);  // then normal
  ASSERT_EQ(q.pop_wait(&out), PopStatus::kOk);
  EXPECT_EQ(out.id, 1u);  // low last
}

TEST_F(AdmissionQueueTest, PopCompatibleExpiredDeadlineReturnsWithoutBlocking) {
  RequestQueue q(4);
  InferenceRequest out;
  const auto start = Clock::now();
  // Empty queue + a wait deadline already in the past: must return
  // kTimeout immediately, not park on the condition variable.
  EXPECT_EQ(q.pop_compatible(8, start - 1s, &out), PopStatus::kTimeout);
  EXPECT_LT(Clock::now() - start, 200ms);
}

TEST_F(AdmissionQueueTest, StarvationGuardStopsModelAffineSkipping) {
  // Regression for the unbounded skip: a cold model's aged head used to
  // be hopped over indefinitely while hot-model traffic kept batching.
  RequestQueue q(16);
  ASSERT_TRUE(q.push(make_req(1, hot_)));
  InferenceRequest cold_req = make_req(2, cold_);
  cold_req.enqueued_at = Clock::now() - 10ms;  // aged past the bound
  ASSERT_TRUE(q.push(std::move(cold_req)));
  ASSERT_TRUE(q.push(make_req(3, hot_)));
  ASSERT_TRUE(q.push(make_req(4, hot_)));

  BatcherOptions bopts;
  bopts.max_batch_tokens = 8;
  bopts.max_wait = std::chrono::microseconds(2000);
  bopts.max_skip_age = std::chrono::microseconds(5000);  // 5 ms
  const Batcher batcher(bopts);

  // Pre-fix this coalesced [1, 3, 4]; the guard must close the batch at
  // the aged cold head instead.
  Batch b1 = batcher.next_batch(q);
  ASSERT_EQ(b1.requests.size(), 1u);
  EXPECT_EQ(b1.requests[0].id, 1u);

  // The starved request is served next, at the head of its own batch.
  Batch b2 = batcher.next_batch(q);
  ASSERT_GE(b2.requests.size(), 1u);
  EXPECT_EQ(b2.requests[0].id, 2u);
}

TEST_F(AdmissionQueueTest, FreshOtherModelTrafficStillSkipsAndCoalesces) {
  // Control for the guard: a *fresh* other-model request must not block
  // coalescing (that would destroy multi-model batching).
  RequestQueue q(16);
  ASSERT_TRUE(q.push(make_req(1, hot_)));
  ASSERT_TRUE(q.push(make_req(2, cold_)));
  ASSERT_TRUE(q.push(make_req(3, hot_)));

  BatcherOptions bopts;
  bopts.max_batch_tokens = 2;
  bopts.max_wait = std::chrono::microseconds(200);
  bopts.max_skip_age = std::chrono::microseconds(1000000);  // 1 s
  const Batcher batcher(bopts);

  Batch b = batcher.next_batch(q);
  ASSERT_EQ(b.requests.size(), 2u);
  EXPECT_EQ(b.requests[0].id, 1u);
  EXPECT_EQ(b.requests[1].id, 3u);
  EXPECT_EQ(q.size(), 1u);  // cold stays queued for its own batch
}

TEST_F(AdmissionQueueTest, OversizedFirstRequestServedAlone) {
  RequestQueue q(4);
  InferenceRequest big = make_req(1, hot_);
  big.rows = 32;
  big.codes = std::vector<std::uint8_t>(32 * fix_->pool.cols, 0);
  ASSERT_TRUE(q.push(std::move(big)));

  BatcherOptions bopts;
  bopts.max_batch_tokens = 8;  // budget far below the request
  bopts.max_wait = std::chrono::microseconds(100);
  const Batcher batcher(bopts);
  Batch b = batcher.next_batch(q);
  ASSERT_EQ(b.requests.size(), 1u);
  EXPECT_EQ(b.tokens, 32u);
}

TEST_F(AdmissionQueueTest, ExpiredRequestsDroppedAtFormationWithTypedError) {
  RequestQueue q(16);
  InferenceRequest doomed = make_req(7, hot_, Priority::kNormal,
                                     Clock::now() - 1ms);
  std::future<InferenceResult> doomed_fut = doomed.result.get_future();
  bool hook_fired = false;
  doomed.on_done = [&](const InferenceResult* res,
                       const std::exception_ptr& err) {
    hook_fired = true;
    EXPECT_EQ(res, nullptr);
    EXPECT_TRUE(err != nullptr);
  };
  ASSERT_TRUE(q.push(std::move(doomed)));
  ASSERT_TRUE(q.push(make_req(8, hot_)));

  BatcherOptions bopts;
  bopts.max_wait = std::chrono::microseconds(100);
  const Batcher batcher(bopts);
  Batch b = batcher.next_batch(q);
  ASSERT_EQ(b.requests.size(), 1u);
  EXPECT_EQ(b.requests[0].id, 8u);
  EXPECT_EQ(b.expired, 1u);
  EXPECT_TRUE(hook_fired);
  try {
    doomed_fut.get();
    FAIL() << "expired request must not resolve";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kDeadlineExpired);
  }
}

// ----------------------------------------------------- typed rejections

TEST(RejectTaxonomyTest, ShutdownErrorIsARejectedError) {
  InferenceServer server{ServerOptions{}};
  server.shutdown();
  ServeFixture f = ServeFixture::make();
  server.registry().register_model("m", f.amm);
  auto fut = server.submit("m", f.codes_for(0), 1);
  try {
    fut.get();
    FAIL() << "submit after shutdown must reject";
  } catch (const RejectedError& e) {  // catchable as the generic type
    EXPECT_EQ(e.reason(), RejectReason::kShutdown);
  }
}

TEST(RejectTaxonomyTest, ReasonNamesAreStable) {
  EXPECT_STREQ(reject_reason_name(RejectReason::kShutdown), "shutdown");
  EXPECT_STREQ(reject_reason_name(RejectReason::kRateLimited),
               "rate_limited");
  EXPECT_STREQ(reject_reason_name(RejectReason::kQueueFull),
               "queue_full");
  EXPECT_STREQ(reject_reason_name(RejectReason::kDeadlineExpired),
               "deadline_expired");
  EXPECT_STREQ(reject_reason_name(RejectReason::kUnknownModel),
               "unknown_model");
  EXPECT_STREQ(reject_reason_name(RejectReason::kMalformed),
               "malformed");
}

TEST(RejectTaxonomyTest, NonblockingSubmitRejectsWhenQueueFull) {
  ServeFixture f = ServeFixture::make();
  ServerOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 2;
  opts.engine.backend = engine::Backend::kDevicePaced;
  opts.engine.device_ns_per_token = 50'000'000;  // 50 ms/token: wedge it
  InferenceServer server(opts);
  server.register_model("m", f.amm);
  const engine::ModelRef m = server.registry().resolve("m");

  // Fill the queue past capacity, then a nonblocking submit must come
  // back kQueueFull instead of parking the caller.
  std::vector<std::future<InferenceResult>> futs;
  bool saw_queue_full = false;
  for (int i = 0; i < 32 && !saw_queue_full; ++i) {
    SubmitExtras ex;
    ex.nonblocking = true;
    auto fut = server.submit(m, f.codes_for(0), 1, std::move(ex));
    if (fut.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      try {
        fut.get();
      } catch (const RejectedError& e) {
        EXPECT_EQ(e.reason(), RejectReason::kQueueFull);
        saw_queue_full = true;
      }
    } else {
      futs.push_back(std::move(fut));
    }
  }
  EXPECT_TRUE(saw_queue_full);
  EXPECT_GE(server.metrics().rejects[static_cast<std::size_t>(
                RejectReason::kQueueFull)],
            1u);
  server.shutdown();
}

}  // namespace
}  // namespace ssma::serve
