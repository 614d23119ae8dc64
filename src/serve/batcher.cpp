#include "serve/batcher.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace ssma::serve {

Batcher::Batcher(const BatcherOptions& opts) : opts_(opts) {
  SSMA_CHECK(opts.max_batch_tokens >= 1);
  SSMA_CHECK(opts.align_tokens >= 1);
  budget_ = opts.max_batch_tokens / opts.align_tokens * opts.align_tokens;
  if (budget_ == 0) budget_ = opts.align_tokens;
}

namespace {

// Fail a request whose SLO deadline passed before it reached a device:
// typed rejection so the client (or wire layer) can tell "too late"
// from a crash, and no device time is spent on it.
void reject_expired(InferenceRequest&& req) {
  req.fail(std::make_exception_ptr(RejectedError(
      RejectReason::kDeadlineExpired,
      "request " + std::to_string(req.id) +
          " deadline expired before batch formation")));
}

}  // namespace

Batch Batcher::next_batch(RequestQueue& queue) const {
  Batch batch;

  // First request: wait indefinitely (an idle worker parks here).
  // Requests whose deadline already passed are dropped here with a
  // typed rejection rather than anchoring a doomed batch.
  InferenceRequest first;
  for (;;) {
    if (queue.pop_wait(&first) == PopStatus::kClosed) return batch;
    if (first.deadline <= Clock::now()) {
      reject_expired(std::move(first));
      ++batch.expired;
      continue;
    }
    break;
  }
  batch.tokens = first.rows;
  batch.requests.push_back(std::move(first));

#if defined(SSMA_TRACE_ENABLED)
  // The batch_form span starts here — after the first pop — so idle
  // queue-park time is not billed as formation work. Recorded manually
  // (not ScopedSpan) because the id range isn't known until the batch
  // closes.
  auto& trace = telemetry::TraceSession::instance();
  const std::uint64_t t_form = trace.enabled() ? trace.now_ns() : 0;
#endif

  // Coalesce only requests pinned to the same model handle (pulled
  // model-affine past other models' requests): a batch is one stitched
  // matrix through one bank, and mixing versions would break the
  // hot-swap bit-exactness contract (old in-flight requests finish on
  // the old bank). The batch takes what is queued and closes when its
  // budget is full or nothing compatible is left; it never waits.
  const void* model_key = batch.requests.front().model.get();
  while (batch.tokens < budget_) {
    InferenceRequest next;
    // Recompute the starvation bound each pull: a request another model
    // enqueued while this batch formed still gets the full max_skip_age
    // before it blocks coalescing.
    const Clock::time_point now = Clock::now();
    const PopStatus st = queue.pop_compatible(
        budget_ - batch.tokens, &next, model_key,
        /*no_skip_enqueued_before=*/now - opts_.max_skip_age);
    if (st != PopStatus::kOk) break;  // full/none queued/closed/aged
    if (next.deadline <= now) {
      reject_expired(std::move(next));
      ++batch.expired;
      continue;
    }
    batch.tokens += next.rows;
    batch.requests.push_back(std::move(next));
  }

#if defined(SSMA_TRACE_ENABLED)
  if (trace.enabled()) {
    std::uint64_t lo = batch.requests.front().id;
    std::uint64_t hi = lo;
    for (const InferenceRequest& r : batch.requests) {
      lo = std::min(lo, r.id);
      hi = std::max(hi, r.id);
    }
    trace.record_span(telemetry::Stage::kBatchForm, t_form,
                      trace.now_ns(), lo, hi);
  }
#endif
  return batch;
}

}  // namespace ssma::serve
