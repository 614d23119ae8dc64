#include "serve/request_queue.hpp"

#include <iterator>
#include <thread>

#include "serve/recovery/fault_injector.hpp"
#include "util/check.hpp"

namespace ssma::serve {

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kShutdown: return "shutdown";
    case RejectReason::kRateLimited: return "rate_limited";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kDeadlineExpired: return "deadline_expired";
    case RejectReason::kUnknownModel: return "unknown_model";
    case RejectReason::kMalformed: return "malformed";
    case RejectReason::kReplicaNotReady: return "replica_not_ready";
    case RejectReason::kStaleFollower: return "stale_follower";
  }
  return "unknown";
}

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
  SSMA_CHECK(capacity >= 1);
}

void RequestQueue::set_fault_injector(recovery::FaultInjector* fault) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_ = fault;
}

std::size_t RequestQueue::push_group(std::vector<InferenceRequest>& reqs,
                                     bool blocking) {
  std::unique_lock<std::mutex> lock(mu_);
  if (blocking && fault_) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const recovery::FaultAction act =
          fault_->poll(recovery::FaultSite::kQueuePush);
      if (act.kind == recovery::FaultKind::kDelay) {
        lock.unlock();
        std::this_thread::sleep_for(act.delay);
        lock.lock();
      }
    }
  }
  std::size_t n = 0;
  for (; n < reqs.size(); ++n) {
    if (blocking && !closed_ && items_.size() >= capacity_) {
      // Full mid-group: hand what is in to the consumers, then wait
      // for room.
      not_empty_.notify_all();
      not_full_.wait(lock,
                     [&] { return closed_ || items_.size() < capacity_; });
    }
    if (closed_ || items_.size() >= capacity_) break;
    items_.push_back(std::move(reqs[n]));
  }
  lock.unlock();
  if (n > 0) not_empty_.notify_one();
  return n;
}

PopStatus RequestQueue::pop_compatible(
    std::size_t max_rows, InferenceRequest* out, const void* model_key,
    Clock::time_point no_skip_enqueued_before) {
  std::unique_lock<std::mutex> lock(mu_);
  // Model-affine scan: the first request pinned to the forming batch's
  // model (the plain head when no key is given). Per-model FIFO is
  // preserved — candidates are considered in admission order — while
  // other models' requests are left in place for the workers batching
  // those models, so interleaved multi-model traffic does not fragment
  // batches.
  auto it = items_.begin();
  bool aged = false;
  if (model_key != nullptr) {
    while (it != items_.end() && it->model.get() != model_key) {
      // Starvation guard: refuse to reach past another model's request
      // once it has aged beyond the caller's skip bound. Without this,
      // sustained hot-model traffic keeps the scan hopping over a cold
      // model's head forever.
      if (it->enqueued_at <= no_skip_enqueued_before) {
        aged = true;
        break;
      }
      ++it;
    }
  }
  PopStatus closing = PopStatus::kNoneQueued;
  if (it != items_.end()) {
    if (!aged && it->rows <= max_rows) {
      *out = std::move(*it);
      items_.erase(it);
      lock.unlock();
      not_full_.notify_one();
      return PopStatus::kOk;
    }
    closing = PopStatus::kWouldExceed;
  } else if (closed_) {
    return PopStatus::kClosed;
  }
  // The batch closes. What it could not take goes to an idle worker.
  const bool left_over = !items_.empty();
  lock.unlock();
  if (left_over) not_empty_.notify_one();
  return closing;
}

PopStatus RequestQueue::pop_wait(InferenceRequest* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
  if (items_.empty()) return PopStatus::kClosed;
  // Serve the oldest request of the most urgent class present. The
  // scan is stable (first hit wins within a class) and short-circuits
  // on kHigh — the common case under light load is still O(1).
  auto best = items_.begin();
  for (auto it = std::next(items_.begin());
       it != items_.end() && best->priority != Priority::kHigh; ++it) {
    if (it->priority < best->priority) best = it;
  }
  *out = std::move(*best);
  items_.erase(best);
  lock.unlock();
  not_full_.notify_one();
  return PopStatus::kOk;
}

void RequestQueue::requeue_front(std::vector<InferenceRequest>&& reqs) {
  if (reqs.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    items_.insert(items_.begin(),
                  std::make_move_iterator(reqs.begin()),
                  std::make_move_iterator(reqs.end()));
  }
  reqs.clear();
  not_empty_.notify_all();
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

}  // namespace ssma::serve
