// Bounded MPMC queue of inference requests — the admission point of the
// serving runtime. Producers (client threads) block when the queue is
// full (backpressure instead of unbounded memory growth); consumers
// (worker threads) drain requests singly or under a token budget so the
// batcher can coalesce without reordering.
//
// Producers hand over their arrivals as groups (one socket read's
// frames, one replay), pushed under one lock with one wake-up. A
// consumer forming a batch never waits for more: it takes what is
// compatible and queued, and the batch closes when nothing compatible
// is left.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace ssma::engine {
class ModelHandle;
}  // namespace ssma::engine

namespace ssma::serve {

namespace recovery {
class FaultInjector;
}  // namespace recovery

using Clock = std::chrono::steady_clock;

/// SLO classes for multi-tenant admission. Lower value = more urgent:
/// the queue serves the oldest request of the most urgent class first,
/// and under overload the admission layer sheds the least urgent
/// classes at progressively lower queue watermarks.
enum class Priority : std::uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};
inline constexpr std::size_t kNumPriorities = 3;

/// Why an admission-side component refused a request. Every refusal in
/// the serving stack is typed with one of these — the future (and the
/// network status byte) carries the reason, so clients distinguish
/// "back off" (kRateLimited/kQueueFull) from "give up" (kShutdown,
/// kUnknownModel) without string matching.
enum class RejectReason : std::uint8_t {
  kShutdown = 0,         ///< server draining or shut down
  kRateLimited,          ///< tenant token bucket empty
  kQueueFull,            ///< queue over this priority's shed watermark
  kDeadlineExpired,      ///< SLO deadline passed before execution
  kUnknownModel,         ///< model ref did not resolve
  kMalformed,            ///< request failed shape/protocol validation
  kReplicaNotReady,      ///< follower promotion attempted before the
                         ///< standby received its first checkpoint
  kStaleFollower,        ///< follower journal is ahead of the leader's
                         ///< (diverged history) — cannot resume
};
inline constexpr std::size_t kNumRejectReasons = 8;
const char* reject_reason_name(RejectReason r);

/// Typed load-shed/refusal error: what a rejected request's future
/// holds, and what the RPC layer maps onto its status byte.
class RejectedError : public std::runtime_error {
 public:
  RejectedError(RejectReason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}
  RejectReason reason() const { return reason_; }

 private:
  RejectReason reason_;
};

/// What a fulfilled request resolves to.
struct InferenceResult {
  std::uint64_t request_id = 0;
  std::size_t rows = 0;
  /// rows x nout int16 accumulators, bit-exact vs the model's
  /// reference decode (Amm::apply_int16 / pipeline_reference_apply).
  std::vector<std::int16_t> outputs;
  int worker_id = -1;           ///< which shard served it
  std::string model;            ///< model name that served the request
  std::uint64_t model_version = 0;  ///< exact bank version used
  Clock::time_point completed_at{};  ///< set by the worker at fulfillment
};

/// One queued unit of work: `rows` quantized activation rows plus the
/// promise the serving worker fulfills. Move-only (owns the promise).
/// `model` is pinned at admission: the batch executes on exactly this
/// bank even if a newer version is registered mid-flight.
struct InferenceRequest {
  std::uint64_t id = 0;
  std::size_t rows = 0;
  std::vector<std::uint8_t> codes;  ///< rows x cols, row-major uint8
  std::shared_ptr<const engine::ModelHandle> model;
  Clock::time_point enqueued_at{};
  Priority priority = Priority::kNormal;
  /// Absolute SLO deadline; max() means "no deadline". The batcher drops
  /// requests whose deadline has already passed (typed kDeadlineExpired
  /// rejection) instead of spending device time on a result nobody
  /// will wait for.
  Clock::time_point deadline = Clock::time_point::max();
  std::string tenant;  ///< admission identity; empty = anonymous
  /// Journal sequence number of this request's accept record (0 = not
  /// journaled). The worker's ack path holds the response until the
  /// replication watermark covers this seq — the acked-write guarantee.
  std::uint64_t wal_seq = 0;
  /// Optional completion hook, invoked exactly once — from whichever
  /// thread fulfills or fails the request — *before* the promise is
  /// resolved. The network layer uses it to serialize the response
  /// without parking a thread on the future. On success `res` is
  /// non-null and `err` empty; on failure `res` is null and `err`
  /// holds the exception (RejectedError for typed sheds).
  std::function<void(const InferenceResult* res,
                     const std::exception_ptr& err)>
      on_done;
  std::promise<InferenceResult> result;

  /// Resolve successfully: fires on_done, then the promise. Every
  /// fulfillment in the serving stack goes through here so the net
  /// layer never loses an ack.
  void fulfill(InferenceResult&& res) {
    if (on_done) on_done(&res, nullptr);
    result.set_value(std::move(res));
  }
  /// Resolve with an error: fires on_done, then the promise.
  void fail(const std::exception_ptr& err) {
    if (on_done) on_done(nullptr, err);
    result.set_exception(err);
  }
};

/// Outcome of a budgeted pop (see RequestQueue::pop_compatible).
enum class PopStatus {
  kOk,           ///< *out holds a request
  kWouldExceed,  ///< head is larger than the remaining budget, or pinned
                 ///< to a different model than the forming batch
  kNoneQueued,   ///< no compatible request is queued
  kClosed,       ///< queue closed and fully drained
};

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  /// Pushes `reqs` in order under one lock. Blocking, it waits for room
  /// (backpressure); non-blocking, it pushes as many as fit. Returns the
  /// number pushed: that prefix of `reqs` is moved from, the rest (queue
  /// full or closed) is left untouched. It wakes one idle consumer, which
  /// takes what its batch can; a batch that closes with requests left
  /// over wakes the next (see pop_compatible).
  std::size_t push_group(std::vector<InferenceRequest>& reqs, bool blocking);

  /// Pops the first request pinned to `model_key` (any request when
  /// null) if it fits within `max_rows`. Never waits: with no compatible
  /// request queued it returns kNoneQueued (kClosed once the queue is
  /// closed and drained), so a batch closes as soon as nothing
  /// compatible is left. A batch that closes (kNoneQueued, kWouldExceed)
  /// while requests are still queued wakes one idle consumer for them.
  /// Model-affine: requests for other models are skipped in place (their
  /// own batches pick them up), so per-model FIFO is preserved while
  /// multi-model interleave never fragments batches. An oversized first
  /// candidate is reported (kWouldExceed), never skipped.
  ///
  /// Starvation guard: scanning past another model's request is only
  /// allowed while that request is still "fresh". If a skipped request
  /// was enqueued at or before `no_skip_enqueued_before`, the pop returns
  /// kWouldExceed instead — closing the forming batch so the next
  /// pop_wait serves the aged head. The default (time_point::min)
  /// disables the bound.
  PopStatus pop_compatible(
      std::size_t max_rows, InferenceRequest* out,
      const void* model_key = nullptr,
      Clock::time_point no_skip_enqueued_before = Clock::time_point::min());

  /// Blocking pop with no budget or deadline; kOk or kClosed. Serves
  /// the oldest request of the most urgent priority class present
  /// (stable within a class), so high-priority tenants jump the line
  /// exactly once — at batch-head selection — without reordering any
  /// single tenant's stream.
  PopStatus pop_wait(InferenceRequest* out);

  /// Recovery path: puts a crashed shard's in-flight requests back at
  /// the head of the queue in their original order, bypassing both the
  /// capacity bound and close() — requeued work must drain even during
  /// shutdown, and blocking the supervisor on a full queue would
  /// deadlock recovery.
  void requeue_front(std::vector<InferenceRequest>&& reqs);

  /// Optional fault hook (kQueuePush delay shaping); not owned.
  void set_fault_injector(recovery::FaultInjector* fault);

  /// After close(), pushes fail and consumers drain the remainder.
  void close();
  bool closed() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  recovery::FaultInjector* fault_ = nullptr;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<InferenceRequest> items_;
  bool closed_ = false;
};

}  // namespace ssma::serve
