// Request-lifecycle tracing: a lock-free per-thread ring-buffer span
// collector with nanosecond monotonic timestamps.
//
// Every serving-pipeline stage (admission, queue wait, batch formation,
// encode, LUT accumulation, the dequant->ReLU->requant epilogue, ack,
// checkpointing, journal appends, hot-swap) records a SpanEvent into the
// thread's SpanRecorder; TraceSession snapshots every recorder and
// renders a Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing) with one track per thread, so a request's time can
// be attributed stage by stage across shards.
//
// Two gates keep the zero-alloc serving hot path intact:
//   * compile-time — the SSMA_TRACE CMake knob (default ON) defines
//     SSMA_TRACE_ENABLED; when OFF every SSMA_TRACE_* macro expands to
//     ((void)0), so instrumented TUs are byte-identical in behavior to
//     uninstrumented ones (the classes below still compile — tests and
//     exporters are knob-independent — but no call site records).
//   * runtime — TraceSession::enable()/disable(); a disabled session
//     costs one relaxed atomic load per span site and allocates nothing
//     (thread recorders are created lazily on the first recorded span).
//
// The ring buffer is a per-slot seqlock over std::atomic words: the
// owner thread writes, any thread snapshots, and a reader that races a
// wrap sees either the old event or the new one, never a torn mix —
// TSan-clean by construction (tests/test_telemetry.cpp hammers this).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ssma::telemetry {

using TraceClock = std::chrono::steady_clock;

/// Lifecycle stages a span can describe (the serving pipeline in
/// admission order, then the durability/registry side channels).
enum class Stage : std::uint8_t {
  kAdmit = 0,       ///< InferenceServer::submit admission
  kQueueWait,       ///< enqueue -> picked into a batch
  kBatchForm,       ///< first pop -> batch closed (Batcher::next_batch)
  kEncode,          ///< Amm::encode_batch inside the engine
  kLutAccumulate,   ///< Amm::apply_int16 / accelerator stage run
  kEpilogue,        ///< dequant -> ReLU -> requant stage handoff
  kAck,             ///< response slicing + promise fulfillment
  kCheckpoint,      ///< registry/state checkpoint write
  kJournalAppend,   ///< write-ahead journal append
  kSwap,            ///< register_model version bump (hot-swap)
  kDeviceWait,      ///< paced backend: modeled device service time
  kReplay,          ///< journal replay re-admission
  kNetRead,         ///< TCP front end: frame read + decode
  kNetWrite,        ///< TCP front end: response serialize + write
  kAdmitReject,     ///< admission controller shed a request
  kReplSend,        ///< leader: replication record/checkpoint send
  kReplApply,       ///< follower: record persisted + replayed into the
                    ///< warm standby
  kPromotion,       ///< follower: seal -> drain -> serving transition
  kShadowExecute,   ///< rollout: candidate bank run on the spare engine
  kShadowCompare,   ///< rollout: live-vs-candidate drift comparison
};

inline constexpr int kNumStages = 20;
const char* stage_name(Stage stage);

/// Sentinel for "no request id attached" (spans outside any request,
/// e.g. an idle checkpoint). 0 is a real request id.
inline constexpr std::uint64_t kNoRequestId = ~std::uint64_t{0};

/// Sentinel for "no stage tag attached". Tags are 24-bit: they ride in
/// the same seqlock payload word as the stage enum.
inline constexpr std::uint32_t kNoSpanTag = 0xFFFFFFu;

/// One closed span. Timestamps are nanoseconds since the session epoch.
/// [id_lo, id_hi] is the request-id range the span covers (a batch span
/// covers every request stitched into the batch; single-request spans
/// have id_lo == id_hi; kNoRequestId both when unattributed). `tag`
/// disambiguates repeated spans of one stage — pipeline engines tag
/// kEncode/kLutAccumulate/kEpilogue with the plan stage index so
/// Perfetto shows per-layer time ("epilogue/2") instead of one merged
/// row.
struct SpanEvent {
  std::uint64_t t_begin_ns = 0;
  std::uint64_t t_end_ns = 0;
  std::uint64_t id_lo = kNoRequestId;
  std::uint64_t id_hi = kNoRequestId;
  Stage stage = Stage::kAdmit;
  std::uint32_t tag = kNoSpanTag;
};

/// Fixed-capacity single-writer ring buffer of SpanEvents. The owner
/// thread pushes; any thread snapshots concurrently (per-slot seqlock:
/// a snapshot drops a slot it raced rather than returning torn data).
/// When the ring wraps, the oldest events are overwritten — pushed()
/// minus the snapshot size is the number of spans lost to wrap.
class SpanRecorder {
 public:
  /// `capacity` is rounded up to a power of two.
  explicit SpanRecorder(std::size_t capacity);
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Owner thread only.
  void push(const SpanEvent& ev);

  /// Any thread: every event still live in the ring, oldest first.
  std::vector<SpanEvent> snapshot() const;

  /// Total events ever pushed (monotonic, survives wrap).
  std::uint64_t pushed() const {
    return head_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const { return size_; }

  const std::string& track() const { return track_; }
  void set_track(std::string name) { track_ = std::move(name); }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq;
    std::atomic<std::uint64_t> w[5];
  };

  // Anonymous-mmap slab, NOT a value-initialized vector: a default
  // ring is 768 KB/thread, and eagerly zeroing (and so faulting in)
  // all of it when a thread records its first span costs more than the
  // spans themselves on short bursts. mmap'd zero pages fault lazily,
  // so a thread only pays for the slots it actually writes — and
  // unlike calloc this can't regress to heap + memset when glibc
  // adapts its mmap threshold after a TraceSession::clear(). All-zero
  // bytes IS the valid initial state (seq == 0 == unwritten).
  Slot* slots_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::string track_;  ///< set at registration, before events flow
};

/// Process-wide span collection: a registry of per-thread recorders plus
/// the runtime on/off gate and the time epoch. All methods are
/// thread-safe; recording methods touch only the calling thread's
/// recorder (created lazily, registered under the session mutex once).
class TraceSession {
 public:
  static TraceSession& instance();

  void enable() { enabled_.store(true, std::memory_order_release); }
  void disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drops every registered recorder and resets the epoch to now.
  /// Threads that recorded before keep working: their next span lazily
  /// registers a fresh recorder (generation check).
  void clear();

  std::uint64_t now_ns() const { return to_ns(TraceClock::now()); }
  /// Nanoseconds since the session epoch (0 for pre-epoch instants).
  std::uint64_t to_ns(TraceClock::time_point t) const;

  /// Names the calling thread's track in the exported trace (e.g.
  /// "shard-3"). Cheap when tracing is off: the name is stashed
  /// thread-locally and only materializes a recorder with the first
  /// recorded span.
  void set_thread_track(std::string name);

  /// Records a closed span on the calling thread's track. No-op when
  /// the session is disabled. `tag` (24-bit, kNoSpanTag = untagged)
  /// distinguishes repeated spans of one stage, e.g. per-layer epilogue
  /// time in a pipeline model.
  void record_span(Stage stage, std::uint64_t t_begin_ns,
                   std::uint64_t t_end_ns, std::uint64_t id_lo,
                   std::uint64_t id_hi, std::uint32_t tag = kNoSpanTag);
  void record_span(Stage stage, TraceClock::time_point begin,
                   TraceClock::time_point end, std::uint64_t id_lo,
                   std::uint64_t id_hi, std::uint32_t tag = kNoSpanTag);

  /// One thread's snapshot: track name, live events (oldest first) and
  /// the total pushed count (pushed - events.size() = lost to wrap).
  struct TrackEvents {
    std::string track;
    std::vector<SpanEvent> events;
    std::uint64_t pushed = 0;
  };
  std::vector<TrackEvents> collect() const;

  /// Chrome trace-event JSON ("X" complete events, one track per
  /// recorded thread, request-id ranges in args) — open in Perfetto or
  /// chrome://tracing.
  std::string render_chrome_json() const;

 private:
  TraceSession();

  std::shared_ptr<SpanRecorder> thread_recorder();

  std::atomic<bool> enabled_{false};
  /// Epoch as a raw tick count so to_ns() — two calls per recorded
  /// span — never touches mu_. Written only by the constructor and
  /// clear(), read relaxed on the record path.
  std::atomic<TraceClock::rep> epoch_ticks_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<SpanRecorder>> recorders_;
  std::uint64_t generation_ = 0;  ///< guarded by mu_
  /// Lock-free mirror of generation_ for the record_span fast path.
  std::atomic<std::uint64_t> generation_public_{0};
};

/// Thread-local request-id range engine spans inherit when their call
/// site cannot know the ids (e.g. run_batch stages). RAII: restores the
/// previous range so nested scopes compose.
class RequestScope {
 public:
  RequestScope(std::uint64_t id_lo, std::uint64_t id_hi);
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  /// The innermost active range on this thread ({kNoRequestId,
  /// kNoRequestId} outside any scope).
  static std::uint64_t current_lo();
  static std::uint64_t current_hi();

 private:
  std::uint64_t prev_lo_;
  std::uint64_t prev_hi_;
};

/// RAII span: timestamps the constructor and destructor, pushes on
/// destruction. When ids are omitted the innermost RequestScope range
/// is attached. A disabled session makes both ends a single relaxed
/// atomic load.
class ScopedSpan {
 public:
  explicit ScopedSpan(Stage stage)
      : ScopedSpan(stage, RequestScope::current_lo(),
                   RequestScope::current_hi()) {}
  /// Tagged span, ids from the RequestScope (see SpanEvent::tag).
  ScopedSpan(Stage stage, std::uint32_t tag)
      : ScopedSpan(stage, RequestScope::current_lo(),
                   RequestScope::current_hi(), tag) {}
  ScopedSpan(Stage stage, std::uint64_t id_lo, std::uint64_t id_hi,
             std::uint32_t tag = kNoSpanTag);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t t_begin_ns_ = 0;
  std::uint64_t id_lo_;
  std::uint64_t id_hi_;
  Stage stage_;
  std::uint32_t tag_;
  bool active_;
};

}  // namespace ssma::telemetry

// Hot-path instrumentation macros. With the SSMA_TRACE CMake knob OFF
// (no SSMA_TRACE_ENABLED define) every macro expands to ((void)0) —
// arguments are not evaluated, nothing is compiled in, and the PR 4
// zero-allocation serving path is untouched.
#if defined(SSMA_TRACE_ENABLED)

#define SSMA_TRACE_CAT2(a, b) a##b
#define SSMA_TRACE_CAT(a, b) SSMA_TRACE_CAT2(a, b)

/// Scoped span over the enclosing block, ids from the RequestScope.
#define SSMA_TRACE_SPAN(stage)             \
  ::ssma::telemetry::ScopedSpan SSMA_TRACE_CAT( \
      ssma_trace_span_, __LINE__)(::ssma::telemetry::Stage::stage)

/// Scoped span with an explicit request-id range.
#define SSMA_TRACE_SPAN_IDS(stage, id_lo, id_hi) \
  ::ssma::telemetry::ScopedSpan SSMA_TRACE_CAT(       \
      ssma_trace_span_, __LINE__)(::ssma::telemetry::Stage::stage, (id_lo), \
                                  (id_hi))

/// Scoped span tagged with a small integer (e.g. the pipeline stage
/// index), ids from the RequestScope. The exported trace names the span
/// "<stage>/<tag>" so repeated stages aggregate per tag in Perfetto.
#define SSMA_TRACE_SPAN_TAG(stage, tag)                                \
  ::ssma::telemetry::ScopedSpan SSMA_TRACE_CAT(ssma_trace_span_,       \
                                               __LINE__)(             \
      ::ssma::telemetry::Stage::stage, static_cast<std::uint32_t>(tag))

/// Records a span closed elsewhere (begin/end are TraceClock
/// time_points or ns-since-epoch u64s).
#define SSMA_TRACE_RECORD(stage, begin, end, id_lo, id_hi)       \
  ::ssma::telemetry::TraceSession::instance().record_span(       \
      ::ssma::telemetry::Stage::stage, (begin), (end), (id_lo), (id_hi))

/// Names the calling thread's track in the exported trace.
#define SSMA_TRACE_SET_THREAD(name) \
  ::ssma::telemetry::TraceSession::instance().set_thread_track(name)

/// Pins a request-id range for spans recorded deeper in the call tree.
#define SSMA_TRACE_REQUEST_SCOPE(id_lo, id_hi)         \
  ::ssma::telemetry::RequestScope SSMA_TRACE_CAT(           \
      ssma_trace_reqscope_, __LINE__)((id_lo), (id_hi))

#else  // !SSMA_TRACE_ENABLED

#define SSMA_TRACE_SPAN(stage) ((void)0)
#define SSMA_TRACE_SPAN_IDS(stage, id_lo, id_hi) ((void)0)
#define SSMA_TRACE_SPAN_TAG(stage, tag) ((void)0)
#define SSMA_TRACE_RECORD(stage, begin, end, id_lo, id_hi) ((void)0)
#define SSMA_TRACE_SET_THREAD(name) ((void)0)
#define SSMA_TRACE_REQUEST_SCOPE(id_lo, id_hi) ((void)0)

#endif  // SSMA_TRACE_ENABLED
