#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

#include "telemetry/chrome_trace.hpp"
#include "util/check.hpp"

namespace ssma::telemetry {

namespace {

/// Events each thread's ring keeps before it wraps.
constexpr std::size_t kRingCapacity = 16384;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

// Per-thread recorder handle. The shared_ptr keeps the ring alive for
// collect() even after recorders_ is cleared; `generation` detects a
// TraceSession::clear() so the thread re-registers lazily.
struct ThreadSlot {
  std::shared_ptr<SpanRecorder> recorder;
  std::string pending_track;
  std::uint64_t generation = ~std::uint64_t{0};
};

thread_local ThreadSlot t_slot;

thread_local std::uint64_t t_scope_lo = kNoRequestId;
thread_local std::uint64_t t_scope_hi = kNoRequestId;

}  // namespace

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kAdmit:
      return "admit";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kBatchForm:
      return "batch_form";
    case Stage::kEncode:
      return "encode";
    case Stage::kLutAccumulate:
      return "lut_accumulate";
    case Stage::kEpilogue:
      return "epilogue";
    case Stage::kAck:
      return "ack";
    case Stage::kCheckpoint:
      return "checkpoint";
    case Stage::kJournalAppend:
      return "journal_append";
    case Stage::kSwap:
      return "swap";
    case Stage::kDeviceWait:
      return "device_wait";
    case Stage::kReplay:
      return "replay";
    case Stage::kNetRead:
      return "net_read";
    case Stage::kNetWrite:
      return "net_write";
    case Stage::kAdmitReject:
      return "admit_reject";
    case Stage::kReplSend:
      return "repl_send";
    case Stage::kReplApply:
      return "repl_apply";
    case Stage::kPromotion:
      return "promotion";
    case Stage::kShadowExecute:
      return "shadow_execute";
    case Stage::kShadowCompare:
      return "shadow_compare";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// SpanRecorder — per-slot seqlock over atomic words.
//
// Writer (owner thread only): bump seq to odd (acq_rel RMW), store the
// five payload words relaxed, store seq even with release. Reader (any
// thread): load seq acquire, skip if odd/unwritten, read payload with
// acquire, re-check seq — a mismatch means a concurrent overwrite and
// the slot is retried or dropped. Every access is atomic and ordering
// is carried per-access (no standalone fences — TSan models this
// protocol and rejects atomic_thread_fence), so the race is resolved
// by protocol, not UB.
// ---------------------------------------------------------------------------

namespace {

void* slab_alloc(std::size_t bytes) {
#if defined(__unix__) || defined(__APPLE__)
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
#else
  return std::calloc(bytes, 1);
#endif
}

void slab_free(void* p, std::size_t bytes) {
  if (p == nullptr) return;
#if defined(__unix__) || defined(__APPLE__)
  ::munmap(p, bytes);
#else
  (void)bytes;
  std::free(p);
#endif
}

}  // namespace

SpanRecorder::SpanRecorder(std::size_t capacity) : mask_(0) {
  // The slab is handed to the seqlock as zero bytes straight from the
  // allocator; both depend on the payload being plain lock-free 64-bit
  // atomics freed without destructors.
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "seqlock payload must be lock-free");
  static_assert(std::is_trivially_destructible_v<Slot>,
                "slab is freed without running destructors");
  size_ = round_up_pow2(capacity);
  slots_ = static_cast<Slot*>(slab_alloc(size_ * sizeof(Slot)));
  SSMA_CHECK_MSG(slots_ != nullptr, "span ring allocation failed");
  mask_ = size_ - 1;
}

SpanRecorder::~SpanRecorder() { slab_free(slots_, size_ * sizeof(Slot)); }

void SpanRecorder::push(const SpanEvent& ev) {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  Slot& s = slots_[h & mask_];
  const std::uint64_t q = s.seq.load(std::memory_order_relaxed);
  // Odd transition is an acq_rel RMW, not store+fence: the acquire
  // half pins the payload stores below it, and TSan models per-access
  // ordering but rejects standalone fences (-fsanitize=thread).
  s.seq.exchange(q + 1, std::memory_order_acq_rel);
  s.w[0].store(ev.t_begin_ns, std::memory_order_relaxed);
  s.w[1].store(ev.t_end_ns, std::memory_order_relaxed);
  s.w[2].store(ev.id_lo, std::memory_order_relaxed);
  s.w[3].store(ev.id_hi, std::memory_order_relaxed);
  // Stage enum in the low byte, 24-bit tag above it — one payload word
  // keeps the slot layout (and the seqlock protocol) unchanged.
  s.w[4].store(static_cast<std::uint64_t>(ev.stage) |
                   (static_cast<std::uint64_t>(ev.tag & kNoSpanTag) << 8),
               std::memory_order_relaxed);
  s.seq.store(q + 2, std::memory_order_release);
  head_.store(h + 1, std::memory_order_release);
}

namespace {

bool read_slot(const std::atomic<std::uint64_t>& seq,
               const std::atomic<std::uint64_t> (&w)[5], SpanEvent* ev) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint64_t s1 = seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1)) continue;  // unwritten or mid-write
    std::uint64_t v[5];
    // Acquire loads (not relaxed + fence, see push) keep the re-check
    // below every payload read.
    for (int i = 0; i < 5; ++i) v[i] = w[i].load(std::memory_order_acquire);
    if (seq.load(std::memory_order_relaxed) != s1) continue;
    ev->t_begin_ns = v[0];
    ev->t_end_ns = v[1];
    ev->id_lo = v[2];
    ev->id_hi = v[3];
    ev->stage = static_cast<Stage>(v[4] & 0xFF);
    ev->tag = static_cast<std::uint32_t>((v[4] >> 8) & kNoSpanTag);
    return true;
  }
  return false;
}

}  // namespace

std::vector<SpanEvent> SpanRecorder::snapshot() const {
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(h, size_);
  std::vector<SpanEvent> out;
  out.reserve(static_cast<std::size_t>(n));
  // Oldest live slot first. A push racing this loop may replace the
  // oldest event with the newest in place — either version is returned
  // untorn, or the slot is dropped after retries.
  for (std::uint64_t i = h - n; i < h; ++i) {
    const Slot& s = slots_[i & mask_];
    SpanEvent ev;
    if (read_slot(s.seq, s.w, &ev)) out.push_back(ev);
  }
  return out;
}

// ---------------------------------------------------------------------------
// TraceSession
// ---------------------------------------------------------------------------

TraceSession& TraceSession::instance() {
  static TraceSession session;
  return session;
}

TraceSession::TraceSession()
    : epoch_ticks_(TraceClock::now().time_since_epoch().count()) {}

void TraceSession::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  recorders_.clear();
  ++generation_;
  generation_public_.store(generation_, std::memory_order_release);
  epoch_ticks_.store(TraceClock::now().time_since_epoch().count(),
                     std::memory_order_relaxed);
}

std::uint64_t TraceSession::to_ns(TraceClock::time_point t) const {
  const TraceClock::time_point epoch{TraceClock::duration(
      epoch_ticks_.load(std::memory_order_relaxed))};
  if (t <= epoch) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
          .count());
}

void TraceSession::set_thread_track(std::string name) {
  t_slot.pending_track = name;
  std::lock_guard<std::mutex> lk(mu_);
  if (t_slot.recorder && t_slot.generation == generation_)
    t_slot.recorder->set_track(std::move(name));
}

std::shared_ptr<SpanRecorder> TraceSession::thread_recorder() {
  std::lock_guard<std::mutex> lk(mu_);
  if (t_slot.recorder && t_slot.generation == generation_)
    return t_slot.recorder;
  auto rec = std::make_shared<SpanRecorder>(kRingCapacity);
  if (t_slot.pending_track.empty()) {
    rec->set_track("thread-" + std::to_string(recorders_.size()));
  } else {
    rec->set_track(t_slot.pending_track);
  }
  recorders_.push_back(rec);
  t_slot.recorder = rec;
  t_slot.generation = generation_;
  return rec;
}

void TraceSession::record_span(Stage stage, std::uint64_t t_begin_ns,
                               std::uint64_t t_end_ns,
                               std::uint64_t id_lo, std::uint64_t id_hi,
                               std::uint32_t tag) {
  if (!enabled()) return;
  SpanRecorder* rec = nullptr;
  if (t_slot.recorder &&
      t_slot.generation ==
          generation_public_.load(std::memory_order_acquire)) {
    rec = t_slot.recorder.get();
  } else {
    rec = thread_recorder().get();
  }
  SpanEvent ev;
  ev.t_begin_ns = t_begin_ns;
  ev.t_end_ns = std::max(t_begin_ns, t_end_ns);
  ev.id_lo = id_lo;
  ev.id_hi = id_hi;
  ev.stage = stage;
  ev.tag = tag;
  rec->push(ev);
}

void TraceSession::record_span(Stage stage, TraceClock::time_point begin,
                               TraceClock::time_point end,
                               std::uint64_t id_lo, std::uint64_t id_hi,
                               std::uint32_t tag) {
  if (!enabled()) return;
  record_span(stage, to_ns(begin), to_ns(end), id_lo, id_hi, tag);
}

std::vector<TraceSession::TrackEvents> TraceSession::collect() const {
  std::vector<std::shared_ptr<SpanRecorder>> recorders;
  {
    std::lock_guard<std::mutex> lk(mu_);
    recorders = recorders_;
  }
  std::vector<TrackEvents> out;
  out.reserve(recorders.size());
  for (const auto& rec : recorders) {
    TrackEvents te;
    te.track = rec->track();
    te.events = rec->snapshot();
    te.pushed = rec->pushed();
    out.push_back(std::move(te));
  }
  return out;
}

std::string TraceSession::render_chrome_json() const {
  ChromeTraceWriter writer("ssma-serve");
  const auto tracks = collect();
  for (std::size_t ti = 0; ti < tracks.size(); ++ti) {
    const int tid = static_cast<int>(ti) + 1;
    writer.add_thread_name(tid, tracks[ti].track);
    for (const auto& ev : tracks[ti].events) {
      std::vector<ChromeTraceWriter::Arg> args;
      if (ev.id_lo != kNoRequestId) {
        if (ev.id_lo == ev.id_hi) {
          args.push_back(ChromeTraceWriter::num_arg("req", ev.id_lo));
        } else {
          args.push_back(ChromeTraceWriter::num_arg("req_lo", ev.id_lo));
          args.push_back(ChromeTraceWriter::num_arg("req_hi", ev.id_hi));
        }
      }
      // Tagged spans render as "<stage>/<tag>" (one Perfetto aggregation
      // row per pipeline layer) with the tag duplicated as a numeric arg.
      std::string name = stage_name(ev.stage);
      if (ev.tag != kNoSpanTag) {
        name += '/';
        name += std::to_string(ev.tag);
        args.push_back(ChromeTraceWriter::num_arg(
            "stage_idx", static_cast<std::uint64_t>(ev.tag)));
      }
      writer.add_complete(
          tid, name,
          static_cast<double>(ev.t_begin_ns) * 1e-3,
          static_cast<double>(ev.t_end_ns - ev.t_begin_ns) * 1e-3, args);
    }
  }
  return writer.render();
}

// ---------------------------------------------------------------------------
// RequestScope / ScopedSpan
// ---------------------------------------------------------------------------

RequestScope::RequestScope(std::uint64_t id_lo, std::uint64_t id_hi)
    : prev_lo_(t_scope_lo), prev_hi_(t_scope_hi) {
  t_scope_lo = id_lo;
  t_scope_hi = id_hi;
}

RequestScope::~RequestScope() {
  t_scope_lo = prev_lo_;
  t_scope_hi = prev_hi_;
}

std::uint64_t RequestScope::current_lo() { return t_scope_lo; }
std::uint64_t RequestScope::current_hi() { return t_scope_hi; }

ScopedSpan::ScopedSpan(Stage stage, std::uint64_t id_lo,
                       std::uint64_t id_hi, std::uint32_t tag)
    : id_lo_(id_lo),
      id_hi_(id_hi),
      stage_(stage),
      tag_(tag),
      active_(TraceSession::instance().enabled()) {
  if (active_) t_begin_ns_ = TraceSession::instance().now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  auto& session = TraceSession::instance();
  session.record_span(stage_, t_begin_ns_, session.now_ns(), id_lo_,
                      id_hi_, tag_);
}

}  // namespace ssma::telemetry
