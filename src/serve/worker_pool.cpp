#include "serve/worker_pool.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "maddness/framing.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/replication/replication.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace ssma::serve {

using recovery::FaultAction;
using recovery::FaultKind;
using recovery::FaultSite;

WorkerPool::WorkerPool(RequestQueue& queue, Metrics& metrics,
                       const WorkerPoolOptions& opts)
    : queue_(queue), metrics_(metrics), opts_(opts) {
  journal_.store(opts.journal, std::memory_order_relaxed);
  SSMA_CHECK(opts.num_workers >= 1);
  SSMA_CHECK(opts.max_respawns_per_shard >= 0);
  shard_reports_.resize(static_cast<std::size_t>(opts.num_workers));
  shard_tokens_.assign(static_cast<std::size_t>(opts.num_workers), 0);
  metrics_.set_batch_budget(Batcher(opts.batcher).budget_tokens());
  slots_.reserve(static_cast<std::size_t>(opts.num_workers));
  for (int w = 0; w < opts.num_workers; ++w)
    slots_.push_back(std::make_unique<ShardSlot>());
}

WorkerPool::~WorkerPool() {
  if (started_ && !joined_) {
    queue_.close();
    join();
  }
}

void WorkerPool::start() {
  SSMA_CHECK_MSG(!started_, "WorkerPool already started");
  started_ = true;
  {
    std::lock_guard<std::mutex> lock(sup_mu_);
    for (int w = 0; w < opts_.num_workers; ++w) spawn_worker(w);
  }
  if (opts_.supervise)
    supervisor_ = std::thread([this] { supervisor_main(); });
}

void WorkerPool::spawn_worker(int worker_id) {
  ShardSlot& slot = *slots_[static_cast<std::size_t>(worker_id)];
  slot.status = ShardStatus::kRunning;
  slot.thread = std::thread([this, worker_id] { worker_main(worker_id); });
}

void WorkerPool::join() {
  if (joined_) return;
  // The supervisor returns once every shard is terminal (exited or
  // dead), having already joined the threads it respawned over.
  if (supervisor_.joinable()) supervisor_.join();
  for (auto& slot : slots_)
    if (slot->thread.joinable()) slot->thread.join();
  // Unsupervised crashes (or shards declared dead) leave their batch
  // parked in the in-flight slot: fail those futures loudly rather
  // than letting clients observe broken_promise at destruction.
  for (auto& slot : slots_)
    if (!slot->in_flight.empty())
      fail_requests(slot->in_flight,
                    "shard crashed with this request in flight; enable "
                    "supervision or replay the journal to recover");
  joined_ = true;
}

void WorkerPool::report_crash(int worker_id) {
  {
    std::lock_guard<std::mutex> lock(sup_mu_);
    slots_[static_cast<std::size_t>(worker_id)]->status =
        ShardStatus::kCrashed;
  }
  sup_cv_.notify_all();
}

void WorkerPool::report_exit(int worker_id) {
  {
    std::lock_guard<std::mutex> lock(sup_mu_);
    slots_[static_cast<std::size_t>(worker_id)]->status =
        ShardStatus::kExited;
  }
  sup_cv_.notify_all();
}

void WorkerPool::fail_requests(std::vector<InferenceRequest>& reqs,
                               const std::string& why) {
  for (InferenceRequest& req : reqs) {
    std::ostringstream oss;
    oss << "request " << req.id << ": " << why;
    req.fail(std::make_exception_ptr(std::runtime_error(oss.str())));
  }
  reqs.clear();
}

void WorkerPool::supervisor_main() {
  std::unique_lock<std::mutex> lock(sup_mu_);
  const auto terminal = [](ShardStatus s) {
    return s == ShardStatus::kExited || s == ShardStatus::kDead;
  };
  for (;;) {
    sup_cv_.wait(lock, [&] {
      bool all_terminal = true;
      for (const auto& slot : slots_) {
        if (slot->status == ShardStatus::kCrashed) return true;
        all_terminal = all_terminal && terminal(slot->status);
      }
      return all_terminal;
    });

    for (int w = 0; w < opts_.num_workers; ++w) {
      ShardSlot& slot = *slots_[static_cast<std::size_t>(w)];
      if (slot.status != ShardStatus::kCrashed) continue;
      // Join the dead thread first: that is the happens-before edge
      // that makes its in-flight slot safe to touch.
      std::thread dead = std::move(slot.thread);
      lock.unlock();
      dead.join();
      lock.lock();

      std::vector<InferenceRequest> orphans = std::move(slot.in_flight);
      slot.in_flight.clear();
      if (slot.respawns >= opts_.max_respawns_per_shard) {
        slot.status = ShardStatus::kDead;
        lock.unlock();
        fail_requests(orphans, "shard exceeded its respawn budget");
        lock.lock();
        continue;
      }
      slot.respawns++;
      respawns_total_.fetch_add(1, std::memory_order_relaxed);
      // Requeue before respawning so the new shard (or any live peer)
      // finds the orphaned work even if the queue is already closed.
      // The orphans keep their pinned model handles: the respawned
      // shard re-executes them on exactly the banks they resolved at
      // admission, so the retried outputs are bit-identical.
      queue_.requeue_front(std::move(orphans));
      spawn_worker(w);
    }

    bool all_terminal = true;
    for (const auto& slot : slots_)
      all_terminal = all_terminal && terminal(slot->status);
    if (all_terminal) return;
  }
}

core::PpaReport WorkerPool::aggregate_report() const {
  SSMA_CHECK_MSG(joined_, "aggregate_report requires join()");
  return core::merge_reports(shard_reports_);
}

void WorkerPool::worker_main(int worker_id) {
  // The one timed wait that bounds a request's latency runs on this
  // thread: the paced engine's device sleep. Linux fires such a timer up
  // to the thread's timer slack past its deadline (50 us by default, to
  // coalesce wakeups), so a 20 us wait_until took ~73 us. A 1 ns slack
  // fires the timer at the deadline itself. The slack is per thread, so
  // every shard thread sets its own here, respawned ones included.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  SSMA_TRACE_SET_THREAD("shard-" + std::to_string(worker_id));
  ShardSlot& slot = *slots_[static_cast<std::size_t>(worker_id)];
  // Private per-shard engine: backend scratch, PPA ledgers and pacing
  // clocks are shard-local, so shards share nothing but the immutable
  // model handles their requests pin.
  const std::unique_ptr<engine::ExecutionEngine> eng =
      engine::make_engine(opts_.engine);
  const Batcher batcher(opts_.batcher);
  recovery::FaultInjector* fault = opts_.fault;

  std::vector<double> queue_ns, total_ns;
  std::vector<recovery::Completion> done;

  // Steady-state hot-path buffers, owned by the shard for its whole
  // life: the stitched activation matrix and the output accumulators
  // reuse their capacity across batches (the engine holds the encode
  // scratch), so a shard at steady state performs no per-batch
  // allocations on the encode/decode path beyond response payloads.
  maddness::QuantizedActivations q;
  std::vector<std::int16_t> out;

  // Polls `site`; returns true when the worker must abandon the batch
  // (crash or drop). Applies delays in place.
  const auto fatal_fault = [&](FaultSite site) {
    if (!fault) return false;
    const FaultAction act = fault->poll(site, worker_id);
    switch (act.kind) {
      case FaultKind::kDelay:
        std::this_thread::sleep_for(act.delay);
        return false;
      case FaultKind::kKillShard:
        // Crash: leave in_flight parked for the supervisor and die.
        report_crash(worker_id);
        return true;
      case FaultKind::kDropBeforeAck:
        // Lost-response fault: the worker survives but the batch is
        // discarded unacked; requeue it for deterministic re-execution.
        queue_.requeue_front(std::move(slot.in_flight));
        return true;
      default:
        return false;
    }
  };

  for (;;) {
    Batch batch = batcher.next_batch(queue_);
    if (batch.expired)
      metrics_.record_reject(RejectReason::kDeadlineExpired,
                             batch.expired);
    if (batch.empty()) break;  // queue closed and drained
    // Park the batch in the supervision slot before touching it: from
    // here until the ack completes, a crash leaves the requests
    // recoverable.
    slot.in_flight = std::move(batch.requests);
    if (fatal_fault(FaultSite::kBatchFormed)) {
      if (slot.in_flight.empty()) continue;  // dropped, not crashed
      return;
    }
    const Clock::time_point t_exec = Clock::now();

#if defined(SSMA_TRACE_ENABLED)
    // Each request's queue_wait span closes the moment its batch is
    // picked up — same t_exec the queue-latency metric uses.
    auto& trace = telemetry::TraceSession::instance();
    std::uint64_t id_lo = slot.in_flight.front().id;
    std::uint64_t id_hi = id_lo;
    for (const InferenceRequest& r : slot.in_flight) {
      id_lo = std::min(id_lo, r.id);
      id_hi = std::max(id_hi, r.id);
      if (trace.enabled())
        trace.record_span(telemetry::Stage::kQueueWait, r.enqueued_at,
                          t_exec, r.id, r.id);
    }
#endif

    // The batcher never mixes handles, so the whole batch runs on the
    // first request's pinned model. Hold an owning pin for the scope of
    // the batch: the requests' pins die inside the ack loop (set_value
    // moves them out), and for a retired version they can be the last
    // owners — the bank (and its name, read after the loop for the
    // metrics attribution) must outlive them.
    const engine::ModelRef model_pin = slot.in_flight.front().model;
    const engine::ModelHandle& model = *model_pin;
    const std::size_t cols = model.cols();
    const std::size_t nout = model.nout();

    // Stitch the batch into one activation matrix; rows keep request
    // order, so outputs slice back out contiguously.
    q.rows = batch.tokens;
    q.cols = cols;
    q.scale = model.stage(0).activation_scale();
    q.codes.clear();
    for (const InferenceRequest& req : slot.in_flight) {
      SSMA_CHECK_MSG(req.codes.size() == req.rows * cols,
                     "request payload shape mismatch");
      SSMA_CHECK_MSG(req.model.get() == &model,
                     "batch mixed model handles");
      q.codes.insert(q.codes.end(), req.codes.begin(), req.codes.end());
    }

    {
      // Engine-internal spans (encode/lut_accumulate/epilogue) inherit
      // this batch's id range through the thread-local scope.
      SSMA_TRACE_REQUEST_SCOPE(id_lo, id_hi);
      eng->run_batch(model, q, out);
    }

    if (fatal_fault(FaultSite::kExecute)) {
      if (slot.in_flight.empty()) continue;
      return;
    }
    if (fatal_fault(FaultSite::kAck)) {
      if (slot.in_flight.empty()) continue;
      return;
    }

    // Acked-write gate: with replication in sync/window mode, hold the
    // whole batch's acks until its newest journal record is replicated
    // past the watermark. One wait covers every request in the batch
    // (records are sequenced, so the max dominates). A timed-out wait
    // degrades to async for this batch — counted, never wedged.
    if (auto* repl = opts_.replication) {
      std::uint64_t max_seq = 0;
      for (const InferenceRequest& r : slot.in_flight)
        max_seq = std::max(max_seq, r.wal_seq);
      if (max_seq > 0) repl->wait_acked(max_seq);
    }

    // Ack stage. Atomic in-process: promises fulfill exactly once, so
    // faults are only injected before it, never inside it. The journal
    // acks land after the responses, as one group per batch — a crash
    // in between re-executes the requests on recovery (at-least-once
    // across restarts).
    const Clock::time_point t_done = Clock::now();
    SSMA_TRACE_SPAN_IDS(kAck, id_lo, id_hi);
    queue_ns.clear();
    total_ns.clear();
    done.clear();
    // Only a journal stores the output CRCs.
    auto* journal = journal_.load(std::memory_order_acquire);
    std::size_t row = 0;
    for (InferenceRequest& req : slot.in_flight) {
      InferenceResult res;
      res.request_id = req.id;
      res.rows = req.rows;
      res.worker_id = worker_id;
      res.model = model.name();
      res.model_version = model.version();
      res.completed_at = t_done;
      res.outputs.assign(out.begin() + static_cast<std::ptrdiff_t>(
                                           row * nout),
                         out.begin() + static_cast<std::ptrdiff_t>(
                                           (row + req.rows) * nout));
      row += req.rows;
      queue_ns.push_back(std::chrono::duration<double, std::nano>(
                             t_exec - req.enqueued_at)
                             .count());
      total_ns.push_back(std::chrono::duration<double, std::nano>(
                             t_done - req.enqueued_at)
                             .count());
      if (journal)
        done.push_back(
            {req.id, maddness::crc32(res.outputs.data(),
                                     res.outputs.size() *
                                         sizeof(std::int16_t))});
      req.fulfill(std::move(res));
    }
    if (journal) {
      const Clock::time_point t_j = Clock::now();
      {
        SSMA_TRACE_SPAN_IDS(kJournalAppend, id_lo, id_hi);
        journal->append_completed(done, worker_id);
      }
      metrics_.record_journal_append(
          std::chrono::duration<double, std::nano>(Clock::now() - t_j)
              .count());
    }
    slot.in_flight.clear();
    shard_tokens_[static_cast<std::size_t>(worker_id)] += batch.tokens;
    metrics_.record_batch(model.name(), batch.tokens, queue_ns, total_ns);
    // Post-ack tap: q/out are still this shard's live buffers and
    // model_pin keeps the bank alive for the call. Runs after the
    // futures resolve, so a slow (misbehaving) observer can never
    // delay a client response — only the shard's next pickup.
    if (auto* obs = observer_.load(std::memory_order_acquire))
      obs->on_batch(model, q, out,
                    std::chrono::duration<double, std::nano>(t_done -
                                                             t_exec)
                        .count());
  }

  if (eng->info().collects_ppa)
    shard_reports_[static_cast<std::size_t>(worker_id)] =
        eng->ppa_report();
  report_exit(worker_id);
}

}  // namespace ssma::serve
