#include "serve/server.hpp"

#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "engine/pipeline.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/recovery/recovery.hpp"
#include "serve/replication/replication.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace ssma::serve {

InferenceServer::InferenceServer(const ServerOptions& opts)
    : InferenceServer(std::make_shared<engine::ModelRegistry>(), opts) {}

InferenceServer::InferenceServer(
    std::shared_ptr<engine::ModelRegistry> registry,
    const ServerOptions& opts, std::uint64_t first_request_id)
    : registry_(std::move(registry)),
      next_id_(first_request_id),
      recovery_(opts.recovery) {
  SSMA_CHECK(opts.num_workers >= 1);
  SSMA_CHECK(registry_ != nullptr);
  queue_ = std::make_unique<RequestQueue>(opts.queue_capacity);
  queue_->set_fault_injector(recovery_.fault);

  WorkerPoolOptions wopts;
  wopts.num_workers = opts.num_workers;
  wopts.engine = opts.engine;
  wopts.batcher = opts.batcher;
  wopts.fault = recovery_.fault;
  wopts.journal = recovery_.journal;
  wopts.replication = recovery_.replication;
  wopts.supervise = recovery_.supervise;
  wopts.max_respawns_per_shard = recovery_.max_respawns_per_shard;
  pool_ = std::make_unique<WorkerPool>(*queue_, metrics_, wopts);
  metrics_.mark_start();
  // Startup checkpoint: guarantees the restore path always has a
  // version to rebuild the registry from (even an empty one — new
  // models checkpoint again at registration).
  maybe_checkpoint(accepted_.load(std::memory_order_relaxed),
                   /*force=*/true);
  pool_->start();
}

InferenceServer::~InferenceServer() { shutdown(); }

std::unique_ptr<InferenceServer> InferenceServer::restore(
    const recovery::RecoveredState& rs, const ServerOptions& opts) {
  SSMA_CHECK_MSG(rs.has_checkpoint(),
                 "restore needs a valid checkpoint (the server writes "
                 "one at startup — was the checkpoint dir lost?)");
  auto registry = std::make_shared<engine::ModelRegistry>();
  if (rs.checkpoint.is_v1()) {
    // v1 record: one anonymous operator — adopt it as the implicitly
    // named default model, version 1.
    if (!rs.checkpoint.amm_blob.empty())
      registry->install(engine::ModelHandle::from_blob(
          engine::ModelRegistry::kDefaultModel, 1,
          rs.checkpoint.amm_blob));
  } else {
    registry->load(rs.checkpoint.registry_blob);
  }
  auto server = std::make_unique<InferenceServer>(
      std::move(registry), opts, rs.next_request_id);
  server->accepted_.store(rs.checkpoint.accepted_requests,
                          std::memory_order_relaxed);
  server->metrics_.restore(rs.checkpoint.completed_requests,
                           rs.checkpoint.tokens, rs.checkpoint.batches);
  // The constructor's startup checkpoint ran before the counters above
  // were installed; write another so the newest version on disk carries
  // the recovered lifetime totals, not zeros.
  server->maybe_checkpoint(rs.checkpoint.accepted_requests,
                           /*force=*/true);
  return server;
}

std::uint64_t InferenceServer::register_model(const std::string& name,
                                              const maddness::Amm& amm) {
  return register_model(name, amm.save_string());
}

std::uint64_t InferenceServer::register_model(const std::string& name,
                                              std::string blob) {
  SSMA_TRACE_SPAN(kSwap);
  // Stage -> checkpoint -> publish -> checkpoint. The first checkpoint
  // makes the bank durable before "@latest" traffic can pin (and
  // journal) it, so replay after a crash always finds what a record
  // references; the second makes the newest on-disk record carry the
  // bumped latest pointer, so a restore after a completed swap resolves
  // "@latest" to the new version. A crash between the two restores the
  // old latest with the new version still explicitly resolvable — the
  // swap simply didn't commit.
  const std::uint64_t version =
      registry_->register_model(name, std::move(blob), /*publish=*/false);
  maybe_checkpoint(accepted_.load(std::memory_order_relaxed),
                   /*force=*/true);
  registry_->publish(name, version);
  maybe_checkpoint(accepted_.load(std::memory_order_relaxed),
                   /*force=*/true);
  return version;
}

std::uint64_t InferenceServer::stage_model(const std::string& name,
                                           std::string blob) {
  const std::uint64_t version =
      registry_->register_model(name, std::move(blob), /*publish=*/false);
  // Durable (and replicated, via checkpoint shipping) before any shadow
  // batch can reference the staged bank — same invariant as the first
  // half of register_model's stage->checkpoint->publish->checkpoint.
  maybe_checkpoint(accepted_.load(std::memory_order_relaxed),
                   /*force=*/true);
  return version;
}

void InferenceServer::promote_model(const std::string& name,
                                    std::uint64_t version) {
  SSMA_TRACE_SPAN(kSwap);
  registry_->publish(name, version);
  // The promotion decision is a durability event: force a checkpoint so
  // the bumped latest pointer survives a crash and replicates through
  // the checkpoint-shipping stream.
  maybe_checkpoint(accepted_.load(std::memory_order_relaxed),
                   /*force=*/true);
}

void InferenceServer::discard_model(const std::string& name,
                                    std::uint64_t version) {
  registry_->discard_staged(name, version);
  maybe_checkpoint(accepted_.load(std::memory_order_relaxed),
                   /*force=*/true);
}

std::uint64_t InferenceServer::register_pipeline(
    const std::string& name,
    const std::vector<const maddness::Amm*>& stages) {
  return register_model(name, engine::pipeline_blob(stages));
}

void InferenceServer::retire_model(const std::string& name,
                                   std::uint64_t version) {
  registry_->retire(name, version);
  maybe_checkpoint(accepted_.load(std::memory_order_relaxed),
                   /*force=*/true);
}

void InferenceServer::maybe_checkpoint(std::uint64_t accepted,
                                       bool force) {
  if (!recovery_.checkpoints) return;
  if (!force && (recovery_.checkpoint_every == 0 ||
                 accepted % recovery_.checkpoint_every != 0))
    return;
  SSMA_TRACE_SPAN(kCheckpoint);
  const MetricsSnapshot snap = metrics_.snapshot();
  recovery::CheckpointState st;
  std::ostringstream blob;
  registry_->save(blob);
  st.registry_blob = blob.str();
  st.next_request_id = next_id_.load(std::memory_order_relaxed);
  st.accepted_requests = accepted;
  st.completed_requests = snap.requests;
  st.tokens = snap.tokens;
  st.batches = snap.batches;
  recovery_.checkpoints->write(st);
}

std::future<InferenceResult> InferenceServer::submit_with_id(
    std::uint64_t id, engine::ModelRef model,
    std::vector<std::uint8_t> codes, std::size_t rows,
    bool journal_accept, SubmitExtras extras) {
  SSMA_CHECK(rows >= 1);
  SSMA_CHECK(model != nullptr);
  SSMA_CHECK_MSG(codes.size() == rows * model->cols(),
                 "submit payload must be rows x model cols ("
                     << model->ref() << " expects " << model->cols()
                     << " cols)");
  SSMA_TRACE_SPAN_IDS(kAdmit, id, id);

  // The request is built before any admission check so every rejection
  // path resolves through req.fail() — on_done always fires exactly
  // once, which is what lets the network layer promise "no lost acks".
  InferenceRequest req;
  req.id = id;
  req.rows = rows;
  req.codes = std::move(codes);
  req.model = std::move(model);
  req.priority = extras.priority;
  req.deadline = extras.deadline;
  req.tenant = std::move(extras.tenant);
  req.on_done = std::move(extras.on_done);
  std::future<InferenceResult> fut = req.result.get_future();

  const auto reject = [&](RejectReason reason,
                          const std::string& why) {
    metrics_.record_reject(reason);
    req.fail(reason == RejectReason::kShutdown
                 ? std::make_exception_ptr(ShutdownError(why))
                 : std::make_exception_ptr(RejectedError(reason, why)));
    return std::move(fut);
  };

  // Typed rejection instead of journaling into (or blocking on) a
  // queue that is being torn down. A submit that races shutdown() past
  // this check is still safe: the closed queue refuses the push below.
  if (draining_.load(std::memory_order_acquire))
    return reject(RejectReason::kShutdown,
                  "InferenceServer is shut down");
  // Dead on arrival: refuse before the journal sees it — a replay
  // would re-serve a request whose caller stopped waiting long ago.
  if (req.deadline <= Clock::now())
    return reject(RejectReason::kDeadlineExpired,
                  "request deadline expired before admission");
  // Write-ahead: the accept record lands before the request can be
  // served, so a crash anywhere downstream can replay it — on exactly
  // the (name, version) pinned here.
  if (journal_accept && recovery_.journal) {
    const auto t0 = Clock::now();
    {
      SSMA_TRACE_SPAN_IDS(kJournalAppend, id, id);
      // The record's sequence number rides on the request: the worker
      // ack path gates on it when replication enforces sync/window
      // acked-write semantics.
      req.wal_seq = recovery_.journal->append_accepted(
          id, req.model->name(), req.model->version(), rows, req.codes);
    }
    metrics_.record_journal_append(
        std::chrono::duration<double, std::nano>(Clock::now() - t0)
            .count());
  }

  req.enqueued_at = Clock::now();

  if (recovery_.fault) {
    const recovery::FaultAction act =
        recovery_.fault->poll(recovery::FaultSite::kEnqueue);
    if (act.kind == recovery::FaultKind::kDelay) {
      std::this_thread::sleep_for(act.delay);
    } else if (act.kind != recovery::FaultKind::kNone) {
      // Simulated crash between accept and enqueue: the request is in
      // the journal but never reaches a worker. Recovery replays it.
      req.fail(std::make_exception_ptr(std::runtime_error(
          "injected fault: request accepted but lost before enqueue")));
      return fut;
    }
  }

  if (extras.nonblocking) {
    if (!queue_->try_push(std::move(req))) {
      // try_push does not consume on failure; distinguish closed from
      // full for the typed reason (a close racing in after the check
      // still reads as full — both mean "back off", so that is fine).
      return queue_->closed()
                 ? reject(RejectReason::kShutdown,
                          "InferenceServer is shut down")
                 : reject(RejectReason::kQueueFull,
                          "admission queue is full");
    }
  } else if (!queue_->push(std::move(req))) {
    // Closed: the request was not consumed, fail its future here.
    return reject(RejectReason::kShutdown,
                  "InferenceServer is shut down");
  }
  // Cadence decides on this submit's own count (not a re-load, which
  // concurrent submits could race past the multiple).
  const std::uint64_t accepted =
      accepted_.fetch_add(1, std::memory_order_relaxed) + 1;
  maybe_checkpoint(accepted, /*force=*/false);
  return fut;
}

std::future<InferenceResult> InferenceServer::submit(
    engine::ModelRef model, std::vector<std::uint8_t> codes,
    std::size_t rows) {
  return submit(std::move(model), std::move(codes), rows,
                SubmitExtras{});
}

std::future<InferenceResult> InferenceServer::submit(
    engine::ModelRef model, std::vector<std::uint8_t> codes,
    std::size_t rows, SubmitExtras extras) {
  const std::uint64_t id =
      next_id_.fetch_add(1, std::memory_order_relaxed);
  return submit_with_id(id, std::move(model), std::move(codes), rows,
                        /*journal_accept=*/true, std::move(extras));
}

std::future<InferenceResult> InferenceServer::submit(
    const std::string& model_ref, std::vector<std::uint8_t> codes,
    std::size_t rows) {
  return submit(registry_->resolve(model_ref), std::move(codes), rows);
}

std::vector<std::future<InferenceResult>> InferenceServer::submit_batch(
    const std::string& model_ref,
    const maddness::QuantizedActivations& q,
    std::size_t rows_per_request) {
  SSMA_CHECK(rows_per_request >= 1);
  const engine::ModelRef model = registry_->resolve(model_ref);
  SSMA_CHECK_MSG(q.cols == model->cols(), "activation width mismatch");
  std::vector<std::future<InferenceResult>> futures;
  for (std::size_t r = 0; r < q.rows; r += rows_per_request) {
    const std::size_t n = std::min(rows_per_request, q.rows - r);
    std::vector<std::uint8_t> codes(q.row(r), q.row(r) + n * q.cols);
    futures.push_back(submit(model, std::move(codes), n));
  }
  return futures;
}

std::vector<std::future<InferenceResult>> InferenceServer::replay(
    const std::vector<recovery::AcceptedRecord>& requests) {
  SSMA_TRACE_SPAN(kReplay);
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(requests.size());
  for (const recovery::AcceptedRecord& rec : requests) {
    // v1-era records carry no model tag: they predate the registry and
    // can only mean the implicitly-named default model.
    const std::string& name = rec.model.empty()
                                  ? engine::ModelRegistry::kDefaultModel
                                  : rec.model;
    engine::ModelRef model =
        registry_->try_resolve(name, rec.model_version);
    if (!model) {
      std::promise<InferenceResult> p;
      std::ostringstream oss;
      oss << "replay: journaled request " << rec.id << " pinned model "
          << name << "@" << rec.model_version
          << " which the restored registry does not contain";
      p.set_exception(std::make_exception_ptr(CheckError(oss.str())));
      futures.push_back(p.get_future());
      continue;
    }
    // Already journaled by the crashed run — no second accept record.
    futures.push_back(submit_with_id(rec.id, std::move(model), rec.codes,
                                     rec.rows,
                                     /*journal_accept=*/false,
                                     SubmitExtras{}));
  }
  return futures;
}

void InferenceServer::shutdown() {
  if (shut_down_) return;
  draining_.store(true, std::memory_order_release);
  queue_->close();
  pool_->join();
  // Shards are gone; anything still queued (possible when shards died
  // unsupervised) can never be served — fail those futures loudly.
  InferenceRequest leftover;
  while (queue_->pop_wait(&leftover) == PopStatus::kOk)
    leftover.fail(std::make_exception_ptr(
        std::runtime_error("server shut down with the request still "
                           "queued (crashed shards?); replay the journal "
                           "to recover")));
  metrics_.mark_stop();
  shut_down_ = true;
}

void InferenceServer::attach_recovery(
    recovery::RequestJournal* journal,
    recovery::CheckpointManager* checkpoints,
    std::size_t checkpoint_every) {
  recovery_.journal = journal;
  recovery_.checkpoints = checkpoints;
  recovery_.checkpoint_every = checkpoint_every;
  pool_->set_journal(journal);
  // First checkpoint under new ownership: the promoted leader's newest
  // on-disk version carries its current registry and counters.
  maybe_checkpoint(accepted_.load(std::memory_order_relaxed),
                   /*force=*/true);
}

void InferenceServer::ensure_id_watermark(std::uint64_t min_next_id) {
  std::uint64_t cur = next_id_.load(std::memory_order_relaxed);
  while (cur < min_next_id &&
         !next_id_.compare_exchange_weak(cur, min_next_id,
                                         std::memory_order_relaxed)) {
  }
}

void InferenceServer::set_replication(replication::ReplicationLog* repl) {
  recovery_.replication = repl;
  pool_->set_replication(repl);
}

void InferenceServer::note_promotion(std::uint64_t applied_records,
                                     double apply_rate_hz) {
  promotion_.promoted = true;
  promotion_.applied = applied_records;
  promotion_.apply_rate_hz = apply_rate_hz;
}

std::uint64_t InferenceServer::compact_journal() {
  // A checkpoint is required: the pruned records' accepted/completed
  // counters live on only through the checkpoint state a restore reads.
  if (!recovery_.journal || !recovery_.checkpoints) return 0;
  maybe_checkpoint(accepted_.load(std::memory_order_relaxed),
                   /*force=*/true);
  // Never compact past the slowest connected follower's ack mark — its
  // resume point must stay servable byte-exact.
  const std::uint64_t bound =
      recovery_.replication ? recovery_.replication->min_follower_ack()
                            : ~std::uint64_t{0};
  return recovery_.journal->compact(bound);
}

void InferenceServer::set_batch_observer(BatchObserver* observer) {
  pool_->set_observer(observer);
}

std::string InferenceServer::render_prometheus() const {
  PromGauges g;
  g.queue_depth = queue_->size();
  g.queue_capacity = queue_->capacity();
  g.workers = static_cast<std::size_t>(pool_->num_workers());
  g.worker_respawns = static_cast<std::size_t>(pool_->respawn_count());
  g.trace_enabled = telemetry::TraceSession::instance().enabled();
  if (recovery_.replication) {
    const replication::ReplicationStats rs =
        recovery_.replication->stats();
    g.repl_role = 1;  // streaming leader
    g.repl_leader_seq = rs.leader_seq;
    g.repl_replicated_seq = rs.replicated_seq;
    g.repl_followers = rs.followers;
    g.repl_lag_records = rs.lag_records;
    g.repl_lag_bytes = rs.lag_bytes;
    g.repl_lag_seconds = rs.lag_ns / 1e9;
    g.repl_checkpoints_shipped = rs.checkpoints_shipped;
    g.repl_sync_degraded = rs.sync_degraded;
  } else if (promotion_.promoted) {
    g.repl_role = 2;  // promoted follower
    g.repl_applied_records = promotion_.applied;
    g.repl_apply_rate_hz = promotion_.apply_rate_hz;
  }
  return metrics_.render_prometheus(g);
}

core::PpaReport InferenceServer::aggregate_report() const {
  SSMA_CHECK_MSG(shut_down_, "aggregate_report requires shutdown()");
  return pool_->aggregate_report();
}

const std::vector<std::size_t>& InferenceServer::shard_tokens() const {
  SSMA_CHECK_MSG(shut_down_, "shard_tokens requires shutdown()");
  return pool_->shard_tokens();
}

}  // namespace ssma::serve
