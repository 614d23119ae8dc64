#include "serve/server.hpp"

#include <algorithm>
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
  checkpoint(accepted_.load(std::memory_order_relaxed));
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
  server->checkpoint(rs.checkpoint.accepted_requests);
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
  checkpoint(accepted_.load(std::memory_order_relaxed));
  registry_->publish(name, version);
  checkpoint(accepted_.load(std::memory_order_relaxed));
  return version;
}

std::uint64_t InferenceServer::stage_model(const std::string& name,
                                           std::string blob) {
  const std::uint64_t version =
      registry_->register_model(name, std::move(blob), /*publish=*/false);
  // Durable (and replicated, via checkpoint shipping) before any shadow
  // batch can reference the staged bank — same invariant as the first
  // half of register_model's stage->checkpoint->publish->checkpoint.
  checkpoint(accepted_.load(std::memory_order_relaxed));
  return version;
}

void InferenceServer::promote_model(const std::string& name,
                                    std::uint64_t version) {
  SSMA_TRACE_SPAN(kSwap);
  registry_->publish(name, version);
  // The promotion decision is a durability event: force a checkpoint so
  // the bumped latest pointer survives a crash and replicates through
  // the checkpoint-shipping stream.
  checkpoint(accepted_.load(std::memory_order_relaxed));
}

void InferenceServer::discard_model(const std::string& name,
                                    std::uint64_t version) {
  registry_->discard_staged(name, version);
  checkpoint(accepted_.load(std::memory_order_relaxed));
}

std::uint64_t InferenceServer::register_pipeline(
    const std::string& name,
    const std::vector<const maddness::Amm*>& stages) {
  return register_model(name, engine::pipeline_blob(stages));
}

void InferenceServer::retire_model(const std::string& name,
                                   std::uint64_t version) {
  registry_->retire(name, version);
  checkpoint(accepted_.load(std::memory_order_relaxed));
}

void InferenceServer::checkpoint(std::uint64_t accepted) {
  if (!recovery_.checkpoints) return;
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

SubmitGroup::~SubmitGroup() {
  if (committed_) return;
  // Dropped without a commit: nothing was journaled or queued, so the
  // requests fail here.
  for (InferenceRequest& req : reqs_)
    server_.reject(req, RejectReason::kShutdown,
                   "submit group dropped before commit");
}

std::future<InferenceResult> SubmitGroup::add(
    engine::ModelRef model, std::vector<std::uint8_t> codes,
    std::size_t rows, SubmitExtras extras) {
  return add_with_id(
      server_.next_id_.fetch_add(1, std::memory_order_relaxed),
      std::move(model), std::move(codes), rows, std::move(extras));
}

std::future<InferenceResult> SubmitGroup::add_with_id(
    std::uint64_t id, engine::ModelRef model,
    std::vector<std::uint8_t> codes, std::size_t rows,
    SubmitExtras extras) {
  SSMA_CHECK_MSG(!committed_, "add to a committed submit group");
  SSMA_CHECK(rows >= 1);
  SSMA_CHECK(model != nullptr);
  SSMA_CHECK_MSG(codes.size() == rows * model->cols(),
                 "submit payload must be rows x model cols ("
                     << model->ref() << " expects " << model->cols()
                     << " cols)");
  // Every refusal from here on resolves through req.fail(), so on_done
  // fires exactly once: what lets the network layer promise "no lost
  // acks".
  InferenceRequest& req = reqs_.emplace_back();
  req.id = id;
  req.rows = rows;
  req.codes = std::move(codes);
  req.model = std::move(model);
  req.priority = extras.priority;
  req.deadline = extras.deadline;
  req.tenant = std::move(extras.tenant);
  req.on_done = std::move(extras.on_done);
  return req.result.get_future();
}

void SubmitGroup::commit() {
  SSMA_CHECK_MSG(!committed_, "submit group committed twice");
  // commit_group marks the group committed once it has pushed; a throw
  // before that (a journal write failure) leaves the rest to the
  // destructor.
  server_.commit_group(*this);
}

void InferenceServer::reject(InferenceRequest& req, RejectReason reason,
                             const std::string& why) {
  metrics_.record_reject(reason);
  req.fail(reason == RejectReason::kShutdown
               ? std::make_exception_ptr(ShutdownError(why))
               : std::make_exception_ptr(RejectedError(reason, why)));
}

void InferenceServer::commit_group(SubmitGroup& group) {
  std::vector<InferenceRequest>& reqs = group.reqs_;
  if (reqs.empty()) {
    // Nothing added (a read that admitted no request).
    group.committed_ = true;
    return;
  }
  std::uint64_t id_lo = reqs.front().id;
  std::uint64_t id_hi = id_lo;
  for (const InferenceRequest& req : reqs) {
    id_lo = std::min(id_lo, req.id);
    id_hi = std::max(id_hi, req.id);
  }
  SSMA_TRACE_SPAN_IDS(kAdmit, id_lo, id_hi);

  // Keeps the requests `keep` accepts, in order, dropping the rest.
  const auto filter = [&reqs](const auto& keep) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!keep(reqs[i])) continue;
      if (kept != i) reqs[kept] = std::move(reqs[i]);
      ++kept;
    }
    reqs.resize(kept);
  };

  // 1. Refuse before the journal sees them: a draining server (a commit
  // racing shutdown() past this check is still safe: the closed queue
  // refuses the push), and requests dead on arrival, which a replay
  // would re-serve long after their caller stopped waiting.
  const bool draining = draining_.load(std::memory_order_acquire);
  const Clock::time_point now = Clock::now();
  filter([&](InferenceRequest& req) {
    if (draining) {
      reject(req, RejectReason::kShutdown, "InferenceServer is shut down");
      return false;
    }
    if (req.deadline <= now) {
      reject(req, RejectReason::kDeadlineExpired,
             "request deadline expired before admission");
      return false;
    }
    return true;
  });

  // 2. Write-ahead: every accept record lands, with one flush, before
  // any request of the group can be served, so a crash anywhere
  // downstream can replay each on exactly the (name, version) it
  // pinned. Each request carries its own record's sequence number: the
  // worker ack path gates on it when replication enforces sync/window
  // acked-write semantics.
  std::vector<recovery::AcceptedView> records;
  if (group.journal_accept_ && recovery_.journal) {
    records.reserve(reqs.size());
    for (const InferenceRequest& req : reqs)
      records.push_back({req.id, req.model->name(), req.model->version(),
                         req.rows, req.codes.data(), req.codes.size()});
  }
  if (!records.empty()) {
    const auto t0 = Clock::now();
    std::uint64_t last_seq;
    {
      SSMA_TRACE_SPAN_IDS(kJournalAppend, id_lo, id_hi);
      last_seq = recovery_.journal->append_accepted(records);
    }
    metrics_.record_journal_append(
        std::chrono::duration<double, std::nano>(Clock::now() - t0)
            .count());
    for (std::size_t i = 0; i < reqs.size(); ++i)
      reqs[i].wal_seq = last_seq - (reqs.size() - 1 - i);
  }

  // 3. The enqueue fault site, once per request.
  const Clock::time_point enqueued_at = Clock::now();
  filter([&](InferenceRequest& req) {
    req.enqueued_at = enqueued_at;
    if (!recovery_.fault) return true;
    const recovery::FaultAction act =
        recovery_.fault->poll(recovery::FaultSite::kEnqueue);
    if (act.kind == recovery::FaultKind::kDelay) {
      std::this_thread::sleep_for(act.delay);
    } else if (act.kind != recovery::FaultKind::kNone) {
      // Simulated crash between accept and enqueue: the request is in
      // the journal but never reaches a worker. Recovery replays it.
      req.fail(std::make_exception_ptr(std::runtime_error(
          "injected fault: request accepted but lost before enqueue")));
      return false;
    }
    return true;
  });

  // 4. One push.
  const std::size_t pushed = queue_->push_group(reqs, !group.nonblocking_);
  group.committed_ = true;
  if (pushed < reqs.size()) {
    // The unpushed tail was not consumed. A close racing in reads as
    // full: both mean "back off", so that is fine.
    const bool closed = queue_->closed();
    for (std::size_t i = pushed; i < reqs.size(); ++i)
      reject(reqs[i],
             closed ? RejectReason::kShutdown : RejectReason::kQueueFull,
             closed ? "InferenceServer is shut down"
                    : "admission queue is full");
  }
  reqs.clear();

  // 5. One checkpoint when the group's count crossed a multiple of the
  // cadence. It decides on this group's own counts (not a re-load,
  // which concurrent commits could race past a multiple).
  if (pushed == 0) return;
  const std::uint64_t accepted =
      accepted_.fetch_add(pushed, std::memory_order_relaxed) + pushed;
  const std::uint64_t every = recovery_.checkpoint_every;
  if (every > 0 && accepted / every != (accepted - pushed) / every)
    checkpoint(accepted);
}

std::future<InferenceResult> InferenceServer::submit(
    engine::ModelRef model, std::vector<std::uint8_t> codes,
    std::size_t rows) {
  SubmitGroup group(*this, /*nonblocking=*/false, /*journal_accept=*/true);
  std::future<InferenceResult> fut =
      group.add(std::move(model), std::move(codes), rows);
  group.commit();
  return fut;
}

std::future<InferenceResult> InferenceServer::submit(
    const std::string& model_ref, std::vector<std::uint8_t> codes,
    std::size_t rows) {
  return submit(registry_->resolve(model_ref), std::move(codes), rows);
}

SubmitGroup InferenceServer::submit_group(bool nonblocking) {
  return SubmitGroup(*this, nonblocking, /*journal_accept=*/true);
}

std::vector<std::future<InferenceResult>> InferenceServer::replay(
    const std::vector<recovery::AcceptedRecord>& requests) {
  SSMA_TRACE_SPAN(kReplay);
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(requests.size());
  // One group per queue's worth of records: a group holds a copy of its
  // records' codes until it commits, so no more of them are held at once
  // than the queue itself holds.
  const std::size_t chunk = queue_->capacity();
  for (std::size_t lo = 0; lo < requests.size(); lo += chunk) {
    // Already journaled by the crashed run: no second accept record.
    SubmitGroup group(*this, /*nonblocking=*/false,
                      /*journal_accept=*/false);
    const std::size_t hi = std::min(requests.size(), lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) {
      const recovery::AcceptedRecord& rec = requests[i];
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
      try {
        futures.push_back(group.add_with_id(rec.id, std::move(model),
                                            rec.codes, rec.rows,
                                            SubmitExtras{}));
      } catch (...) {
        // A record that does not fit its model's shape: the records
        // before it are still served.
        group.commit();
        throw;
      }
    }
    group.commit();
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
  checkpoint(accepted_.load(std::memory_order_relaxed));
}

void InferenceServer::ensure_id_watermark(std::uint64_t min_next_id) {
  std::uint64_t cur = next_id_.load(std::memory_order_relaxed);
  while (cur < min_next_id &&
         !next_id_.compare_exchange_weak(cur, min_next_id,
                                         std::memory_order_relaxed)) {
  }
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
  checkpoint(accepted_.load(std::memory_order_relaxed));
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
