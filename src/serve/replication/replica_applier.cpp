#include "serve/replication/replica_applier.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "maddness/framing.hpp"
#include "net/socket.hpp"
#include "net/wire_protocol.hpp"
#include "serve/recovery/recovery.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace ssma::serve::replication {

using net::FrameDecoder;
using net::FrameRead;
using net::MsgType;
using net::ReplMessage;
using net::write_all;

ReplicaApplier::ReplicaApplier(const ApplierOptions& opts) : opts_(opts) {
  SSMA_CHECK_MSG(!opts_.dir.empty(), "replication: applier dir required");
  std::filesystem::create_directories(opts_.dir);
  journal_path_ = opts_.dir + "/journal.ssj";
  ckpt_dir_ = opts_.dir + "/checkpoints";
  journal_ = std::make_unique<recovery::RequestJournal>(journal_path_);
  // Path/versions helper only; never written through, so its version
  // counter (fixed at construction, before any checkpoint arrives) is
  // irrelevant. The promoted server gets a fresh manager.
  ckpt_paths_ = std::make_unique<recovery::CheckpointManager>(ckpt_dir_);
  thread_ = std::thread([this] { run(); });
}

ReplicaApplier::~ReplicaApplier() { stop(); }

std::uint64_t ReplicaApplier::newest_local_checkpoint() const {
  const auto versions = ckpt_paths_->versions();
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    try {
      (void)recovery::CheckpointManager::load_file(ckpt_paths_->path_of(*it));
      return *it;
    } catch (const std::exception&) {
      continue;  // torn — an older version may still validate
    }
  }
  return 0;
}

void ReplicaApplier::build_standby() {
  recovery::CheckpointManager cm(ckpt_dir_);
  auto rs = recovery::recover_state(cm, journal_path_);
  if (!rs.has_checkpoint()) return;
  ServerOptions sopts = opts_.server;
  // The standby must not journal or checkpoint on its own: the applier
  // owns the follower's stores and the records in them are the
  // leader's. Promotion wires them in.
  sopts.recovery = RecoveryOptions{};
  auto standby = InferenceServer::restore(rs, sopts);
  auto futs = standby->replay(rs.journal.unacknowledged);
  std::lock_guard<std::mutex> lk(mu_);
  // Completions already in the journal belong to requests that are not
  // replayed here, so only the replays need tracking.
  for (std::size_t i = 0; i < futs.size(); ++i)
    track_replay(rs.journal.unacknowledged[i].id, std::move(futs[i]));
  applied_records_ += rs.journal.unacknowledged.size();
  completed_records_ += rs.journal.completed_crc.size();
  max_applied_id_ = std::max(max_applied_id_, rs.journal.max_id);
  ckpt_next_request_id_ = std::max(ckpt_next_request_id_, rs.next_request_id);
  ckpt_version_ = std::max(ckpt_version_, rs.checkpoint_version);
  standby_ = std::move(standby);
  cv_.notify_all();
}

bool ReplicaApplier::handle_checkpoint(const ReplMessage& m) {
  const std::string path = ckpt_paths_->path_of(m.arg);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(m.bytes.data(),
             static_cast<std::streamsize>(m.bytes.size()));
    os.flush();
    if (!os) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  recovery::CheckpointState st;
  try {
    st = recovery::CheckpointManager::load_file(tmp);
  } catch (const std::exception&) {
    // The frame CRC passed but the checkpoint payload does not
    // validate: treat as a torn stream and resync.
    std::remove(tmp.c_str());
    return false;
  }
  std::filesystem::rename(tmp, path);

  try {
    if (!standby_) {
      build_standby();
    } else if (!st.registry_blob.empty()) {
      // Incremental registry application: already-installed versions
      // are skipped (live pins untouched), the stream's latest pointers
      // are honored exactly — the hot-swap-aware half of promotion
      // fidelity. The load is all-or-nothing.
      standby_->registry().load(st.registry_blob);
    }
  } catch (const std::exception&) {
    // CRC-valid but undecodable (say, a registry section that does not
    // parse): treat it as torn — drop it and resync.
    std::remove(path.c_str());
    return false;
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++checkpoints_received_;
  ckpt_version_ = std::max(ckpt_version_, m.arg);
  ckpt_next_request_id_ =
      std::max(ckpt_next_request_id_, st.next_request_id);
  return true;
}

bool ReplicaApplier::take_record(ReplMessage& m, Run* run) {
  if (opts_.fault) {
    const auto action = opts_.fault->poll(recovery::FaultSite::kReplRecv);
    switch (action.kind) {
      case recovery::FaultKind::kDelay:
        std::this_thread::sleep_for(action.delay);
        break;
      case recovery::FaultKind::kDropMessage: {
        // Received but "lost" before persistence: no ack, no append.
        // The next record is a sequence gap, forcing a resync that
        // re-streams this one.
        std::lock_guard<std::mutex> lk(mu_);
        ++recv_faults_;
        return true;
      }
      case recovery::FaultKind::kTornMessage: {
        std::lock_guard<std::mutex> lk(mu_);
        ++recv_faults_;
        return false;
      }
      case recovery::FaultKind::kDupMessage: {
        run->acks = 2;  // duplicate ack; the leader's watermark is monotonic
        std::lock_guard<std::mutex> lk(mu_);
        ++recv_faults_;
        break;
      }
      default:
        break;
    }
  }

  const std::uint64_t durable =
      journal_->durable_seq() + run->payloads.size();
  if (m.arg <= durable) {
    // Duplicate delivery (leader-side kDupMessage or a resend race):
    // already durable, so just re-ack the high-water mark.
    run->acks = std::max(run->acks, 1);
    std::lock_guard<std::mutex> lk(mu_);
    ++dup_records_;
    return true;
  }
  if (m.arg != durable + 1) {
    // Sequence gap (a drop upstream): resync from our true mark.
    std::lock_guard<std::mutex> lk(mu_);
    ++gap_reconnects_;
    return false;
  }
  run->payloads.push_back(std::move(m.bytes));
  run->acks = std::max(run->acks, 1);
  return true;
}

bool ReplicaApplier::flush_run(Run* run, int fd) {
  if (!run->payloads.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      applying_ = true;
    }
    const std::uint64_t want =
        journal_->durable_seq() + run->payloads.size();
    SSMA_CHECK_MSG(journal_->append_raw(run->payloads) == want,
                   "replication: follower journal diverged from stream");
  }
  // Ack as soon as the run is persisted: the leader's sync ack waits on
  // this message, not on the replay below. The order stays persist ->
  // ack. Promotion still applies every acked record: promote() calls
  // stop(), which joins this session thread, and the thread finishes
  // this flush_run, replay included, before it exits.
  bool ok = true;
  if (run->acks > 0) {
    ReplMessage ack;
    ack.type = MsgType::kReplAck;
    ack.arg = journal_->durable_seq();
    const std::string frame = ack.encode();
    for (int i = 0; i < run->acks && ok; ++i) ok = write_all(fd, frame);
  }
  // A failed ack write still applies the run: the records are durable,
  // and a resumed stream starts past them.
  for (const std::string& payload : run->payloads) {
    recovery::ParsedRecord pr;
    if (!recovery::RequestJournal::parse_record(payload, &pr)) continue;
    if (!pr.is_accepted) {
      std::lock_guard<std::mutex> lk(mu_);
      note_completion(pr.completed_id, pr.completed_crc);
      ++completed_records_;
    } else if (standby_) {
      SSMA_TRACE_SPAN_IDS(kReplApply, pr.accepted.id, pr.accepted.id);
      auto futs = standby_->replay({pr.accepted});
      std::lock_guard<std::mutex> lk(mu_);
      track_replay(pr.accepted.id, std::move(futs[0]));
      ++applied_records_;
      max_applied_id_ = std::max(max_applied_id_, pr.accepted.id);
      const auto now = std::chrono::steady_clock::now();
      if (first_apply_at_.time_since_epoch().count() == 0)
        first_apply_at_ = now;
      last_apply_at_ = now;
    }
  }
  if (!run->payloads.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      applying_ = false;
    }
    cv_.notify_all();
  }
  run->payloads.clear();
  run->acks = 0;
  return ok;
}

void ReplicaApplier::track_replay(std::uint64_t id,
                                  std::future<InferenceResult> result) {
  Unaudited& u = unaudited_[id];
  u.order = next_order_++;
  u.result = std::move(result);
}

void ReplicaApplier::note_completion(std::uint64_t id, std::uint32_t crc) {
  const auto it = unaudited_.find(id);
  if (it != unaudited_.end() && !it->second.has_leader_crc) {
    it->second.has_leader_crc = true;
    it->second.leader_crc = crc;
    awaiting_result_.push_back(id);
  }
  // Replays finish roughly in order; stop at the first one still
  // running rather than poll them all on every record.
  while (!awaiting_result_.empty()) {
    const auto front = unaudited_.find(awaiting_result_.front());
    if (front->second.result.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
      break;
    audit(front->first, front->second);
    unaudited_.erase(front);
    awaiting_result_.pop_front();
  }
}

void ReplicaApplier::audit(std::uint64_t id, Unaudited& u) {
  try {
    const InferenceResult r = u.result.get();
    const std::uint32_t crc = maddness::crc32(
        r.outputs.data(), r.outputs.size() * sizeof(std::int16_t));
    if (!u.has_leader_crc) {
      journal_->append_completed(id, /*worker_id=*/-1, crc);
      ++audit_.completed_backfilled;
    } else if (u.leader_crc != crc) {
      ++audit_.crc_mismatches;
    }
    ++audit_.applied;
  } catch (const std::exception&) {
    ++audit_.replay_failures;
  }
}

void ReplicaApplier::session(int fd) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    fd_ = fd;
    connected_ = true;
  }
  ReplMessage hello;
  hello.type = MsgType::kReplHello;
  hello.arg = journal_->durable_seq();
  hello.arg2 = ckpt_version_;
  {
    // Durable byte offset: our journal is a byte-prefix of the
    // leader's, so this lets the leader seek straight to our resume
    // point instead of re-scanning `arg` frames on every reconnect.
    wire::Writer hb(8);
    hb.u64(journal_->durable_bytes());
    hello.bytes = hb.take();
  }
  if (write_all(fd, hello.encode())) {
    FrameDecoder dec(opts_.max_frame_bytes);
    std::string_view payload;  // into dec's buffer; parsed before reuse
    ReplMessage m;
    Run run;
    for (;;) {
      // Decode every whole frame one socket read delivered; before the
      // next read blocks, persist, apply and ack the records among them.
      FrameDecoder::Result got = dec.next(&payload);
      if (got == FrameDecoder::Result::kNeedMore) {
        if (!flush_run(&run, fd) ||
            net::read_frame(fd, dec, &payload) != FrameRead::kFrame)
          break;
        got = FrameDecoder::Result::kFrame;
      }
      if (got != FrameDecoder::Result::kFrame ||
          !net::parse_repl(payload, &m))
        break;
      if (m.type == MsgType::kReplRecord) {
        if (!take_record(m, &run)) break;
        continue;
      }
      // Any other message ends the run of records before it.
      if (!flush_run(&run, fd)) break;
      if (m.type == MsgType::kReplReject) {
        std::lock_guard<std::mutex> lk(mu_);
        rejected_ = true;
        reject_reason_ = static_cast<RejectReason>(m.arg);
        reject_detail_ = m.bytes;
        stopping_ = true;  // the leader says we diverged; retrying won't help
        cv_.notify_all();
        break;
      }
      if (m.type == MsgType::kReplCheckpoint) {
        if (!handle_checkpoint(m)) break;
      } else if (m.type == MsgType::kReplBase) {
        // Compacted leader, fresh follower: adopt the compaction base
        // so our file is byte-identical to the leader's compacted
        // header, then ack it as our durable mark. adopt_base throws if
        // we already hold records — the leader only sends this to a
        // follower that handshook with seq 0.
        journal_->adopt_base(m.arg, m.arg2);
        ReplMessage ack;
        ack.type = MsgType::kReplAck;
        ack.arg = m.arg;
        if (!write_all(fd, ack.encode())) break;
      } else {
        break;
      }
    }
    // A gap, a tear or a closed stream still leaves the records before
    // it durable and acked.
    (void)flush_run(&run, fd);
  }
  std::lock_guard<std::mutex> lk(mu_);
  ::close(fd);
  fd_ = -1;
  connected_ = false;
}

void ReplicaApplier::run() {
  // Follower-restart resume: adopt whatever checkpoints + journal this
  // dir already holds before asking the leader for the delta.
  build_standby();
  {
    std::lock_guard<std::mutex> lk(mu_);
    ckpt_version_ = std::max(ckpt_version_, newest_local_checkpoint());
  }

  Rng rng(opts_.backoff_seed);
  std::uint64_t attempt = 0;
  bool ever_connected = false;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (stopping_) return;
      ++connect_attempts_;
    }
    int fd = -1;
    try {
      fd = net::connect_tcp(opts_.leader_host, opts_.leader_port);
    } catch (const CheckError&) {
      // Leader down or restarting: back off and redial.
    }
    if (fd >= 0) {
      attempt = 0;
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_) {
          ::close(fd);
          return;
        }
        if (ever_connected) ++reconnects_;
      }
      ever_connected = true;
      session(fd);
      continue;
    }
    const std::chrono::milliseconds delay =
        net::backoff_delay(opts_.backoff_base, opts_.backoff_cap,
                           attempt++, rng);
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, delay, [&] { return stopping_; });
  }
}

bool ReplicaApplier::wait_caught_up(std::uint64_t seq,
                                    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lk(mu_);
  const auto caught_up = [&] {
    return !applying_ && journal_->durable_seq() >= seq;
  };
  return cv_.wait_until(lk, deadline,
                        [&] { return stopping_ || caught_up(); }) &&
         caught_up();
}

bool ReplicaApplier::wait_standby(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  return cv_.wait_for(lk, timeout,
                      [&] { return stopping_ || standby_ != nullptr; }) &&
         standby_ != nullptr;
}

ApplierStats ReplicaApplier::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ApplierStats s;
  s.connected = connected_;
  s.has_standby = standby_ != nullptr;
  s.connect_attempts = connect_attempts_;
  s.reconnects = reconnects_;
  s.durable_seq = journal_->durable_seq();
  s.checkpoints_received = checkpoints_received_;
  s.applied_records = applied_records_;
  s.completed_records = completed_records_;
  s.dup_records = dup_records_;
  s.gap_reconnects = gap_reconnects_;
  s.recv_faults = recv_faults_;
  s.audit_backlog = unaudited_.size();
  s.rejected = rejected_;
  s.reject_reason = reject_reason_;
  if (applied_records_ > 0 &&
      last_apply_at_ > first_apply_at_) {
    const double secs = std::chrono::duration<double>(last_apply_at_ -
                                                      first_apply_at_)
                            .count();
    if (secs > 0)
      s.apply_rate_hz = static_cast<double>(applied_records_ - 1) / secs;
  }
  return s;
}

void ReplicaApplier::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

std::unique_ptr<InferenceServer> ReplicaApplier::promote(
    PromotionReport* report) {
  const auto t0 = std::chrono::steady_clock::now();
  SSMA_TRACE_SPAN(kPromotion);
  stop();  // seal the stream: nothing mutates state past this point
  SSMA_CHECK_MSG(!promoted_, "replication: promote() called twice");
  if (rejected_)
    throw RejectedError(reject_reason_,
                        "replication: leader rejected this follower: " +
                            reject_detail_);
  if (!standby_)
    throw RejectedError(RejectReason::kReplicaNotReady,
                        "replication: no checkpoint received — cannot "
                        "promote an empty standby");
  promoted_ = true;

  const std::uint64_t durable_seq = journal_->durable_seq();
  // Finish the replay and audit what the stream left open: requests
  // whose replay outran their completion record are checked here, and
  // requests the leader never acknowledged get their completion
  // records written here — the zero-RPO backfill — in apply order.
  std::unordered_map<std::uint64_t, Unaudited> left;
  {
    std::lock_guard<std::mutex> lk(mu_);
    left.swap(unaudited_);
    awaiting_result_.clear();
  }
  std::vector<std::uint64_t> ids;
  ids.reserve(left.size());
  for (const auto& kv : left) ids.push_back(kv.first);
  std::sort(ids.begin(), ids.end(), [&](std::uint64_t a, std::uint64_t b) {
    return left.at(a).order < left.at(b).order;
  });
  for (std::uint64_t id : ids) audit(id, left.at(id));
  PromotionReport rep = audit_;
  rep.durable_seq = durable_seq;

  // The promoted leader must never reuse a request id the old leader
  // handed out.
  standby_->ensure_id_watermark(
      std::max(max_applied_id_ + 1, ckpt_next_request_id_));
  // Fresh manager so its version counter adopts every shipped file —
  // the promoted server's own checkpoints continue the leader's
  // numbering instead of colliding with it.
  promoted_ckpts_ =
      std::make_unique<recovery::CheckpointManager>(ckpt_dir_);
  standby_->attach_recovery(journal_.get(), promoted_ckpts_.get(),
                            opts_.checkpoint_every);
  rep.seal_to_serving_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  standby_->note_promotion(rep.applied, stats().apply_rate_hz);
  if (report) *report = rep;
  return std::move(standby_);
}

}  // namespace ssma::serve::replication
