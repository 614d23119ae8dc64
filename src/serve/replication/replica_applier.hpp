// Follower side of the distributed-HA pair: a warm standby that
// continuously applies the leader's replication stream and can be
// promoted into a serving InferenceServer with zero RPO.
//
// The applier connects to a ReplicationLog, handshakes with its own
// durable high-water mark (so a follower restart resumes exactly where
// its journal left off), and then:
//
//   - persists every shipped checkpoint file into its own checkpoint
//     directory (atomic tmp + rename, leader-byte-exact);
//   - appends every streamed journal record verbatim, keeping the
//     follower journal a byte-prefix of the leader's — the records of
//     one socket read as one group, with one flush;
//   - replays each accepted record into a warm standby server built
//     from the first checkpoint, so promotion-time work is bounded by
//     in-flight requests, not journal length. Later checkpoints merge
//     into the standby's registry (live pins untouched), which is how
//     a promoted follower resolves "@latest" exactly as the leader
//     would — including across hot-swap boundaries;
//   - acks its high-water mark once per socket read, as soon as the
//     read's records are persisted and before they are replayed,
//     advancing the leader's replication watermark (what sync/window
//     acked-writes wait on).
//
// Duplicate records (seq <= durable) are acked and skipped; a sequence
// gap or torn stream tears the connection down (after persisting and
// acking the records before it) and the reconnect handshake resumes
// from the follower's true high-water mark — the stream self-heals
// under drops, tears and duplication, which the chaos tests drive via
// the kReplSend/kReplRecv fault sites. A checkpoint that validates but
// does not decode (say, a registry section that does not parse) is
// treated like a torn one: dropped, and the session resyncs.
//
// Each replayed request is audited as soon as both its replay result
// and the leader's completion record are in: its output CRC must match
// the leader's. Only unmatched requests stay tracked, so the audit
// state is bounded by the requests in flight, not by the stream length.
//
// promote() seals the stream, finishes the replay, audits what is
// still open, backfills completion records for everything the leader
// never got to acknowledge, and attaches the follower's journal +
// checkpoint store to the standby — which is returned as a fully
// serving, fully protected leader. The applier (which owns that journal
// and store) must outlive the promoted server.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/server.hpp"

namespace ssma::net {
struct ReplMessage;
}

namespace ssma::serve::replication {

struct ApplierOptions {
  std::string leader_host = "127.0.0.1";
  std::uint16_t leader_port = 0;
  /// Follower state root: journal.ssj + checkpoints/ live here.
  std::string dir;
  /// Standby construction options. `server.recovery` is ignored — the
  /// applier owns the follower's journal and checkpoint store and
  /// wires them in at promotion.
  ServerOptions server;
  /// Checkpoint cadence handed to the promoted server.
  std::size_t checkpoint_every = 0;
  /// Reconnect backoff: capped exponential with deterministic seeded
  /// jitter (so chaos runs reproduce from SSMA_TEST_SEED).
  std::chrono::milliseconds backoff_base{10};
  std::chrono::milliseconds backoff_cap{1000};
  std::uint64_t backoff_seed = 0x5eedfa57;
  std::size_t max_frame_bytes = 256u << 20;
  /// Polled at kReplRecv once per arriving record. Borrowed.
  recovery::FaultInjector* fault = nullptr;
};

struct ApplierStats {
  bool connected = false;
  bool has_standby = false;
  std::uint64_t connect_attempts = 0;  ///< dials, successful or not
  std::uint64_t reconnects = 0;      ///< connects after the first one
  std::uint64_t durable_seq = 0;     ///< follower journal high-water mark
  std::uint64_t checkpoints_received = 0;
  std::uint64_t applied_records = 0;    ///< accepted records replayed
  std::uint64_t completed_records = 0;  ///< leader completion CRCs seen
  std::uint64_t dup_records = 0;
  std::uint64_t gap_reconnects = 0;
  std::uint64_t recv_faults = 0;  ///< injected kReplRecv fires
  /// Replayed requests not yet audited: their replay is still running
  /// or the leader's completion record has not arrived. Stays near the
  /// number in flight; promote() audits what is left.
  std::uint64_t audit_backlog = 0;
  bool rejected = false;          ///< leader sent kReplReject
  RejectReason reject_reason = RejectReason::kShutdown;
  /// Accepted records applied per second since the first apply.
  double apply_rate_hz = 0.0;
};

/// What promote() did, for runbooks and the failover bench.
struct PromotionReport {
  std::uint64_t durable_seq = 0;  ///< records durable at promotion
  std::uint64_t applied = 0;      ///< accepted records with outputs
  /// Completion records written for requests the leader accepted but
  /// whose acks never replicated — the zero-RPO backfill.
  std::uint64_t completed_backfilled = 0;
  /// Replayed outputs whose CRC disagrees with the leader's replicated
  /// completion record. Always 0 on a healthy deterministic pair.
  std::uint64_t crc_mismatches = 0;
  std::uint64_t replay_failures = 0;  ///< futures that threw (bug/retire)
  double seal_to_serving_ms = 0.0;
};

class ReplicaApplier {
 public:
  /// Creates `dir` layout, opens (or resumes) the follower journal and
  /// starts the streaming thread.
  explicit ReplicaApplier(const ApplierOptions& opts);
  ~ReplicaApplier();

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  std::string journal_path() const { return journal_path_; }
  std::string checkpoint_dir() const { return ckpt_dir_; }

  /// Blocks until the follower journal covers `seq` and every record in
  /// it went to the standby's replay (true), or timeout. A run is acked
  /// before its replay, so a leader can see `seq` acked first.
  bool wait_caught_up(std::uint64_t seq, std::chrono::milliseconds timeout);
  /// Blocks until the warm standby exists (first checkpoint applied).
  bool wait_standby(std::chrono::milliseconds timeout);

  ApplierStats stats() const;

  /// Seals the stream (idempotent): disconnects and joins the thread.
  void stop();

  /// Seals the stream and turns the standby into a serving leader:
  /// drains the replay futures, audits CRCs, backfills completion
  /// records, attaches this follower's journal + checkpoint store and
  /// returns the server. Throws RejectedError(kReplicaNotReady) when no
  /// checkpoint ever arrived, RejectedError(kStaleFollower) when the
  /// leader rejected the handshake. Call at most once.
  std::unique_ptr<InferenceServer> promote(PromotionReport* report = nullptr);

 private:
  void run();
  /// One connected session: handshake + apply loop. Returns when the
  /// connection dies or stop() is called.
  void session(int fd);
  bool handle_checkpoint(const net::ReplMessage& m);
  /// Consecutive streamed records of one socket read, not yet durable.
  struct Run {
    std::vector<std::string> payloads;
    /// Acks owed: 1 once a record or a duplicate arrived, 2 after an
    /// injected kReplRecv dup.
    int acks = 0;
  };
  /// Takes one streamed record into `run`, applying any armed kReplRecv
  /// fault. Returns false when the session must be torn down (gap or
  /// tear); the caller still persists and acks the run.
  bool take_record(net::ReplMessage& m, Run* run);
  /// Persists `run` as one journal group, acks the high-water mark once
  /// (twice after a dup fault), then applies its records in order and
  /// clears it. Returns false when the ack could not be sent.
  bool flush_run(Run* run, int fd);
  void build_standby();
  /// Newest on-disk checkpoint version that validates (0 = none).
  std::uint64_t newest_local_checkpoint() const;

  /// A replayed request awaiting its audit.
  struct Unaudited {
    std::uint64_t order = 0;  ///< apply order: promote() backfills in it
    std::future<InferenceResult> result;
    bool has_leader_crc = false;  ///< the leader's completion arrived
    std::uint32_t leader_crc = 0;
  };
  /// Tracks a replay just submitted to the standby. Caller holds mu_.
  void track_replay(std::uint64_t id, std::future<InferenceResult> result);
  /// Records the leader's completion CRC for `id` and audits every
  /// request whose completion and replay result are both in. A
  /// completion of a request this follower never replays is dropped.
  /// Caller holds mu_.
  void note_completion(std::uint64_t id, std::uint32_t crc);
  /// Folds one replay into audit_: its output CRC is checked against
  /// the leader's, or, when the leader never acknowledged it, written
  /// as a backfilled completion record. Blocks until the replay ends.
  void audit(std::uint64_t id, Unaudited& u);

  ApplierOptions opts_;
  std::string journal_path_;
  std::string ckpt_dir_;
  std::unique_ptr<recovery::RequestJournal> journal_;
  /// Path helper only (never written through); the promoted server gets
  /// a fresh manager so its version counter adopts shipped files.
  std::unique_ptr<recovery::CheckpointManager> ckpt_paths_;
  std::unique_ptr<recovery::CheckpointManager> promoted_ckpts_;

  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  /// flush_run is between persisting a run and finishing its replay.
  bool applying_ = false;
  bool promoted_ = false;
  int fd_ = -1;

  std::unique_ptr<InferenceServer> standby_;
  /// Replays not yet audited, by request id.
  std::unordered_map<std::uint64_t, Unaudited> unaudited_;
  /// Ids whose leader completion arrived before their replay finished,
  /// in arrival order.
  std::deque<std::uint64_t> awaiting_result_;
  std::uint64_t next_order_ = 0;
  /// Running audit totals; promote() adds the leftovers and reports it.
  PromotionReport audit_;
  std::uint64_t max_applied_id_ = 0;
  std::uint64_t ckpt_next_request_id_ = 0;
  std::uint64_t ckpt_version_ = 0;  ///< newest applied checkpoint

  bool connected_ = false;
  std::uint64_t connect_attempts_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t checkpoints_received_ = 0;
  std::uint64_t applied_records_ = 0;
  std::uint64_t completed_records_ = 0;
  std::uint64_t dup_records_ = 0;
  std::uint64_t gap_reconnects_ = 0;
  std::uint64_t recv_faults_ = 0;
  bool rejected_ = false;
  RejectReason reject_reason_ = RejectReason::kShutdown;
  std::string reject_detail_;
  std::chrono::steady_clock::time_point first_apply_at_{};
  std::chrono::steady_clock::time_point last_apply_at_{};
};

}  // namespace ssma::serve::replication
