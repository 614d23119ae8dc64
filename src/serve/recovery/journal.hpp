// Write-ahead request journal for the serving runtime.
//
// The server appends an `accepted` record (id + payload) before a
// request enters the queue, and the worker that serves it appends a
// `completed` record (id + CRC-32 of the int16 outputs) after the
// response future is fulfilled — one group per batch, written with one
// flush. After a crash, replaying the journal yields every
// accepted-but-unacknowledged request; because the kernel is
// deterministic and bit-exact, re-executing them on a restored server
// reproduces the exact bits the lost run would have produced, and the
// completed CRCs let an auditor verify already-acknowledged responses
// to the bit.
//
// Records are individually CRC-framed (maddness/framing.hpp); a torn
// tail — the half-written record of the crash itself — is detected and
// dropped, never misparsed: read() stops at the last whole frame, and
// reopening truncates the file back to it so subsequent appends extend
// a clean byte stream. Guarantees are at-least-once across
// restarts: a crash between fulfilling a response and journaling its
// completion re-executes that request on recovery.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ssma::serve::recovery {

/// One accepted request reconstructed from the log.
struct AcceptedRecord {
  std::uint64_t id = 0;
  std::size_t rows = 0;
  std::vector<std::uint8_t> codes;  ///< rows x cols, row-major uint8
  /// Model the request resolved to at admission. Empty on v1-era
  /// records (pre-registry journals): replay maps those onto the
  /// implicitly-named default model.
  std::string model;
  /// Exact bank version pinned at admission (0 on v1-era records).
  /// Replay resolves this exact version, so a replayed request is
  /// bit-exact even when the crash straddled a hot-swap: requests
  /// admitted before the swap re-execute on the old bank, after it on
  /// the new one.
  std::uint64_t model_version = 0;
};

/// Everything a restarted server needs from the journal.
struct JournalReplay {
  /// Accepted but never acknowledged, in original admission order.
  std::vector<AcceptedRecord> unacknowledged;
  /// id -> CRC-32 of the acknowledged response's int16 output bytes.
  std::unordered_map<std::uint64_t, std::uint32_t> completed_crc;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  /// Highest request id seen in any record (valid when accepted > 0).
  std::uint64_t max_id = 0;
  /// True when the file ended in a half-written record (crash tail).
  bool torn_tail = false;
  /// Records pruned by compaction: the file's first surviving record
  /// has sequence number compacted_through + 1 (0 = never compacted).
  std::uint64_t compacted_through = 0;
};

/// One request's completion, as a worker journals it.
struct Completion {
  std::uint64_t id = 0;
  std::uint32_t output_crc = 0;  ///< CRC-32 of the int16 output bytes
};

/// One record decoded in isolation — what a replication follower needs
/// to interpret a streamed record payload without re-reading the file.
struct ParsedRecord {
  bool is_accepted = false;  ///< accepted (v1 or v2) vs completed
  AcceptedRecord accepted;   ///< valid when is_accepted
  std::uint64_t completed_id = 0;    ///< valid when !is_accepted
  std::uint32_t completed_crc = 0;   ///< valid when !is_accepted
};

class RequestJournal {
 public:
  /// Notified once per append call, after its records become durable
  /// (post-flush, while the append lock is held), with the newest
  /// record's (seq, file_bytes). Replication's sender tails the file on
  /// this signal. Keep the hook cheap and non-reentrant.
  using CommitHook =
      std::function<void(std::uint64_t seq, std::uint64_t file_bytes)>;

  /// Opens (creating if needed) the journal at `path` for appending.
  /// Scans any existing records so durable_seq() continues the file's
  /// 1-based record count.
  explicit RequestJournal(const std::string& path);

  /// WAL accept record — call before the request is enqueued. The
  /// 3-argument form writes the v1 (model-less) record kept for
  /// pre-registry compatibility. Returns the record's sequence number
  /// (1-based position in the file), the unit of replication acking.
  std::uint64_t append_accepted(std::uint64_t id, std::size_t rows,
                                const std::vector<std::uint8_t>& codes);
  /// Model-tagged accept record (v2): persists the (name, version) the
  /// request pinned at admission.
  std::uint64_t append_accepted(std::uint64_t id, const std::string& model,
                                std::uint64_t model_version,
                                std::size_t rows,
                                const std::vector<std::uint8_t>& codes);
  /// Ack record — call after the response future is fulfilled.
  std::uint64_t append_completed(std::uint64_t id, int worker_id,
                                 std::uint32_t output_crc);
  /// One ack record per entry of `done`, in order, written with one
  /// flush: a worker journals a whole batch's completions at once.
  /// Returns the last record's sequence number.
  std::uint64_t append_completed(const std::vector<Completion>& done,
                                 int worker_id);
  /// Appends already-serialized record payloads verbatim, in order,
  /// with one flush — the replication follower persists each read's
  /// streamed leader records through here, keeping its file a
  /// byte-prefix of the leader's. Returns the last record's sequence
  /// number.
  std::uint64_t append_raw(const std::vector<std::string>& payloads);

  /// Sequence number of the newest durable record (0 = none yet).
  std::uint64_t durable_seq() const;
  /// Virtual size in bytes after the newest durable record. "Virtual"
  /// means as-if-never-compacted: compaction prunes leading records
  /// from the physical file but leaves this addressing untouched, so
  /// sequence numbers and byte offsets stay stable across compactions
  /// (the replication handshake depends on that).
  std::uint64_t durable_bytes() const;

  /// Compaction view: the pruned prefix and the virtual->physical
  /// mapping of the current file incarnation. `generation` bumps every
  /// time the physical file is rewritten, so a tailing reader knows to
  /// reopen its stream.
  struct CompactionInfo {
    std::uint64_t base_seq = 0;      ///< records pruned from the front
    std::uint64_t base_bytes = 8;    ///< virtual offset of the first
                                     ///< surviving byte
    std::uint64_t header_bytes = 8;  ///< physical offset of that byte
    std::uint64_t generation = 0;    ///< physical-rewrite counter
  };
  CompactionInfo compaction_info() const;

  /// Prunes the longest journal prefix that (a) ends at or before
  /// `max_seq` and (b) contains only acknowledged work — every accepted
  /// record in it has a completion record somewhere in the journal.
  /// Callers derive `max_seq` from their durability horizon (slowest
  /// follower ack / newest durable checkpoint). The file is atomically
  /// rewritten (temp + rename) with a marker frame carrying the new
  /// base, so a crash mid-compaction leaves either the old or the new
  /// file, never a hybrid. Returns the number of records pruned.
  std::uint64_t compact(std::uint64_t max_seq);

  /// Seeds an EMPTY journal with a compaction base shipped by a leader:
  /// the file becomes byte-identical to the leader's compacted header,
  /// and subsequent append_raw records keep it a byte-suffix match.
  /// Throws CheckError when this journal already holds records.
  void adopt_base(std::uint64_t base_seq, std::uint64_t base_bytes);

  /// Installs (or clears, with nullptr) the post-append notification.
  void set_commit_hook(CommitHook hook);

  const std::string& path() const { return path_; }

  /// Parses a journal file, tolerating a torn tail. A missing file
  /// yields an empty replay; a whole frame whose record does not parse
  /// throws CheckError.
  static JournalReplay read(const std::string& path);

  /// Decodes one record payload (the framed blob's contents). Returns
  /// false on an unknown type, truncated fields, or a length field
  /// larger than the bytes after it; allocates no more than the payload
  /// holds. read() decodes every record through it.
  static bool parse_record(const std::string& payload, ParsedRecord* out);

 private:
  /// Writes `frames` (`records` whole record frames) with one write and
  /// one flush, then calls the commit hook once. Returns the newest
  /// record's sequence number.
  std::uint64_t append_group(const std::string& frames,
                             std::size_t records);

  std::string path_;
  mutable std::mutex mu_;
  std::ofstream os_;
  std::uint64_t seq_ = 0;    ///< records durable so far (incl. pruned)
  std::uint64_t bytes_ = 0;  ///< VIRTUAL size after the last record
  std::uint64_t base_seq_ = 0;      ///< see CompactionInfo
  std::uint64_t base_bytes_ = 8;
  std::uint64_t header_bytes_ = 8;
  std::uint64_t generation_ = 0;
  CommitHook hook_;
};

}  // namespace ssma::serve::recovery
