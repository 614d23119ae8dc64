// Versioned, CRC-validated on-disk checkpoints of serving state.
//
// A checkpoint snapshots everything a restarted server needs that is
// not in the request journal: the serialized model registry (every
// registered (name, version) bank — the restored server resolves
// journal records against exactly these bytes), the request-id
// watermark, and the lifetime metrics counters. Two record formats
// coexist:
//
//   SSMACKP1 (v1) — a single anonymous Amm blob. Still loads; the
//                   restore path adopts it as the implicitly-named
//                   "default" model, version 1.
//   SSMACKP2 (v2) — the registry section (multi-model, multi-version)
//                   produced by ModelRegistry::save. Written whenever
//                   `registry_blob` is non-empty.
//
// Writes are atomic —
// payload to `checkpoint-NNNNNN.tmp`, then rename — so a crash during
// a write never shadows the previous good version; the CRC frame in
// the header catches torn files produced by non-atomic filesystems (or
// the injected torn-checkpoint fault), and load_latest() falls back to
// the newest version that validates.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace ssma::serve::recovery {

class FaultInjector;

/// What one checkpoint captures. Exactly one of `amm_blob` (v1 record)
/// and `registry_blob` (v2 record) is non-empty; encode() picks the
/// record format from which one is set, so v1 states re-encode
/// byte-identically (golden-format guarantee).
struct CheckpointState {
  std::string amm_blob;  ///< v1: Amm::save bytes (self-validating frame)
  /// v2: ModelRegistry::save bytes — every registered (name, version)
  /// bank plus the latest pointers.
  std::string registry_blob;
  std::uint64_t next_request_id = 0;  ///< admission id watermark
  std::uint64_t accepted_requests = 0;
  std::uint64_t completed_requests = 0;
  std::uint64_t tokens = 0;
  std::uint64_t batches = 0;

  bool is_v1() const { return registry_blob.empty(); }
};

class CheckpointManager {
 public:
  /// `dir` is created if missing; existing checkpoint files in it are
  /// adopted (versioning continues after the highest). The injector, if
  /// given, is polled at kCheckpointWrite. Neither is owned.
  explicit CheckpointManager(std::string dir,
                             FaultInjector* fault = nullptr);

  /// Atomically persists `st` as the next version; returns it.
  /// Thread-safe.
  std::uint64_t write(const CheckpointState& st);

  /// Newest checkpoint that passes CRC validation (torn/corrupt files
  /// are skipped, not errors). nullopt when none validates.
  std::optional<CheckpointState> load_latest(
      std::uint64_t* version = nullptr) const;

  /// Strict single-file load; throws CheckError on a torn or corrupt
  /// checkpoint.
  static CheckpointState load_file(const std::string& path);

  /// Deterministic encoder used by write(): same version + state
  /// always produce byte-identical files (the golden-format test
  /// relies on this).
  static void write_file(const std::string& path, std::uint64_t version,
                         const CheckpointState& st);

  /// Versions present on disk (valid or not), ascending. Lists the
  /// directory: keep it off hot paths.
  std::vector<std::uint64_t> versions() const;
  /// Newest version on disk as far as this manager knows: seeded by the
  /// constructor's scan, bumped by each write() once its file exists
  /// under its final name (torn or not). Lock-free, so a replication
  /// sender can poll it for new checkpoints instead of listing the
  /// directory.
  std::uint64_t newest_version() const {
    return newest_.load();
  }
  std::string path_of(std::uint64_t version) const;
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  FaultInjector* fault_;
  mutable std::mutex mu_;
  std::uint64_t next_version_ = 1;
  std::atomic<std::uint64_t> newest_{0};
};

}  // namespace ssma::serve::recovery
