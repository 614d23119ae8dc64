// Continuous-learning rollout pipeline: sample live traffic, retrain in
// the background, shadow the candidate against the serving bank, and
// promote (or roll back) automatically under an error budget.
//
// The RolloutManager is a WorkerPool BatchObserver: after each batch's
// futures resolve, the shard thread offers the batch to the manager.
// The tap is try-lock + preallocated buffers — it never blocks a shard
// and never allocates on the hot path (contended taps are counted and
// dropped). Everything expensive — reservoir dequantize, Amm retraining,
// candidate staging, shadow execution on a spare engine — happens on
// the manager's own low-priority controller thread.
//
// Per managed model, the controller walks a state machine:
//
//   kSampling --(reservoir >= min_train_rows)--> kTraining
//   kTraining --(stage_model name@N+1)--------> kShadowing
//   kShadowing --(drift_fraction <= budget)----> kPromoted   (publish)
//   kShadowing --(drift_fraction >  budget)----> kRolledBack (discard)
//
// Promotion and rollback both force-checkpoint through the server, so
// the decision is durable and replicates to PR-9 followers before any
// "@latest" traffic can observe it. Shadow comparisons are
// saturating-clamp-aware: two outputs pinned at the same int16 rail
// compare equal even though their unclamped accumulators may differ —
// the serving contract is the post-clamp value.
//
// Determinism: the reservoir is seeded Algorithm R (per-model stream
// seeded from RolloutOptions::seed), decisions key off row counts —
// never wall-clock — and the drift comparison itself can be forced via
// FaultInjector site kShadowCompare ("shadow_drift"), so every test
// reproduces from SSMA_TEST_SEED.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/execution_engine.hpp"
#include "maddness/config.hpp"
#include "serve/server.hpp"
#include "serve/worker_pool.hpp"
#include "util/matrix.hpp"

namespace ssma::serve::rollout {

enum class RolloutState {
  kIdle,        ///< managed but no traffic observed yet
  kSampling,    ///< filling the traffic reservoir
  kTraining,    ///< background retrain in progress
  kShadowing,   ///< candidate staged, mirroring traffic
  kPromoted,    ///< candidate published as "@latest"
  kRolledBack,  ///< candidate discarded (budget exceeded)
};

const char* to_string(RolloutState s);

struct RolloutOptions {
  /// Reservoir RNG seed (tests derive it from SSMA_TEST_SEED).
  std::uint64_t seed = 0x5eedfa57;
  /// Reservoir capacity in rows — the bounded retraining memory.
  std::size_t reservoir_rows = 256;
  /// Rows the reservoir must hold before retraining starts.
  std::size_t min_train_rows = 128;
  /// Offer every Nth batch to the reservoir (1 = every batch).
  std::size_t sample_every = 1;
  /// Mirror every Nth batch through the staged bank while shadowing.
  std::size_t shadow_every = 1;
  /// Rows compared before the promote/rollback verdict.
  std::size_t min_shadow_rows = 64;
  /// Largest batch (rows) the shadow mailbox preallocates for; larger
  /// batches are mirrored truncated to this many rows.
  std::size_t max_batch_rows = 512;
  /// Per-element |live - shadow| tolerance; a row drifts when any
  /// element exceeds it (saturated rail pairs always compare equal).
  std::int64_t drift_tolerance = 0;
  /// Promote iff drift_rows / shadow_rows <= error_budget.
  double error_budget = 0.0;
  /// Controller idle poll cadence.
  std::chrono::milliseconds poll{1};
  /// Deterministic drift injection (site kShadowCompare); borrowed.
  recovery::FaultInjector* fault = nullptr;
  /// Spare engine the shadow executor runs candidates on (never the
  /// serving shards' engines).
  engine::EngineOptions engine;
};

/// Point-in-time rollout status for one managed model — the admin
/// RPC's rollout_status body renders to_text() of this.
struct RolloutReport {
  std::string model;
  RolloutState state = RolloutState::kIdle;
  std::uint64_t live_version = 0;
  std::uint64_t candidate_version = 0;  ///< 0 until staged
  std::uint64_t seen_rows = 0;          ///< rows offered to the reservoir
  std::size_t sampled_rows = 0;         ///< rows currently held
  std::size_t shadow_rows = 0;
  std::size_t shadow_batches = 0;
  std::size_t drift_rows = 0;
  std::int64_t max_abs_drift = 0;
  double drift_fraction = 0.0;
  double error_budget = 0.0;
  double live_ns_sum = 0.0;
  double shadow_ns_sum = 0.0;
  std::uint64_t tap_dropped = 0;  ///< manager-wide contended-tap drops

  std::string to_text() const;
};

class RolloutManager : public BatchObserver {
 public:
  /// Borrowing: `server` must outlive the manager. Call start() to
  /// attach the tap and spawn the controller.
  RolloutManager(InferenceServer& server, const RolloutOptions& opts);
  ~RolloutManager() override;

  RolloutManager(const RolloutManager&) = delete;
  RolloutManager& operator=(const RolloutManager&) = delete;

  /// Puts `name` under continuous learning: live traffic feeds the
  /// reservoir, a candidate is retrained against `weights` with `cfg`,
  /// then shadowed and auto-promoted/rolled back. All tap buffers are
  /// preallocated here. `weights` is total_dims() x nout and must match
  /// the live bank's geometry.
  void manage(const std::string& name, Matrix weights,
              const maddness::Config& cfg);

  /// Puts an already-staged version of `name` straight into kShadowing
  /// (no sampling/training) — the bench's shadow-overhead path and the
  /// operator's manual-canary path. The verdict rules are the same.
  void shadow_existing(const std::string& name,
                       std::uint64_t staged_version);

  /// Attaches the batch tap and spawns the controller thread.
  void start();
  /// Stops the controller and detaches the tap. A shard mid-on_batch
  /// may still hold the tap pointer, so destroy the manager only after
  /// InferenceServer::shutdown() (or once serving is quiescent).
  void stop();

  /// Snapshot of one managed model's rollout. Throws CheckError for an
  /// unmanaged name.
  RolloutReport report(const std::string& name) const;
  std::vector<RolloutReport> reports() const;

  /// Blocks until `name` reaches kPromoted or kRolledBack and the
  /// verdict is applied to the registry (or timeout): on return after a
  /// promotion "@latest" names the candidate, after a rollback the
  /// candidate no longer resolves. Returns the terminal state reached,
  /// or the current state on timeout.
  RolloutState wait_for_decision(const std::string& name,
                                 std::chrono::milliseconds timeout);

  /// Operator overrides (admin plane): publish / discard the current
  /// candidate immediately, budget notwithstanding. Throw CheckError
  /// when there is no candidate staged.
  void force_promote(const std::string& name);
  void force_rollback(const std::string& name);

  // BatchObserver — the shard-thread tap. Try-lock, preallocated,
  // never blocks.
  void on_batch(const engine::ModelHandle& model,
                const maddness::QuantizedActivations& q,
                const std::vector<std::int16_t>& out,
                double service_ns) override;

 private:
  /// One managed model. All fields are guarded by mu_ except where
  /// noted; the controller copies what it needs out before unlocking
  /// for the expensive phases.
  struct Managed {
    std::string name;
    Matrix weights;
    maddness::Config cfg;
    std::uint64_t live_version = 0;
    RolloutState state = RolloutState::kIdle;
    /// Set once decide() has applied the terminal state's registry call
    /// and live_version; `state` turns terminal earlier, before the
    /// unlock around the registry call.
    bool decision_applied = false;

    // --- traffic reservoir (Algorithm R), preallocated ---
    std::size_t cols = 0;
    std::size_t nout = 0;
    std::vector<std::uint8_t> reservoir;  ///< reservoir_rows x cols
    std::size_t reservoir_size = 0;       ///< rows held
    float reservoir_scale = 0.0f;         ///< live scale at capture
    std::uint64_t seen_rows = 0;
    std::mt19937_64 rng;
    std::uint64_t batch_counter = 0;

    // --- shadow mailbox: single slot, preallocated capacity ---
    bool mailbox_full = false;
    std::size_t mailbox_rows = 0;
    float mailbox_scale = 0.0f;
    double mailbox_live_ns = 0.0;
    std::vector<std::uint8_t> mailbox_codes;  ///< max_batch_rows x cols
    std::vector<std::int16_t> mailbox_out;    ///< max_batch_rows x nout

    // --- candidate + verdict bookkeeping ---
    std::uint64_t candidate_version = 0;
    engine::ModelRef candidate;  ///< pinned while shadowing
    std::size_t shadow_rows = 0;
    std::size_t shadow_batches = 0;
    std::size_t drift_rows = 0;
    std::int64_t max_abs_drift = 0;
    double live_ns_sum = 0.0;
    double shadow_ns_sum = 0.0;
  };

  void controller_main();
  /// One controller pass over `m`; may unlock `lock` around training /
  /// shadow execution / registry calls. Returns true when a state
  /// transition happened (wakes wait_for_decision).
  bool step(Managed& m, std::unique_lock<std::mutex>& lock);
  void train_and_stage(Managed& m, std::unique_lock<std::mutex>& lock);
  bool run_shadow_batch(Managed& m, std::unique_lock<std::mutex>& lock);
  void decide(Managed& m, std::unique_lock<std::mutex>& lock,
              bool promote);
  RolloutReport report_locked(const Managed& m) const;

  InferenceServer& server_;
  const RolloutOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, Managed> managed_;
  std::atomic<std::uint64_t> tap_dropped_{0};
  std::atomic<bool> stop_{false};
  std::thread controller_;
  bool started_ = false;

  // Controller-thread-only: the spare shadow engine and its scratch
  // (mailbox contents are swapped into the scratch under the lock, so
  // capacities ping-pong and neither side reallocates at steady state).
  std::unique_ptr<engine::ExecutionEngine> shadow_engine_;
  std::vector<std::int16_t> shadow_out_;
  std::vector<std::uint8_t> scratch_codes_;
  std::vector<std::int16_t> scratch_live_out_;
};

}  // namespace ssma::serve::rollout
