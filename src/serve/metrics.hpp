// Serving-side observability: thread-safe counters plus log-bucketed
// latency histograms with percentile queries (p50/p95/p99), snapshotted
// into a plain struct that renders as a text table or machine-readable
// JSON for the bench sweeps, or as a Prometheus-style text exposition
// for scraping.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/request_queue.hpp"

namespace ssma::serve {

/// Geometric-bucket latency histogram: buckets grow by a fixed ratio from
/// 100 ns, so percentile error is bounded by the ratio (~6%) across nine
/// decades without storing samples. Tracked min/max clamp the percentile
/// estimate, making single-sample, p=0 and p=100 queries exact. Not
/// thread-safe on its own; Metrics serializes access.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void add(double ns);
  void merge(const LatencyHistogram& other);

  std::size_t count() const { return count_; }
  double sum_ns() const { return sum_ns_; }
  double mean_ns() const;
  double min_ns() const { return count_ ? min_ns_ : 0.0; }
  double max_ns() const { return count_ ? max_ns_ : 0.0; }
  /// Nearest-rank percentile (p in [0,100]): geometric bucket midpoint,
  /// clamped to the observed [min, max]. p=0 is the minimum sample,
  /// p=100 the maximum; mid-range error is bounded by the bucket ratio
  /// (~6%).
  double percentile_ns(double p) const;

  /// Bucket internals, for cumulative (Prometheus) export.
  std::size_t num_buckets() const { return buckets_.size(); }
  std::uint64_t bucket_count(std::size_t i) const { return buckets_[i]; }
  /// Upper bound of bucket i in ns (+inf for the last, clamp bucket).
  static double bucket_upper_ns(std::size_t i);

 private:
  std::size_t bucket_of(double ns) const;

  std::vector<std::uint64_t> buckets_;
  std::size_t count_ = 0;
  double sum_ns_ = 0.0;
  double min_ns_ = 0.0;
  double max_ns_ = 0.0;
};

/// Per-model slice of the serving counters (keyed by model name; all
/// versions of a name aggregate into one row).
struct ModelMetricsSnapshot {
  std::string model;
  std::size_t requests = 0;
  std::size_t tokens = 0;
  std::size_t batches = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  // Queue wait vs. service (total minus queue) split, per request.
  double queue_p50_us = 0.0;
  double queue_p99_us = 0.0;
  double service_p50_us = 0.0;
  double service_p99_us = 0.0;
};

/// Per-model shadow-execution slice: rows mirrored through a staged
/// candidate bank, drift vs the live bank, and the live/shadow latency
/// split. Exact counters only (no histograms), so a slice round-trips
/// through checkpoint restore losslessly.
struct ShadowSlice {
  std::string model;
  std::size_t rows = 0;
  std::size_t batches = 0;
  std::size_t drift_rows = 0;  ///< rows whose outputs diverged
  std::int64_t max_abs_drift = 0;  ///< worst per-element |live - shadow|
  double live_ns_sum = 0.0;    ///< live-bank service time, mirrored rows
  double shadow_ns_sum = 0.0;  ///< candidate-bank service time
};

/// Point-in-time view of the server's counters and distributions.
struct MetricsSnapshot {
  std::size_t requests = 0;
  std::size_t tokens = 0;
  std::size_t batches = 0;
  double wall_seconds = 0.0;

  double requests_per_sec = 0.0;
  double tokens_per_sec = 0.0;
  double mean_batch_tokens = 0.0;

  // End-to-end (enqueue -> fulfilled) latency.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
  // Time spent waiting in the queue before a worker picked the batch up.
  double queue_p50_us = 0.0;
  double queue_p99_us = 0.0;
  // Write-ahead journal append (accepted + completed records).
  std::size_t journal_appends = 0;
  double journal_p50_us = 0.0;
  double journal_p99_us = 0.0;
  /// Typed load-shed/refusal counts, indexed by RejectReason.
  std::array<std::size_t, kNumRejectReasons> rejects{};
  std::size_t total_rejects() const;

  /// One row per served model name, sorted by name. Empty when the
  /// server has served nothing yet.
  std::vector<ModelMetricsSnapshot> per_model;

  /// One row per shadowed model name, sorted by name. Empty unless a
  /// rollout has mirrored traffic through a staged candidate.
  std::vector<ShadowSlice> shadow;

  /// The row for `model` (nullptr when that model served nothing).
  const ModelMetricsSnapshot* for_model(const std::string& model) const;

  std::string render() const;
};

/// Live values owned by the server, not the metrics sink, sampled at
/// scrape time for the Prometheus exposition.
struct PromGauges {
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t workers = 0;
  std::size_t worker_respawns = 0;
  bool trace_enabled = false;
  /// Replication block, rendered only when repl_role != 0 (the role is
  /// structural server config, not runtime data, so golden expositions
  /// of non-replicated servers keep their shape). 1 = streaming
  /// leader, 2 = promoted follower.
  int repl_role = 0;
  std::uint64_t repl_leader_seq = 0;
  std::uint64_t repl_replicated_seq = 0;
  std::size_t repl_followers = 0;
  std::uint64_t repl_lag_records = 0;
  std::uint64_t repl_lag_bytes = 0;
  double repl_lag_seconds = 0.0;
  std::uint64_t repl_checkpoints_shipped = 0;
  std::uint64_t repl_sync_degraded = 0;
  std::uint64_t repl_applied_records = 0;  ///< promoted follower only
  double repl_apply_rate_hz = 0.0;         ///< promoted follower only
};

/// Shared metrics sink. Workers record whole batches at a time, so the
/// mutex is taken at batch granularity, not per token.
class Metrics {
 public:
  /// Batch-occupancy buckets: power-of-two token counts 1..1024, +Inf.
  static constexpr std::size_t kOccupancyBuckets = 12;

  /// (Re)starts the wall clock; snapshot throughput is measured from here.
  void mark_start();
  /// Freezes the wall clock (e.g. at shutdown); idempotent.
  void mark_stop();

  /// One drained batch: per-request queue/total latencies in ns.
  /// `model` attributes the batch to a per-model slice (a batch is
  /// always single-model; empty = unattributed, aggregate only).
  void record_batch(const std::string& model, std::size_t tokens,
                    const std::vector<double>& queue_ns,
                    const std::vector<double>& total_ns);

  /// One write-ahead journal append call: an accepted record, or a
  /// batch's group of completed records.
  void record_journal_append(double ns);

  /// `n` requests refused with the given typed reason (admission shed,
  /// shutdown, expired deadline, ...).
  void record_reject(RejectReason reason, std::size_t n = 1);

  /// The batcher's token budget, for occupancy-fraction reporting.
  void set_batch_budget(std::size_t tokens);

  /// One shadow-mirrored comparison batch for `model`: `rows` mirrored,
  /// `drift_rows` of them diverged, `max_abs_drift` the worst
  /// per-element |live - shadow| seen in the batch, plus the live and
  /// shadow service times of the compared rows.
  void record_shadow(const std::string& model, std::size_t rows,
                     std::size_t drift_rows, std::int64_t max_abs_drift,
                     double live_ns, double shadow_ns);

  /// Seeds the lifetime counters from a recovered checkpoint so a
  /// restarted server's totals continue where the crashed run's
  /// snapshot left off. Latency histograms AND the per-model slices
  /// restart empty — both describe this incarnation only, so after a
  /// restore the per-model rows sum to less than the restored
  /// aggregate counters until new traffic arrives.
  void restore(std::size_t requests, std::size_t tokens,
               std::size_t batches);
  /// As above, additionally reseeding the per-model shadow slices —
  /// they are exact counters, so unlike the latency histograms they
  /// survive a restore losslessly.
  void restore(std::size_t requests, std::size_t tokens,
               std::size_t batches,
               const std::vector<ShadowSlice>& shadow);

  MetricsSnapshot snapshot() const;

  /// Prometheus text exposition (version 0.0.4): the counters and
  /// histograms above plus the live gauges and the per-tier kernel
  /// dispatch counters from telemetry. Deliberately excludes anything
  /// wall-clock-derived (rates, uptime) so identical recorded traffic
  /// renders byte-identical output — golden-file testable.
  std::string render_prometheus(const PromGauges& gauges) const;

 private:
  struct PerModel {
    std::size_t requests = 0;
    std::size_t tokens = 0;
    std::size_t batches = 0;
    LatencyHistogram total_latency;
    LatencyHistogram queue_latency;
    LatencyHistogram service_latency;
  };

  mutable std::mutex mu_;
  std::size_t requests_ = 0;
  std::size_t tokens_ = 0;
  std::size_t batches_ = 0;
  LatencyHistogram total_latency_;
  LatencyHistogram queue_latency_;
  LatencyHistogram journal_latency_;
  std::array<std::uint64_t, kNumRejectReasons> rejects_{};
  std::array<std::uint64_t, kOccupancyBuckets> occupancy_buckets_{};
  std::size_t batch_budget_tokens_ = 0;
  std::map<std::string, PerModel> per_model_;
  std::map<std::string, ShadowSlice> shadow_;
  Clock::time_point start_{};
  Clock::time_point stop_{};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace ssma::serve
