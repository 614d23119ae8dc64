#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "telemetry/kernel_profile.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace ssma::serve {

namespace {

// 100 ns base, ratio 1.12 per bucket, 192 buckets -> ~88 s ceiling.
constexpr double kBaseNs = 100.0;
constexpr double kRatio = 1.12;
constexpr std::size_t kBuckets = 192;
const double kLogRatio = std::log(kRatio);

// Locale-independent %.9g — Prometheus values must render identically
// across environments for the golden-file test.
std::string prom_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void prom_header(std::ostringstream& oss, const std::string& name,
                 const std::string& type, const std::string& help) {
  oss << "# HELP " << name << " " << help << "\n";
  oss << "# TYPE " << name << " " << type << "\n";
}

/// Cumulative-bucket histogram exposition in seconds. Only buckets that
/// advance the cumulative count are emitted (plus +Inf), keeping the
/// 192-bucket histograms readable.
void prom_histogram(std::ostringstream& oss, const std::string& name,
                    const LatencyHistogram& h, const std::string& help) {
  prom_header(oss, name, "histogram", help);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.num_buckets(); ++i) {
    if (h.bucket_count(i) == 0) continue;
    cum += h.bucket_count(i);
    const double upper = LatencyHistogram::bucket_upper_ns(i);
    if (std::isinf(upper)) break;  // folded into +Inf below
    oss << name << "_bucket{le=\"" << prom_num(upper * 1e-9) << "\"} "
        << cum << "\n";
  }
  oss << name << "_bucket{le=\"+Inf\"} " << h.count() << "\n";
  oss << name << "_sum " << prom_num(h.sum_ns() * 1e-9) << "\n";
  oss << name << "_count " << h.count() << "\n";
}

/// Summary-style quantiles for the per-model slices (full histograms
/// per model would dwarf the exposition).
void prom_model_summary(std::ostringstream& oss, const std::string& name,
                        const std::string& model,
                        const LatencyHistogram& h) {
  for (double q : {0.5, 0.99}) {
    oss << name << "{model=\"" << model << "\",quantile=\"" << prom_num(q)
        << "\"} " << prom_num(h.percentile_ns(q * 100.0) * 1e-9) << "\n";
  }
  oss << name << "_sum{model=\"" << model << "\"} "
      << prom_num(h.sum_ns() * 1e-9) << "\n";
  oss << name << "_count{model=\"" << model << "\"} " << h.count()
      << "\n";
}

std::size_t occupancy_bucket_of(std::size_t tokens) {
  // Power-of-two buckets: le 1, 2, 4, ..., 1024, +Inf.
  std::size_t i = 0;
  std::size_t bound = 1;
  while (i + 1 < Metrics::kOccupancyBuckets && tokens > bound) {
    bound <<= 1;
    ++i;
  }
  return i;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

std::size_t LatencyHistogram::bucket_of(double ns) const {
  if (ns <= kBaseNs) return 0;
  const auto b =
      static_cast<std::size_t>(std::log(ns / kBaseNs) / kLogRatio) + 1;
  return std::min(b, kBuckets - 1);
}

double LatencyHistogram::bucket_upper_ns(std::size_t i) {
  if (i + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
  return kBaseNs * std::pow(kRatio, static_cast<double>(i));
}

void LatencyHistogram::add(double ns) {
  ns = std::max(ns, 0.0);
  buckets_[bucket_of(ns)]++;
  min_ns_ = count_ ? std::min(min_ns_, ns) : ns;
  count_++;
  sum_ns_ += ns;
  max_ns_ = std::max(max_ns_, ns);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i)
    buckets_[i] += other.buckets_[i];
  if (other.count_)
    min_ns_ = count_ ? std::min(min_ns_, other.min_ns_) : other.min_ns_;
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
  max_ns_ = std::max(max_ns_, other.max_ns_);
}

double LatencyHistogram::mean_ns() const {
  return count_ ? sum_ns_ / static_cast<double>(count_) : 0.0;
}

double LatencyHistogram::percentile_ns(double p) const {
  SSMA_CHECK(p >= 0.0 && p <= 100.0);
  if (count_ == 0) return 0.0;
  // The extremes are tracked exactly; a bucket midpoint would be off by
  // up to half a bucket even after clamping.
  if (p == 0.0) return min_ns_;
  if (p == 100.0) return max_ns_;
  // Nearest-rank: smallest bucket whose cumulative count reaches rank.
  const auto rank = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(
          std::ceil(p / 100.0 * static_cast<double>(count_))),
      1);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += buckets_[i];
    if (cum >= rank) {
      double v;
      if (i == 0) {
        v = kBaseNs;  // sub-base bucket: clamp below resolves it
      } else if (i == kBuckets - 1) {
        v = max_ns_;  // clamp bucket has no meaningful midpoint
      } else {
        // Geometric midpoint of the bucket [base*r^(i-1), base*r^i).
        v = kBaseNs * std::pow(kRatio, static_cast<double>(i) - 0.5);
      }
      // The observed extrema are exact; no estimate may leave them.
      // Makes single-sample histograms exact at every p and bounds
      // p=0/p=100 regardless of bucket shape (also post-merge, since
      // merge folds min/max).
      return std::clamp(v, min_ns_, max_ns_);
    }
  }
  return max_ns_;
}

void Metrics::mark_start() {
  std::lock_guard<std::mutex> lock(mu_);
  start_ = Clock::now();
  started_ = true;
  stopped_ = false;
}

void Metrics::mark_stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ && !stopped_) {
    stop_ = Clock::now();
    stopped_ = true;
  }
}

void Metrics::record_batch(const std::string& model, std::size_t tokens,
                           const std::vector<double>& queue_ns,
                           const std::vector<double>& total_ns) {
  SSMA_CHECK(queue_ns.size() == total_ns.size());
  std::lock_guard<std::mutex> lock(mu_);
  batches_++;
  tokens_ += tokens;
  requests_ += queue_ns.size();
  occupancy_buckets_[occupancy_bucket_of(tokens)]++;
  for (double q : queue_ns) queue_latency_.add(q);
  for (double t : total_ns) total_latency_.add(t);
  if (!model.empty()) {
    PerModel& pm = per_model_[model];
    pm.batches++;
    pm.tokens += tokens;
    pm.requests += total_ns.size();
    for (std::size_t i = 0; i < total_ns.size(); ++i) {
      pm.total_latency.add(total_ns[i]);
      pm.queue_latency.add(queue_ns[i]);
      pm.service_latency.add(std::max(total_ns[i] - queue_ns[i], 0.0));
    }
  }
}

void Metrics::record_journal_append(double ns) {
  std::lock_guard<std::mutex> lock(mu_);
  journal_latency_.add(ns);
}

void Metrics::record_reject(RejectReason reason, std::size_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  rejects_[static_cast<std::size_t>(reason)] += n;
}

void Metrics::set_batch_budget(std::size_t tokens) {
  std::lock_guard<std::mutex> lock(mu_);
  batch_budget_tokens_ = tokens;
}

void Metrics::record_shadow(const std::string& model, std::size_t rows,
                            std::size_t drift_rows,
                            std::int64_t max_abs_drift, double live_ns,
                            double shadow_ns) {
  SSMA_CHECK(drift_rows <= rows);
  std::lock_guard<std::mutex> lock(mu_);
  ShadowSlice& s = shadow_[model];
  s.model = model;
  s.rows += rows;
  s.batches++;
  s.drift_rows += drift_rows;
  s.max_abs_drift = std::max(s.max_abs_drift, max_abs_drift);
  s.live_ns_sum += live_ns;
  s.shadow_ns_sum += shadow_ns;
}

void Metrics::restore(std::size_t requests, std::size_t tokens,
                      std::size_t batches) {
  std::lock_guard<std::mutex> lock(mu_);
  requests_ = requests;
  tokens_ = tokens;
  batches_ = batches;
}

void Metrics::restore(std::size_t requests, std::size_t tokens,
                      std::size_t batches,
                      const std::vector<ShadowSlice>& shadow) {
  std::lock_guard<std::mutex> lock(mu_);
  requests_ = requests;
  tokens_ = tokens;
  batches_ = batches;
  shadow_.clear();
  for (const ShadowSlice& s : shadow) shadow_[s.model] = s;
}

MetricsSnapshot Metrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s;
  s.requests = requests_;
  s.tokens = tokens_;
  s.batches = batches_;
  if (started_) {
    const auto end = stopped_ ? stop_ : Clock::now();
    s.wall_seconds =
        std::chrono::duration<double>(end - start_).count();
  }
  if (s.wall_seconds > 0.0) {
    s.requests_per_sec = static_cast<double>(requests_) / s.wall_seconds;
    s.tokens_per_sec = static_cast<double>(tokens_) / s.wall_seconds;
  }
  if (batches_ > 0)
    s.mean_batch_tokens =
        static_cast<double>(tokens_) / static_cast<double>(batches_);
  s.p50_us = total_latency_.percentile_ns(50) * 1e-3;
  s.p95_us = total_latency_.percentile_ns(95) * 1e-3;
  s.p99_us = total_latency_.percentile_ns(99) * 1e-3;
  s.mean_us = total_latency_.mean_ns() * 1e-3;
  s.max_us = total_latency_.max_ns() * 1e-3;
  s.queue_p50_us = queue_latency_.percentile_ns(50) * 1e-3;
  s.queue_p99_us = queue_latency_.percentile_ns(99) * 1e-3;
  s.journal_appends = journal_latency_.count();
  s.journal_p50_us = journal_latency_.percentile_ns(50) * 1e-3;
  s.journal_p99_us = journal_latency_.percentile_ns(99) * 1e-3;
  for (std::size_t i = 0; i < kNumRejectReasons; ++i)
    s.rejects[i] = static_cast<std::size_t>(rejects_[i]);
  s.per_model.reserve(per_model_.size());
  for (const auto& kv : per_model_) {  // std::map: sorted by name
    ModelMetricsSnapshot m;
    m.model = kv.first;
    m.requests = kv.second.requests;
    m.tokens = kv.second.tokens;
    m.batches = kv.second.batches;
    m.p50_us = kv.second.total_latency.percentile_ns(50) * 1e-3;
    m.p99_us = kv.second.total_latency.percentile_ns(99) * 1e-3;
    m.mean_us = kv.second.total_latency.mean_ns() * 1e-3;
    m.queue_p50_us = kv.second.queue_latency.percentile_ns(50) * 1e-3;
    m.queue_p99_us = kv.second.queue_latency.percentile_ns(99) * 1e-3;
    m.service_p50_us = kv.second.service_latency.percentile_ns(50) * 1e-3;
    m.service_p99_us = kv.second.service_latency.percentile_ns(99) * 1e-3;
    s.per_model.push_back(std::move(m));
  }
  s.shadow.reserve(shadow_.size());
  for (const auto& kv : shadow_)  // std::map: sorted by name
    s.shadow.push_back(kv.second);
  return s;
}

std::size_t MetricsSnapshot::total_rejects() const {
  std::size_t n = 0;
  for (std::size_t r : rejects) n += r;
  return n;
}

const ModelMetricsSnapshot* MetricsSnapshot::for_model(
    const std::string& model) const {
  for (const ModelMetricsSnapshot& m : per_model)
    if (m.model == model) return &m;
  return nullptr;
}

std::string MetricsSnapshot::render() const {
  TextTable t({"metric", "value"});
  t.add_row({"requests", std::to_string(requests)});
  t.add_row({"tokens", std::to_string(tokens)});
  t.add_row({"batches", std::to_string(batches)});
  t.add_row({"wall [s]", TextTable::num(wall_seconds, 3)});
  t.add_row({"requests/s", TextTable::num(requests_per_sec, 1)});
  t.add_row({"tokens/s", TextTable::num(tokens_per_sec, 1)});
  t.add_row({"mean batch [tokens]", TextTable::num(mean_batch_tokens, 2)});
  t.add_row({"latency p50 [us]", TextTable::num(p50_us, 1)});
  t.add_row({"latency p95 [us]", TextTable::num(p95_us, 1)});
  t.add_row({"latency p99 [us]", TextTable::num(p99_us, 1)});
  t.add_row({"latency mean [us]", TextTable::num(mean_us, 1)});
  t.add_row({"latency max [us]", TextTable::num(max_us, 1)});
  t.add_row({"queue p50 [us]", TextTable::num(queue_p50_us, 1)});
  t.add_row({"queue p99 [us]", TextTable::num(queue_p99_us, 1)});
  if (journal_appends) {
    t.add_row({"journal p50 [us]", TextTable::num(journal_p50_us, 1)});
    t.add_row({"journal p99 [us]", TextTable::num(journal_p99_us, 1)});
  }
  if (total_rejects()) {
    for (std::size_t i = 0; i < kNumRejectReasons; ++i) {
      if (!rejects[i]) continue;
      t.add_row({std::string("rejects (") +
                     reject_reason_name(static_cast<RejectReason>(i)) +
                     ")",
                 std::to_string(rejects[i])});
    }
  }
  std::string out = t.render();
  if (!per_model.empty()) {
    TextTable pm({"model", "requests", "tokens", "batches", "p50 [us]",
                  "p99 [us]"});
    for (const ModelMetricsSnapshot& m : per_model)
      pm.add_row({m.model, std::to_string(m.requests),
                  std::to_string(m.tokens), std::to_string(m.batches),
                  TextTable::num(m.p50_us, 1), TextTable::num(m.p99_us, 1)});
    out += "\n" + pm.render();
  }
  return out;
}

std::string Metrics::render_prometheus(const PromGauges& gauges) const {
  std::ostringstream oss;

  {
    std::lock_guard<std::mutex> lock(mu_);

    prom_header(oss, "ssma_requests_total", "counter",
                "Requests fulfilled since start (or restored total).");
    oss << "ssma_requests_total " << requests_ << "\n";
    prom_header(oss, "ssma_tokens_total", "counter",
                "Input rows (tokens) processed.");
    oss << "ssma_tokens_total " << tokens_ << "\n";
    prom_header(oss, "ssma_batches_total", "counter",
                "Batches drained by the worker pool.");
    oss << "ssma_batches_total " << batches_ << "\n";
    // All reasons enumerated statically: the exposition's shape never
    // depends on which rejects have occurred (golden-file friendly, and
    // rate() over an always-present series needs no counter resets).
    prom_header(oss, "ssma_rejects_total", "counter",
                "Requests refused, by typed rejection reason.");
    for (std::size_t i = 0; i < kNumRejectReasons; ++i)
      oss << "ssma_rejects_total{reason=\""
          << reject_reason_name(static_cast<RejectReason>(i)) << "\"} "
          << rejects_[i] << "\n";

    prom_header(oss, "ssma_queue_depth", "gauge",
                "Requests currently waiting in the admission queue.");
    oss << "ssma_queue_depth " << gauges.queue_depth << "\n";
    prom_header(oss, "ssma_queue_capacity", "gauge",
                "Admission queue capacity.");
    oss << "ssma_queue_capacity " << gauges.queue_capacity << "\n";
    prom_header(oss, "ssma_workers", "gauge",
                "Live worker shards.");
    oss << "ssma_workers " << gauges.workers << "\n";
    prom_header(oss, "ssma_worker_respawns_total", "counter",
                "Worker shards respawned after a crash.");
    oss << "ssma_worker_respawns_total " << gauges.worker_respawns
        << "\n";
    prom_header(oss, "ssma_trace_enabled", "gauge",
                "1 when the span-tracing session is enabled.");
    oss << "ssma_trace_enabled " << (gauges.trace_enabled ? 1 : 0)
        << "\n";
    if (gauges.repl_role != 0) {
      prom_header(oss, "ssma_repl_role", "gauge",
                  "Replication role: 1 streaming leader, 2 promoted "
                  "follower.");
      oss << "ssma_repl_role " << gauges.repl_role << "\n";
      if (gauges.repl_role == 1) {
        prom_header(oss, "ssma_repl_leader_seq", "gauge",
                    "Newest locally durable journal sequence number.");
        oss << "ssma_repl_leader_seq " << gauges.repl_leader_seq << "\n";
        prom_header(oss, "ssma_repl_replicated_seq", "gauge",
                    "Replication watermark (max follower ack).");
        oss << "ssma_repl_replicated_seq " << gauges.repl_replicated_seq
            << "\n";
        prom_header(oss, "ssma_repl_followers", "gauge",
                    "Handshaken live follower connections.");
        oss << "ssma_repl_followers " << gauges.repl_followers << "\n";
        prom_header(oss, "ssma_repl_lag_records", "gauge",
                    "Durable records not yet past the watermark.");
        oss << "ssma_repl_lag_records " << gauges.repl_lag_records
            << "\n";
        prom_header(oss, "ssma_repl_lag_bytes", "gauge",
                    "Journal bytes not yet past the watermark.");
        oss << "ssma_repl_lag_bytes " << gauges.repl_lag_bytes << "\n";
        prom_header(oss, "ssma_repl_lag_seconds", "gauge",
                    "Age of the oldest unreplicated record.");
        oss << "ssma_repl_lag_seconds " << gauges.repl_lag_seconds
            << "\n";
        prom_header(oss, "ssma_repl_checkpoints_shipped_total",
                    "counter", "Checkpoint files shipped to followers.");
        oss << "ssma_repl_checkpoints_shipped_total "
            << gauges.repl_checkpoints_shipped << "\n";
        prom_header(oss, "ssma_repl_sync_degraded_total", "counter",
                    "Acked-write watermark waits that timed out and "
                    "degraded to async.");
        oss << "ssma_repl_sync_degraded_total "
            << gauges.repl_sync_degraded << "\n";
      } else {
        prom_header(oss, "ssma_repl_applied_records", "gauge",
                    "Accepted records replayed into the standby before "
                    "promotion.");
        oss << "ssma_repl_applied_records "
            << gauges.repl_applied_records << "\n";
        prom_header(oss, "ssma_repl_apply_rate_hz", "gauge",
                    "Follower apply rate over the streaming phase.");
        oss << "ssma_repl_apply_rate_hz " << gauges.repl_apply_rate_hz
            << "\n";
      }
    }
    prom_header(oss, "ssma_batch_budget_tokens", "gauge",
                "Batcher token budget (occupancy denominator).");
    oss << "ssma_batch_budget_tokens " << batch_budget_tokens_ << "\n";

    prom_histogram(oss, "ssma_request_latency_seconds", total_latency_,
                   "End-to-end latency, enqueue to fulfilled.");
    prom_histogram(oss, "ssma_queue_wait_seconds", queue_latency_,
                   "Time waiting in the queue before batch pickup.");
    prom_histogram(oss, "ssma_journal_append_seconds", journal_latency_,
                   "Write-ahead journal append (incl. flush).");

    prom_header(oss, "ssma_batch_tokens", "histogram",
                "Tokens per drained batch (occupancy).");
    std::uint64_t cum = 0;
    std::size_t bound = 1;
    for (std::size_t i = 0; i < kOccupancyBuckets; ++i) {
      cum += occupancy_buckets_[i];
      if (i + 1 < kOccupancyBuckets) {
        oss << "ssma_batch_tokens_bucket{le=\"" << bound << "\"} " << cum
            << "\n";
        bound <<= 1;
      } else {
        oss << "ssma_batch_tokens_bucket{le=\"+Inf\"} " << cum << "\n";
      }
    }
    oss << "ssma_batch_tokens_sum " << tokens_ << "\n";
    oss << "ssma_batch_tokens_count " << batches_ << "\n";

    if (!per_model_.empty()) {
      prom_header(oss, "ssma_model_requests_total", "counter",
                  "Requests fulfilled per model.");
      for (const auto& kv : per_model_)
        oss << "ssma_model_requests_total{model=\"" << kv.first << "\"} "
            << kv.second.requests << "\n";
      prom_header(oss, "ssma_model_tokens_total", "counter",
                  "Tokens processed per model.");
      for (const auto& kv : per_model_)
        oss << "ssma_model_tokens_total{model=\"" << kv.first << "\"} "
            << kv.second.tokens << "\n";
      prom_header(oss, "ssma_model_latency_seconds", "summary",
                  "End-to-end latency per model.");
      for (const auto& kv : per_model_)
        prom_model_summary(oss, "ssma_model_latency_seconds", kv.first,
                           kv.second.total_latency);
      prom_header(oss, "ssma_model_queue_wait_seconds", "summary",
                  "Queue wait per model.");
      for (const auto& kv : per_model_)
        prom_model_summary(oss, "ssma_model_queue_wait_seconds", kv.first,
                           kv.second.queue_latency);
      prom_header(oss, "ssma_model_service_seconds", "summary",
                  "Service time (total minus queue wait) per model.");
      for (const auto& kv : per_model_)
        prom_model_summary(oss, "ssma_model_service_seconds", kv.first,
                           kv.second.service_latency);
    }

    // Shadow-rollout block: present only once a rollout has mirrored
    // traffic (same shape-stability rule as the per-model slices).
    if (!shadow_.empty()) {
      prom_header(oss, "ssma_shadow_rows_total", "counter",
                  "Rows mirrored through the staged candidate bank.");
      for (const auto& kv : shadow_)
        oss << "ssma_shadow_rows_total{model=\"" << kv.first << "\"} "
            << kv.second.rows << "\n";
      prom_header(oss, "ssma_shadow_batches_total", "counter",
                  "Shadow comparison batches per model.");
      for (const auto& kv : shadow_)
        oss << "ssma_shadow_batches_total{model=\"" << kv.first << "\"} "
            << kv.second.batches << "\n";
      prom_header(oss, "ssma_shadow_drift_rows_total", "counter",
                  "Mirrored rows whose outputs diverged from live.");
      for (const auto& kv : shadow_)
        oss << "ssma_shadow_drift_rows_total{model=\"" << kv.first
            << "\"} " << kv.second.drift_rows << "\n";
      prom_header(oss, "ssma_shadow_max_abs_drift", "gauge",
                  "Worst per-element |live - shadow| accumulator delta.");
      for (const auto& kv : shadow_)
        oss << "ssma_shadow_max_abs_drift{model=\"" << kv.first << "\"} "
            << kv.second.max_abs_drift << "\n";
      prom_header(oss, "ssma_shadow_seconds_total", "counter",
                  "Service time of compared rows, live vs shadow bank.");
      for (const auto& kv : shadow_) {
        oss << "ssma_shadow_seconds_total{model=\"" << kv.first
            << "\",side=\"live\"} "
            << prom_num(kv.second.live_ns_sum * 1e-9) << "\n";
        oss << "ssma_shadow_seconds_total{model=\"" << kv.first
            << "\",side=\"shadow\"} "
            << prom_num(kv.second.shadow_ns_sum * 1e-9) << "\n";
      }
    }
  }

  // Per-tier kernel dispatch counters (zero when tracing is compiled
  // out or nothing ran). All tiers are enumerated statically so the
  // exposition's shape does not depend on the host CPU.
  const auto prof = telemetry::kernel_profile_snapshot();
  struct KernelRow {
    const char* name;
    const char* help;
    const telemetry::KernelCounters* tiers;
  };
  const KernelRow rows[] = {
      {"ssma_kernel_lut", "LUT accumulate kernel dispatches", prof.lut},
      {"ssma_kernel_encode", "Hash-tree encoder dispatches",
       prof.encode},
  };
  for (const KernelRow& row : rows) {
    const std::string base = row.name;
    prom_header(oss, base + "_calls_total", "counter",
                std::string(row.help) + " (calls).");
    for (int t = 0; t < telemetry::kNumKernelTiers; ++t)
      oss << base << "_calls_total{tier=\""
          << telemetry::kernel_tier_label(t) << "\"} "
          << row.tiers[t].calls << "\n";
    prom_header(oss, base + "_rows_total", "counter",
                std::string(row.help) + " (rows).");
    for (int t = 0; t < telemetry::kNumKernelTiers; ++t)
      oss << base << "_rows_total{tier=\""
          << telemetry::kernel_tier_label(t) << "\"} " << row.tiers[t].rows
          << "\n";
    prom_header(oss, base + "_bytes_total", "counter",
                std::string(row.help) + " (table bytes touched).");
    for (int t = 0; t < telemetry::kNumKernelTiers; ++t)
      oss << base << "_bytes_total{tier=\""
          << telemetry::kernel_tier_label(t) << "\"} "
          << row.tiers[t].bytes << "\n";
    prom_header(oss, base + "_seconds_total", "counter",
                std::string(row.help) + " (wall time).");
    for (int t = 0; t < telemetry::kNumKernelTiers; ++t)
      oss << base << "_seconds_total{tier=\""
          << telemetry::kernel_tier_label(t) << "\"} "
          << prom_num(static_cast<double>(row.tiers[t].ns) * 1e-9)
          << "\n";
  }

  return oss.str();
}

}  // namespace ssma::serve
