// Direct-call layer probes and the per-layer metric set of a traced run.
//
// Every workload prints the same per-layer metrics. The probes time one
// layer's public call at a time on the workload's own model and inputs,
// so they exist on every workload. The counter-derived metrics (queue
// wait, batch size, service time, front-door overhead) come from the
// serving stack's counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/model_registry.hpp"
#include "harness.hpp"
#include "maddness/quantize.hpp"

namespace perfbench {

/// What the probes run on.
struct ProbeTarget {
  ssma::engine::ModelRef model;
  const ssma::maddness::QuantizedActivations* pool = nullptr;
  const std::vector<std::int16_t>* reference = nullptr;  ///< per pool row
  std::size_t request_rows = 1;  ///< rows of one request (or chunk)
  std::size_t batch_rows = 1;    ///< rows of one executed batch
  std::size_t sim_rows = 8;      ///< tokens pushed through the macro
  std::string scratch;           ///< directory for probe journals etc.
};

struct ProbeResults {
  double frame_us = 0.0;
  double frame_bytes_per_row = 0.0;
  double admit_ns = 0.0;
  std::uint64_t admit_rejects = 0;
  double run_batch_us = 0.0;
  double encode_ns_per_row = 0.0;
  double lut_ns_per_row = 0.0;
  double lut_gbps = 0.0;
  double journal_append_us = 0.0;
  double journal_bytes_per_req = 0.0;
  double checkpoint_write_ms = 0.0;
  double repl_ack_rtt_us = 0.0;
  double repl_bytes_per_req = 0.0;
  std::uint64_t repl_sync_degraded = 0;
  double sim_events_per_row = 0.0;
  double sim_host_ns_per_event = 0.0;
  double sim_program_ms = 0.0;  ///< one tile
  double sim_run_ms = 0.0;      ///< one tile
  double sim_ns_per_row = 0.0;  ///< simulated ns
  double sim_tops_per_w = 0.0;
  std::size_t sim_tiles = 0;
};

/// Runs every probe. Outputs that differ from the reference are added to
/// report.mismatches.
ProbeResults run_probes(const ProbeTarget& target, Tracer& tracer,
                        Report& report);

/// Times of the repeated set-ups, by phase; each metric is the fastest.
struct SetupLog {
  ssma::SampleSet train_s, register_s, start_s, total_s;
  void add(double train, double reg, double start) {
    train_s.add(train);
    register_s.add(reg);
    start_s.add(start);
    total_s.add(train + reg + start);
  }
};

/// A traced run's layer numbers beyond the probes.
struct LayerView {
  ProbeResults probe;
  double overhead_p50_ms = 0.0;
  double bytes_per_row = 0.0;
  std::uint64_t rejects = 0;
  double queue_wait_p50_us = 0.0;
  double rows_per_batch = 0.0;
  double service_p50_us = 0.0;
  double repl_bytes_per_req = 0.0;
  std::uint64_t repl_sync_degraded = 0;
  double unattributed_p50_ms = 0.0;
  double trace_overhead_frac = 0.0;
};

/// Adds the per-layer metrics, always the same names in the same order.
void add_layer_metrics(const LayerView& view, const SetupLog& setup,
                       Report& report);

/// Per-layer table on stderr: each metric with the end-to-end metric it
/// should move, then every span name with its self time.
void print_layer_table(const Report& report, const Tracer& tracer);

}  // namespace perfbench
