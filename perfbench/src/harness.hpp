// Shared plumbing of the benchmark binary: arguments, the result line,
// the run context, timing statistics and the in-memory span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for journals, checkpoints and follower state. The binary
  /// removes what it creates there; run.py removes the directory.
  std::string scratch = "perfbench-scratch";
  /// Chrome-trace output of a traced run ("" = none).
  std::string trace_out;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--scratch DIR]
/// [--trace-out FILE]`. Returns false with a message on bad input.
bool parse_args(int argc, char** argv, Args* out, std::string* err);

/// Median of a sample set; 0 when it is empty.
inline double median(const ssma::SampleSet& s) {
  return s.count() == 0 ? 0.0 : s.percentile(50.0);
}

/// Fixed-size uniform sample of a long latency stream (reservoir
/// sampling): percentiles of a whole run without memory that grows with
/// throughput, so peak_rss_mb measures the program rather than the
/// benchmark's own sample storage.
class LatencySample {
 public:
  static constexpr std::size_t kCapacity = 100000;

  void add(double v);
  /// Samples offered, kept or not.
  std::size_t count() const { return count_; }
  /// Nearest-rank percentile of the kept samples; 0 when there are none.
  double percentile(double p) const;

 private:
  std::vector<double> kept_;
  std::size_t count_ = 0;
  ssma::Rng rng_{0x1a7e5a3b1e};
};

/// Peak resident set of this process (ru_maxrss) in MB.
double peak_rss_mb();

/// One JSON line of run context: workload, seed, run length, nproc, CPU
/// model and the selected LUT and encoder kernel tiers.
std::string context_json(const Args& args);

/// The result of one run, printed as the last stdout line.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Outputs that differ from the reference; any mismatch fails the run.
  std::uint64_t mismatches = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  bool correct() const { return mismatches == 0 && attempted > 0; }
  std::string json() const;
};

/// Prints the detail line: the highest percentile reported (p99) with
/// its sample count, the failed share of attempted operations, and every
/// set-up time of the run (setup_s is the fastest).
void print_detail(double p99_ms, std::size_t samples,
                  const ssma::SampleSet& setup_s, const Report& report);

/// In-memory span recorder for traced runs, used from one thread.
/// Storage is capped per span name, so a flood of client spans cannot
/// crowd out the probe spans; spans past the cap still pay their clock
/// reads (so trace_overhead_frac stays honest) but are only counted.
class Tracer {
 public:
  static constexpr std::uint64_t kNoId = ~std::uint64_t{0};

  struct Span {
    const char* name;  ///< static string
    std::int64_t t0_ns;
    std::int64_t t1_ns;
    std::uint64_t id;  ///< request or chunk id; kNoId when none
  };
  /// Per span name: span count, summed self time (duration minus the
  /// nested child spans) and median duration.
  struct Layer {
    std::string name;
    std::size_t count = 0;
    double self_ms = 0.0;
    double p50_us = 0.0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  void record(const char* name, std::int64_t t0_ns, std::int64_t t1_ns,
              std::uint64_t id = kNoId);

  std::vector<Layer> layers() const;
  /// Chrome trace-event JSON of every stored span.
  std::string chrome_json(const std::string& process) const;
  std::size_t dropped() const { return dropped_; }

 private:
  static constexpr std::size_t kMaxSpansPerName = 20000;
  bool enabled_ = false;
  std::vector<Span> spans_;
  /// Stored spans per name (names are static strings: few, compared by
  /// address).
  std::vector<std::pair<const char*, std::size_t>> per_name_;
  std::size_t dropped_ = 0;
};

/// Calls `fn` at least `min_reps` times and for at least `min_s`
/// seconds, one span per call; returns the median call time in ns.
template <class F>
double median_call_ns(Tracer& tracer, const char* name, F&& fn,
                      int min_reps = 20, double min_s = 0.05) {
  ssma::SampleSet ns;
  const std::int64_t until =
      now_ns() + static_cast<std::int64_t>(min_s * 1e9);
  while (ns.count() < static_cast<std::size_t>(min_reps) ||
         (now_ns() < until && ns.count() < 100000)) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    tracer.record(name, t0, t1);
    ns.add(static_cast<double>(t1 - t0));
  }
  return median(ns);
}

}  // namespace perfbench
