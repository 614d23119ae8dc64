// Streaming statistics accumulators used by the simulator
// (latency distributions, energy ledgers) and by the benchmark harness.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace ssma {

/// Welford-style streaming accumulator: mean/variance/min/max in one pass.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Keeps all samples; supports exact percentiles. Use for moderate sample
/// counts (latency distributions in benches/tests).
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  double stddev() const;
  /// Exact percentile by nearest-rank (p in [0,100]).
  double percentile(double p) const;
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace ssma
