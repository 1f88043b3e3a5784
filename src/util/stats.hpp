// Small statistics helpers shared by the simulation harness: streaming
// moments (Welford) and order statistics over collected samples.
#pragma once

#include <cstddef>
#include <vector>

namespace fountain::util {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// Numerically stable; O(1) per observation.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Collects samples for percentile queries. Sorting is deferred until the
/// first query after new data arrives.
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  /// q in [0,1]; nearest-rank percentile. Throws if empty.
  double percentile(double q) const;
  double min() const { return percentile(0.0); }
  double max() const { return percentile(1.0); }
  double mean() const;
  double stddev() const;
  /// Fraction of samples strictly greater than x.
  double fraction_above(double x) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  void ensure_sorted() const;
};

}  // namespace fountain::util
