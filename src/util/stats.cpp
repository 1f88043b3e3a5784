#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace fountain::util {

void RunningStats::add(double x) {
  ++count_;
  if (count_ == 1) {
    mean_ = x;
    m2_ = 0.0;
    min_ = x;
    max_ = x;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::percentile(double q) const {
  if (samples_.empty()) throw std::logic_error("SampleSet: empty");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("SampleSet: q out of range");
  ensure_sorted();
  if (q == 0.0) return samples_.front();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples_.size())));
  return samples_[std::min(samples_.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double SampleSet::fraction_above(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(samples_.end() - it) /
         static_cast<double>(samples_.size());
}

}  // namespace fountain::util
