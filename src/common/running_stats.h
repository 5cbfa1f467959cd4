#ifndef KLINK_COMMON_RUNNING_STATS_H_
#define KLINK_COMMON_RUNNING_STATS_H_

#include <cmath>
#include <cstdint>

#include "src/common/serialize.h"

namespace klink {

/// Streaming mean / variance accumulator (Welford). Used for per-operator
/// cost and selectivity estimates and for per-epoch delay statistics.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    sum_ += x;
    sum_sq_ += x * x;
  }

  /// Removes all observations.
  void Reset() { *this = RunningStats(); }

  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Mean of the observations; 0 when empty.
  double mean() const { return mean_; }

  /// Mean of the squared observations (the paper's chi, Eq. 4); 0 when empty.
  double mean_sq() const {
    return count_ == 0 ? 0.0 : sum_sq_ / static_cast<double>(count_);
  }

  double sum() const { return sum_; }

  /// Population variance; 0 when fewer than 2 observations.
  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
  }

  double stddev() const { return std::sqrt(variance()); }

  /// Checkpoint support: all five accumulators travel as raw bit patterns
  /// so a restored accumulator continues the identical float sequence.
  void Serialize(StateWriter& w) const {
    w.PutI64(count_);
    w.PutDouble(mean_);
    w.PutDouble(m2_);
    w.PutDouble(sum_);
    w.PutDouble(sum_sq_);
  }

  void Restore(StateReader& r) {
    count_ = r.GetI64();
    mean_ = r.GetDouble();
    m2_ = r.GetDouble();
    sum_ = r.GetDouble();
    sum_sq_ = r.GetDouble();
  }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

}  // namespace klink

#endif  // KLINK_COMMON_RUNNING_STATS_H_
