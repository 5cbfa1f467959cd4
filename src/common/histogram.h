#ifndef KLINK_COMMON_HISTOGRAM_H_
#define KLINK_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/serialize.h"

namespace klink {

/// Log-bucketed histogram of non-negative values (HdrHistogram-style),
/// used for latency distributions and CDF reporting. Relative quantile
/// error is bounded by the per-decade sub-bucket resolution (~1.6%).
/// Only non-empty buckets are stored, 16 B each, so an empty histogram
/// holds nothing and memory follows the number of distinct buckets hit.
class Histogram {
 public:
  /// Records one value; negatives are clamped to 0.
  void Add(int64_t value);

  /// Merges another histogram into this one.
  void Merge(const Histogram& other);

  /// Removes all recorded values.
  void Reset();

  int64_t count() const { return count_; }
  int64_t min() const;
  int64_t max() const { return max_; }
  double mean() const;

  /// Value at quantile q in [0, 1]; 0 when empty. q=0.5 is the median.
  int64_t Quantile(double q) const;

  /// Convenience: Quantile(p / 100).
  int64_t Percentile(double p) const { return Quantile(p / 100.0); }

  /// Checkpoint support: the non-empty buckets plus summary accumulators.
  void Serialize(StateWriter& w) const;

  /// Reads what Serialize writes, or the dense layout of earlier builds.
  /// A blob that breaks the bucket invariants (index out of range, indices
  /// not ascending, a count <= 0, counts not summing to count()) fails `r`
  /// and leaves this histogram empty.
  void Restore(StateReader& r);

 private:
  struct Bucket {
    int32_t index;
    int64_t count;  // > 0
  };

  static constexpr int kSubBuckets = 64;  // per power-of-two bucket

  static int BucketFor(int64_t value);
  static int64_t BucketMidpoint(int index);

  std::vector<Bucket> buckets_;  // non-empty buckets, ascending index
  int64_t count_ = 0;
  int64_t min_ = std::numeric_limits<int64_t>::max();
  int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace klink

#endif  // KLINK_COMMON_HISTOGRAM_H_
