#ifndef KLINK_TESTS_SUPPORT_DENSE_HISTOGRAM_H_
#define KLINK_TESTS_SUPPORT_DENSE_HISTOGRAM_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/serialize.h"

namespace klink {

// A dense reference for klink::Histogram, written from its bucket layout
// (values below 64 exact, then 64 sub-buckets per power of two): one
// counter per bucket, the way the class stored them before it kept only
// its non-empty buckets. Tests hold the class to it value for value, and
// SerializeDense writes the checkpoint layout of those earlier builds,
// which Histogram::Restore must keep reading.
class DenseHistogram {
 public:
  static constexpr int kBuckets = 64 + 57 * 64;  // 3712

  static int BucketFor(int64_t v) {
    if (v < 64) return static_cast<int>(v);
    const int pow = 63 - std::countl_zero(static_cast<uint64_t>(v));
    return 64 + (pow - 6) * 64 +
           static_cast<int>((static_cast<uint64_t>(v) >> (pow - 6)) & 63);
  }

  static int64_t Midpoint(int index) {
    if (index < 64) return index;
    const int pow = (index - 64) / 64 + 6;
    const int64_t sub = (index - 64) % 64;
    const int64_t width = int64_t{1} << (pow - 6);
    return (int64_t{1} << pow) + sub * width + width / 2;
  }

  void Add(int64_t v) {
    v = std::max<int64_t>(v, 0);
    ++buckets_[static_cast<size_t>(BucketFor(v))];
    ++count_;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    sum_ += static_cast<double>(v);
  }

  void Merge(const DenseHistogram& other) {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    if (other.count_ > 0) {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    sum_ += other.sum_;
  }

  int64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  const std::vector<int64_t>& buckets() const { return buckets_; }

  /// The first bucket whose running count reaches round(q * count).
  int64_t Quantile(double q) const {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const int64_t target = std::max<int64_t>(
        1, static_cast<int64_t>(q * static_cast<double>(count_) + 0.5));
    int64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= target) {
        return std::clamp(Midpoint(static_cast<int>(i)), min(), max_);
      }
    }
    return max_;
  }

  /// The dense checkpoint layout: the bucket count, every bucket, then
  /// count, min, max and sum.
  void SerializeDense(StateWriter& w) const {
    w.PutU64(buckets_.size());
    for (const int64_t b : buckets_) w.PutI64(b);
    w.PutI64(count_);
    w.PutI64(min_);
    w.PutI64(max_);
    w.PutDouble(sum_);
  }

 private:
  std::vector<int64_t> buckets_ = std::vector<int64_t>(kBuckets, 0);
  int64_t count_ = 0;
  int64_t min_ = std::numeric_limits<int64_t>::max();
  int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace klink

#endif  // KLINK_TESTS_SUPPORT_DENSE_HISTOGRAM_H_
