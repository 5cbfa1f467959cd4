#include "src/common/histogram.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/common/check.h"

namespace klink {

namespace {
// 64 sub-buckets per power of two above 2^6; values < 64 are exact.
constexpr int kExactLimit = 64;
constexpr int kMaxPow = 63;
constexpr int kNumBuckets = kExactLimit + (kMaxPow - 6) * 64;

// The first u64 of a serialized histogram names its layout. Earlier builds
// wrote the dense bucket count, kNumBuckets, then every bucket; the sparse
// layout writes this tag, which no bucket count can equal, then its
// entries.
constexpr uint64_t kSparseTag = uint64_t{1} << 63;
}  // namespace

int Histogram::BucketFor(int64_t value) {
  if (value < kExactLimit) return static_cast<int>(value);
  const int pow = 63 - std::countl_zero(static_cast<uint64_t>(value));
  // Sub-bucket index: top 6 bits after the leading bit.
  const int sub = static_cast<int>((static_cast<uint64_t>(value) >> (pow - 6)) &
                                   (kSubBuckets - 1));
  return kExactLimit + (pow - 6) * kSubBuckets + sub;
}

int64_t Histogram::BucketMidpoint(int index) {
  if (index < kExactLimit) return index;
  const int rel = index - kExactLimit;
  const int pow = rel / kSubBuckets + 6;
  const int sub = rel % kSubBuckets;
  const int64_t lo =
      (int64_t{1} << pow) + (static_cast<int64_t>(sub) << (pow - 6));
  const int64_t width = int64_t{1} << (pow - 6);
  return lo + width / 2;
}

void Histogram::Add(int64_t value) {
  if (value < 0) value = 0;
  const int b = BucketFor(value);
  KLINK_DCHECK(b >= 0 && b < kNumBuckets);
  const auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), b,
      [](const Bucket& e, int index) { return e.index < index; });
  if (it != buckets_.end() && it->index == b) {
    ++it->count;
  } else {
    buckets_.insert(it, Bucket{b, 1});
  }
  ++count_;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  sum_ += static_cast<double>(value);
}

void Histogram::Merge(const Histogram& other) {
  if (!other.buckets_.empty()) {
    std::vector<Bucket> merged;
    merged.reserve(buckets_.size() + other.buckets_.size());
    auto a = buckets_.begin();
    auto b = other.buckets_.begin();
    while (a != buckets_.end() && b != other.buckets_.end()) {
      if (a->index < b->index) {
        merged.push_back(*a++);
      } else if (b->index < a->index) {
        merged.push_back(*b++);
      } else {
        merged.push_back(Bucket{a->index, a->count + b->count});
        ++a;
        ++b;
      }
    }
    merged.insert(merged.end(), a, buckets_.end());
    merged.insert(merged.end(), b, other.buckets_.end());
    buckets_ = std::move(merged);
  }
  count_ += other.count_;
  if (other.count_ > 0) {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;
}

void Histogram::Reset() { *this = Histogram(); }

int64_t Histogram::min() const { return count_ == 0 ? 0 : min_; }

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

int64_t Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const int64_t target =
      std::max<int64_t>(1, static_cast<int64_t>(q * static_cast<double>(count_) + 0.5));
  int64_t seen = 0;
  for (const Bucket& b : buckets_) {
    seen += b.count;
    if (seen >= target) {
      return std::clamp(BucketMidpoint(b.index), min(), max_);
    }
  }
  return max_;
}

void Histogram::Serialize(StateWriter& w) const {
  w.PutU64(kSparseTag);
  w.PutU32(static_cast<uint32_t>(buckets_.size()));
  for (const Bucket& b : buckets_) {
    w.PutU32(static_cast<uint32_t>(b.index));
    w.PutI64(b.count);
  }
  w.PutI64(count_);
  w.PutI64(min_);
  w.PutI64(max_);
  w.PutDouble(sum_);
}

void Histogram::Restore(StateReader& r) {
  Reset();
  Histogram h;
  const uint64_t layout = r.GetU64();
  if (layout == kSparseTag) {
    const uint32_t n = r.GetU32();
    if (n > kNumBuckets) return r.Fail();
    h.buckets_.reserve(n);
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      const uint32_t index = r.GetU32();
      const int64_t count = r.GetI64();
      if (index >= kNumBuckets) return r.Fail();
      h.buckets_.push_back(Bucket{static_cast<int32_t>(index), count});
    }
  } else if (layout == kNumBuckets) {
    for (int i = 0; i < kNumBuckets && r.ok(); ++i) {
      const int64_t count = r.GetI64();
      if (count != 0) h.buckets_.push_back(Bucket{i, count});
    }
  } else {
    return r.Fail();
  }
  h.count_ = r.GetI64();
  h.min_ = r.GetI64();
  h.max_ = r.GetI64();
  h.sum_ = r.GetDouble();
  if (!r.ok()) return;
  // Add, Merge and Quantile rely on ascending indices and positive counts
  // that sum to count_; each check also keeps the running sum in range.
  int64_t seen = 0;
  int32_t prev = -1;
  for (const Bucket& b : h.buckets_) {
    if (b.index <= prev || b.count <= 0 || b.count > h.count_ - seen) {
      return r.Fail();
    }
    prev = b.index;
    seen += b.count;
  }
  if (seen != h.count_) return r.Fail();
  *this = std::move(h);
}

}  // namespace klink
