#include "src/common/histogram.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serialize.h"
#include "tests/support/dense_histogram.h"

namespace klink {
namespace {

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(42);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_EQ(h.Quantile(0.5), 42);
  EXPECT_EQ(h.Quantile(0.99), 42);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (int i = 0; i < 64; ++i) h.Add(i);
  EXPECT_EQ(h.Quantile(0.0), 0);
  // Median of 0..63 is around 31/32.
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.5)), 31.5, 1.0);
  EXPECT_EQ(h.max(), 63);
}

TEST(HistogramTest, QuantilesBoundedRelativeError) {
  Histogram h;
  for (int64_t v = 1; v <= 1000000; v += 7) h.Add(v);
  // Uniform distribution: p-quantile should be close to p * 1e6.
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    const double expected = p * 1e6;
    const double actual = static_cast<double>(h.Quantile(p));
    EXPECT_NEAR(actual, expected, expected * 0.03 + 8.0)
        << "quantile " << p;
  }
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 0);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  a.Add(10);
  a.Add(20);
  b.Add(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 30);
  EXPECT_DOUBLE_EQ(a.mean(), 20.0);
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.Add(1);
  h.Add(2);
  h.Add(3);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Add(1000);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Quantile(0.5), 0);
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  const int64_t big = int64_t{1} << 40;
  h.Add(big);
  EXPECT_EQ(h.count(), 1);
  // Log-bucketed: relative error bounded by sub-bucket resolution.
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.5)),
              static_cast<double>(big), static_cast<double>(big) * 0.02);
}

// Values of every magnitude: small exact ones, bucket edges, negatives
// (clamped to 0), log-uniform large ones, and INT64_MAX in the last
// bucket.
std::vector<int64_t> RandomValues(uint64_t seed, int n) {
  static constexpr int64_t kEdges[] = {
      -1, 0, 1, 63, 64, 65, 127, 128, std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min()};
  constexpr int64_t kLastEdge = static_cast<int64_t>(std::size(kEdges)) - 1;
  Rng rng(seed);
  std::vector<int64_t> values;
  for (int i = 0; i < n; ++i) {
    switch (rng.NextInt(0, 3)) {
      case 0:
        values.push_back(rng.NextInt(-100, 200));
        break;
      case 1:
        values.push_back(kEdges[rng.NextInt(0, kLastEdge)]);
        break;
      default: {
        const int64_t lo = int64_t{1} << rng.NextInt(6, 62);
        values.push_back(lo + rng.NextInt(0, lo - 1));
      }
    }
  }
  return values;
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

void ExpectSameAsDense(const Histogram& h, const DenseHistogram& ref) {
  ASSERT_EQ(h.count(), ref.count());
  EXPECT_EQ(h.min(), ref.min());
  EXPECT_EQ(h.max(), ref.max());
  EXPECT_EQ(Bits(h.mean()), Bits(ref.mean()));
  for (int i = 0; i <= 1000; ++i) {
    const double q = i / 1000.0;
    ASSERT_EQ(h.Quantile(q), ref.Quantile(q)) << "q " << q;
  }
}

std::vector<uint8_t> SerializeBytes(const Histogram& h) {
  StateWriter w;
  h.Serialize(w);
  return w.TakeBytes();
}

std::vector<uint8_t> DenseBytes(const DenseHistogram& h) {
  StateWriter w;
  h.SerializeDense(w);
  return w.TakeBytes();
}

/// Restores `bytes` into a fresh histogram, which must consume all of it.
Histogram RestoreAll(const std::vector<uint8_t>& bytes) {
  Histogram h;
  StateReader r(bytes);
  h.Restore(r);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  return h;
}

TEST(HistogramTest, MatchesDenseReferenceOnRandomValues) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Histogram h;
    DenseHistogram ref;
    for (const int64_t v :
         RandomValues(seed, static_cast<int>(seed * seed * 5))) {
      h.Add(v);
      ref.Add(v);
    }
    ExpectSameAsDense(h, ref);
    // Serialize -> Restore -> Serialize is byte-identical, and the dense
    // layout of earlier builds restores to the same histogram.
    const std::vector<uint8_t> bytes = SerializeBytes(h);
    const Histogram restored = RestoreAll(bytes);
    ExpectSameAsDense(restored, ref);
    EXPECT_EQ(SerializeBytes(restored), bytes);
    EXPECT_EQ(SerializeBytes(RestoreAll(DenseBytes(ref))), bytes);
  }
}

TEST(HistogramTest, MergeOfRandomSplitsMatchesOneHistogram) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed + 1000);
    const std::vector<int64_t> values = RandomValues(seed, 400);
    const int parts = static_cast<int>(rng.NextInt(1, 6));
    std::vector<Histogram> split(static_cast<size_t>(parts));
    std::vector<DenseHistogram> dense_split(static_cast<size_t>(parts));
    Histogram whole;
    for (const int64_t v : values) {
      const size_t part = static_cast<size_t>(rng.NextInt(0, parts - 1));
      split[part].Add(v);
      dense_split[part].Add(v);
      whole.Add(v);
    }
    // Merged the way Engine::AggregateSwmLatency merges its sinks.
    Histogram merged;
    DenseHistogram dense_merged;
    for (int p = 0; p < parts; ++p) {
      merged.Merge(split[static_cast<size_t>(p)]);
      dense_merged.Merge(dense_split[static_cast<size_t>(p)]);
    }
    ExpectSameAsDense(merged, dense_merged);
    EXPECT_EQ(SerializeBytes(merged),
              SerializeBytes(RestoreAll(DenseBytes(dense_merged))));
    ASSERT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.min(), whole.min());
    EXPECT_EQ(merged.max(), whole.max());
    for (int i = 0; i <= 1000; ++i) {
      ASSERT_EQ(merged.Quantile(i / 1000.0), whole.Quantile(i / 1000.0));
    }
    // The sums differ only in their order of addition.
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12 * whole.mean());
  }
}

TEST(HistogramTest, EveryBucketNonEmptyRoundTrips) {
  // All 3712 buckets hit: the sparse layout's entry count equals the dense
  // layout's bucket count, and its tag still tells the two apart.
  Histogram h;
  DenseHistogram ref;
  for (int i = 0; i < DenseHistogram::kBuckets; ++i) {
    h.Add(DenseHistogram::Midpoint(i));
    ref.Add(DenseHistogram::Midpoint(i));
  }
  ASSERT_EQ(ref.buckets(),
            std::vector<int64_t>(DenseHistogram::kBuckets, 1));
  ExpectSameAsDense(h, ref);
  const std::vector<uint8_t> bytes = SerializeBytes(h);
  StateReader head(bytes);
  EXPECT_NE(head.GetU64(), uint64_t{DenseHistogram::kBuckets});
  EXPECT_EQ(SerializeBytes(RestoreAll(bytes)), bytes);
  EXPECT_EQ(SerializeBytes(RestoreAll(DenseBytes(ref))), bytes);
}

// The sparse layout: this tag, the entry count, (index, count) entries in
// ascending index order, then count, min, max and sum.
constexpr uint64_t kSparseTag = uint64_t{1} << 63;

struct Entry {
  uint32_t index;
  int64_t count;
};

std::vector<uint8_t> SparseBlob(const std::vector<Entry>& entries,
                                int64_t count, int64_t min, int64_t max,
                                double sum) {
  StateWriter w;
  w.PutU64(kSparseTag);
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    w.PutU32(e.index);
    w.PutI64(e.count);
  }
  w.PutI64(count);
  w.PutI64(min);
  w.PutI64(max);
  w.PutDouble(sum);
  return w.TakeBytes();
}

TEST(HistogramTest, SparseLayoutKeepsOnlyNonEmptyBuckets) {
  Histogram h;
  for (const int64_t v : {3, 100, 3, 5000}) h.Add(v);
  const uint32_t b5000 =
      static_cast<uint32_t>(DenseHistogram::BucketFor(5000));
  EXPECT_EQ(SerializeBytes(h),
            SparseBlob({{3, 2}, {100, 1}, {b5000, 1}}, 4, 3, 5000, 5106.0));
  // An empty histogram writes no entry.
  EXPECT_EQ(SerializeBytes(Histogram()),
            SparseBlob({}, 0, std::numeric_limits<int64_t>::max(), 0, 0.0));
}

TEST(HistogramTest, RestoreStopsAtTheEndOfItsBlob) {
  Histogram a;
  a.Add(42);
  DenseHistogram b;
  b.Add(7);
  StateWriter w;
  a.Serialize(w);
  b.SerializeDense(w);
  w.PutU64(0xfeedULL);
  const std::vector<uint8_t> bytes = w.TakeBytes();
  StateReader r(bytes);
  Histogram ra, rb;
  ra.Restore(r);
  rb.Restore(r);
  EXPECT_EQ(r.GetU64(), 0xfeedULL);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(ra.Quantile(0.5), 42);
  EXPECT_EQ(rb.Quantile(0.5), 7);
}

// A checkpoint blob is read from a file: Restore fails the reader on a
// blob that breaks what Add, Merge and Quantile rely on, and keeps none
// of it.
struct BadBlob {
  const char* name;
  std::vector<uint8_t> bytes;
};

std::vector<uint8_t> DenseBlobWithBucket(int index, int64_t bucket_count,
                                         int64_t count) {
  StateWriter w;
  w.PutU64(DenseHistogram::kBuckets);
  for (int i = 0; i < DenseHistogram::kBuckets; ++i) {
    w.PutI64(i == index ? bucket_count : 0);
  }
  w.PutI64(count);
  w.PutI64(0);
  w.PutI64(0);
  w.PutDouble(0.0);
  return w.TakeBytes();
}

std::vector<uint8_t> Truncated(std::vector<uint8_t> bytes) {
  bytes.pop_back();
  return bytes;
}

std::vector<uint8_t> UnknownLayout() {
  StateWriter w;
  w.PutU64(DenseHistogram::kBuckets - 1);
  return w.TakeBytes();
}

std::string BadBlobName(const ::testing::TestParamInfo<BadBlob>& param) {
  return param.param.name;
}

void PrintTo(const BadBlob& blob, std::ostream* os) { *os << blob.name; }

class HistogramRestoreRejectsTest : public ::testing::TestWithParam<BadBlob> {
};

TEST_P(HistogramRestoreRejectsTest, FailsTheReaderAndKeepsNothing) {
  Histogram h;
  h.Add(9);
  StateReader r(GetParam().bytes);
  h.Restore(r);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Quantile(0.5), 0);
  EXPECT_EQ(SerializeBytes(h), SerializeBytes(Histogram()));
}

INSTANTIATE_TEST_SUITE_P(
    Violations, HistogramRestoreRejectsTest,
    ::testing::Values(
        BadBlob{"IndexOutOfRange", SparseBlob({{3712, 1}}, 1, 0, 0, 0.0)},
        BadBlob{"IndexRepeated",
                SparseBlob({{5, 1}, {5, 1}}, 2, 5, 5, 10.0)},
        BadBlob{"IndexDescending",
                SparseBlob({{9, 1}, {5, 1}}, 2, 5, 9, 14.0)},
        BadBlob{"ZeroCount", SparseBlob({{5, 0}}, 0, 5, 5, 0.0)},
        BadBlob{"NegativeCount",
                SparseBlob({{5, -1}, {6, 2}}, 1, 5, 6, 7.0)},
        BadBlob{"CountsExceedCount",
                SparseBlob({{5, 1}, {6, 2}}, 2, 5, 6, 17.0)},
        BadBlob{"CountsFallShortOfCount",
                SparseBlob({{5, 1}, {6, 2}}, 4, 5, 6, 17.0)},
        BadBlob{"TooManyEntries",
                SparseBlob(std::vector<Entry>(3713, Entry{0, 1}), 3713, 0,
                           0, 0.0)},
        BadBlob{"DenseNegativeCount", DenseBlobWithBucket(5, -1, -1)},
        BadBlob{"DenseCountsFallShortOfCount",
                DenseBlobWithBucket(5, 2, 3)},
        BadBlob{"UnknownLayout", UnknownLayout()},
        BadBlob{"Truncated",
                Truncated(SparseBlob({{5, 1}}, 1, 5, 5, 5.0))}),
    BadBlobName);

}  // namespace
}  // namespace klink
