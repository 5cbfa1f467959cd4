#include "src/net/delay_model.h"

#include <gtest/gtest.h>

namespace klink {
namespace {

TEST(DelayModelTest, ConstantDelay) {
  ConstantDelay d(500);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.Sample(rng), 500);
}

TEST(DelayModelTest, UniformBoundsAndMean) {
  UniformDelay d(100, 300);
  Rng rng(2);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const DurationMicros v = d.Sample(rng);
    EXPECT_GE(v, 100);
    EXPECT_LE(v, 300);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(DelayModelTest, ZipfValuesOnGrid) {
  ZipfDelay d(/*lo=*/1000, /*step=*/500, /*n=*/10, /*s=*/0.99);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const DurationMicros v = d.Sample(rng);
    EXPECT_GE(v, 1000);
    EXPECT_LE(v, 1000 + 9 * 500);
    EXPECT_EQ((v - 1000) % 500, 0);
  }
}

TEST(DelayModelTest, ZipfSkewsTowardLow) {
  ZipfDelay d(0, 1000, 100, 0.99);
  Rng rng(4);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (d.Sample(rng) < 10000) ++low;  // first 10 ranks
  }
  EXPECT_GT(low, n / 2);  // heavy head
}

TEST(DelayModelTest, PaperModels) {
  auto uniform = MakePaperUniformDelay();
  auto zipf = MakePaperZipfDelay();
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const DurationMicros u = uniform->Sample(rng);
    EXPECT_GE(u, MillisToMicros(5));
    EXPECT_LE(u, MillisToMicros(100));
    const DurationMicros z = zipf->Sample(rng);
    EXPECT_GE(z, MillisToMicros(5));
    EXPECT_LE(z, MillisToMicros(5) + 199 * MillisToMicros(2));
  }
}

TEST(DelayModelTest, ParetoBoundsAndMean) {
  // Lomax (shifted Pareto) with alpha=3: finite mean = scale/(alpha-1).
  const DurationMicros lo = 1000;
  const DurationMicros scale = 10000;
  ParetoDelay d(lo, /*alpha=*/3.0, scale);
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const DurationMicros v = d.Sample(rng);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, SecondsToMicros(30));  // default cap
    sum += static_cast<double>(v - lo);
  }
  // E[tail] = scale/(alpha-1) = 5000 us; Monte Carlo tolerance ~2%.
  EXPECT_NEAR(sum / n, 5000.0, 120.0);
}

TEST(DelayModelTest, ParetoTailIsHeavy) {
  // alpha=1.5 has infinite variance: the tail beyond 10x the scale must
  // carry real mass — (1 + 10)^-1.5 ~ 2.7% — where an exponential with
  // the same scale would put e^-10 ~ 0.005% there.
  ParetoDelay d(0, /*alpha=*/1.5, /*scale=*/20000);
  Rng rng(12);
  const int n = 100000;
  int beyond = 0;
  for (int i = 0; i < n; ++i) {
    if (d.Sample(rng) > 200000) ++beyond;
  }
  EXPECT_GT(beyond, n / 100);  // > 1%
  EXPECT_LT(beyond, n / 20);   // < 5% (sanity: not all mass in the tail)
}

TEST(DelayModelTest, ParetoDefaultIsNotCoveredByWatermarkLag) {
  // The allowed-lateness experiments rely on the Pareto regime producing
  // genuinely late events: a non-trivial fraction of delays must exceed
  // the 250 ms watermark lag WatermarkLagFor assigns to it.
  auto d = MakeDefaultParetoDelay();
  Rng rng(13);
  const int n = 100000;
  int late = 0;
  for (int i = 0; i < n; ++i) {
    if (d->Sample(rng) > MillisToMicros(250)) ++late;
  }
  EXPECT_GT(late, n / 200);  // > 0.5% of events arrive behind the lag
}

}  // namespace
}  // namespace klink
