#include "src/common/running_stats.h"

#include <gtest/gtest.h>

namespace klink {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean_sq(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);  // population variance
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
}

TEST(RunningStatsTest, MeanSqIsChi) {
  // chi = E[d^2] (paper Eq. 4).
  RunningStats s;
  s.Add(3.0);
  s.Add(4.0);
  EXPECT_DOUBLE_EQ(s.mean_sq(), (9.0 + 16.0) / 2.0);
}

TEST(RunningStatsTest, SingleValueHasZeroVariance) {
  RunningStats s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats s;
  s.Add(1.0);
  s.Reset();
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

}  // namespace
}  // namespace klink
