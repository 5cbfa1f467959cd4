#include "src/klink/slack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/gaussian.h"
#include "src/common/rng.h"

namespace klink {
namespace {

IngestionPrediction Pred(double mean, double stddev, double z = 2.0) {
  IngestionPrediction p;
  p.mean = mean;
  p.stddev = stddev;
  p.lo = mean - z * stddev;
  p.hi = mean + z * stddev;
  p.valid = true;
  return p;
}

TEST(SlackTest, FarDeadlineApproximatesExpectedGapMinusCost) {
  // w ~ N(10s, 0.2s), now = 1s, cost = 0.5s.
  const SlackResult r = ComputeExpectedSlack(1e6, 0.5e6, Pred(10e6, 0.2e6),
                                             /*step_r=*/120000.0);
  // Alg. 1 integrates only over the f-confidence interval, so the slack
  // is the deterministic value scaled by the ~95.4% two-sigma coverage
  // (plus step quantization).
  const double deterministic = (10e6 - 1e6) - 0.5e6;
  EXPECT_NEAR(r.slack, deterministic * 0.9545, 200000.0);
  EXPECT_GT(r.steps, 0);
}

TEST(SlackTest, OverdueIsNegativeAndMonotoneInLateness) {
  const IngestionPrediction p = Pred(1e6, 0.05e6);
  const SlackResult late1 = ComputeExpectedSlack(2e6, 0.0, p, 120000.0);
  const SlackResult late2 = ComputeExpectedSlack(3e6, 0.0, p, 120000.0);
  EXPECT_LT(late1.slack, 0.0);
  EXPECT_LT(late2.slack, late1.slack);  // more overdue -> more negative
  EXPECT_EQ(late1.steps, 0);            // no integration needed
}

TEST(SlackTest, HigherDrainCostLowersSlack) {
  const IngestionPrediction p = Pred(5e6, 0.3e6);
  const SlackResult cheap = ComputeExpectedSlack(1e6, 0.1e6, p, 120000.0);
  const SlackResult heavy = ComputeExpectedSlack(1e6, 1.0e6, p, 120000.0);
  EXPECT_GT(cheap.slack, heavy.slack);
  // The cost difference is weighted by the interval coverage (~95.4%).
  EXPECT_NEAR(cheap.slack - heavy.slack, 0.9e6 * 0.9545, 0.02e6);
}

TEST(SlackTest, EarlierDeadlineLowersSlack) {
  const SlackResult soon =
      ComputeExpectedSlack(0.0, 0.0, Pred(2e6, 0.2e6), 120000.0);
  const SlackResult later =
      ComputeExpectedSlack(0.0, 0.0, Pred(8e6, 0.2e6), 120000.0);
  EXPECT_LT(soon.slack, later.slack);
}

TEST(SlackTest, ConditionalTruncationWhenNowInsideInterval) {
  // now sits in the middle of the interval: only the remaining right tail
  // contributes (Eq. 9 conditions on w > now).
  const IngestionPrediction p = Pred(1e6, 0.5e6);
  const SlackResult r = ComputeExpectedSlack(1e6, 0.0, p, 120000.0);
  // Expected remaining gap for a truncated normal at its mean is
  // sigma * sqrt(2/pi) ~ 0.4 sigma; allow generous tolerance for the
  // step quantization.
  EXPECT_GT(r.slack, 0.0);
  EXPECT_LT(r.slack, 1e6);
}

TEST(SlackTest, StepCountBounded) {
  // A pathologically wide interval must not walk millions of windows.
  const SlackResult r =
      ComputeExpectedSlack(0.0, 0.0, Pred(1e9, 1e8), /*step_r=*/100.0);
  EXPECT_LE(r.steps, kMaxSlackSteps + 1);
}

/// Reference: Alg. 1's window sum with each window's probability from
/// GaussianIntervalProb, i.e. two CDF evaluations per window.
SlackResult SlackWithTwoCdfsPerWindow(double now, double drain_cost,
                                      const IngestionPrediction& pred,
                                      double step_r) {
  SlackResult result;
  if (pred.hi <= now) {
    result.slack = (pred.mean - now) - drain_cost;
    return result;
  }
  double step = step_r;
  const double span = pred.hi - std::max(now, pred.lo);
  if (span / step > static_cast<double>(kMaxSlackSteps)) {
    step = span / static_cast<double>(kMaxSlackSteps);
  }
  const double denom =
      std::max(GaussianTailProb(now, pred.mean, pred.stddev), 1e-12);
  for (double x = std::max(now, pred.lo); x <= pred.hi; x += step) {
    const double pr =
        GaussianIntervalProb(x, x + step, pred.mean, pred.stddev) / denom;
    result.slack += pr * ((x + step - now) - drain_cost);
    ++result.steps;
  }
  return result;
}

TEST(SlackTest, CarriedCdfIsBitIdenticalToTwoCdfsPerWindow) {
  Rng rng(99);
  int overdue = 0, capped = 0, point_mass = 0;
  for (int i = 0; i < 3000; ++i) {
    const double now = rng.NextDouble() * 60e6;
    const double mean = now + (rng.NextDouble() - 0.4) * 5e6;
    // Every tenth prediction is a point mass (stddev 0 or negative); the
    // rest span 1 ms to 20 s, so wide ones hit the step cap.
    double stddev = 1e3 * std::exp(rng.NextDouble() * std::log(2e4));
    if (i % 10 == 0) stddev = i % 20 == 0 ? 0.0 : -1.0;
    const double z = 1.0 + rng.NextDouble() * 2.0;
    IngestionPrediction p = Pred(mean, std::max(stddev, 0.0), z);
    p.stddev = stddev;
    const double cost = rng.NextDouble() * 1e6;
    const double step_r = i % 3 == 0 ? 1000.0 : 120000.0;
    const SlackResult got = ComputeExpectedSlack(now, cost, p, step_r);
    const SlackResult want = SlackWithTwoCdfsPerWindow(now, cost, p, step_r);
    EXPECT_EQ(got.slack, want.slack) << i;
    EXPECT_EQ(got.steps, want.steps) << i;
    overdue += p.hi <= now ? 1 : 0;
    capped += want.steps >= kMaxSlackSteps ? 1 : 0;
    point_mass += stddev <= 0.0 ? 1 : 0;
  }
  // The draw covers every path.
  EXPECT_GT(overdue, 0);
  EXPECT_GT(capped, 0);
  EXPECT_GT(point_mass, 0);
}

TEST(SlackTest, FallbackSlackIsEq1) {
  EXPECT_DOUBLE_EQ(FallbackSlack(/*now=*/1000.0, /*cost=*/300.0,
                                 /*deadline=*/5000.0),
                   3700.0);
  EXPECT_LT(FallbackSlack(10000.0, 300.0, 5000.0), 0.0);
}

TEST(SlackTest, ProbabilitiesWeightTheWindows) {
  // With a tight distribution the slack must sit near the deterministic
  // value; with a wide one it spreads but stays centred.
  const double now = 0.0;
  const SlackResult tight =
      ComputeExpectedSlack(now, 0.0, Pred(3e6, 1e3), 120000.0);
  const SlackResult wide =
      ComputeExpectedSlack(now, 0.0, Pred(3e6, 0.8e6), 120000.0);
  EXPECT_NEAR(tight.slack, 3e6, 1.5e5);
  EXPECT_NEAR(wide.slack, 3e6, 4e5);
}

}  // namespace
}  // namespace klink
