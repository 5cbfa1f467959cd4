#include "src/klink/swm_estimator.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/klink/linear_regression.h"

namespace klink {
namespace {

StreamProgress MakeProgress(int64_t epoch, TimeMicros swept_deadline,
                            TimeMicros sweep_ingest,
                            TimeMicros upcoming_deadline) {
  StreamProgress p;
  p.epoch = epoch;
  p.last_swept_deadline = swept_deadline;
  p.last_sweep_ingest = sweep_ingest;
  p.upcoming_deadline = upcoming_deadline;
  p.has_finalized_epoch = true;
  p.last_mu = 50.0;
  p.last_chi = 3000.0;
  return p;
}

TEST(ZFromConfidenceTest, TableValues) {
  EXPECT_DOUBLE_EQ(KlinkEstimator::ZFromConfidence(0.95), 2.0);
  EXPECT_DOUBLE_EQ(KlinkEstimator::ZFromConfidence(0.90), 1.645);
  EXPECT_DOUBLE_EQ(KlinkEstimator::ZFromConfidence(0.99), 2.576);
  EXPECT_DOUBLE_EQ(KlinkEstimator::ZFromConfidence(1.00), 3.890);
  EXPECT_NEAR(KlinkEstimator::ZFromConfidence(0.67), 0.974, 1e-9);
}

TEST(ZFromConfidenceTest, InterpolatesAndClamps) {
  const double z93 = KlinkEstimator::ZFromConfidence(0.93);
  EXPECT_GT(z93, KlinkEstimator::ZFromConfidence(0.90));
  EXPECT_LT(z93, KlinkEstimator::ZFromConfidence(0.95));
  EXPECT_DOUBLE_EQ(KlinkEstimator::ZFromConfidence(0.01),
                   KlinkEstimator::ZFromConfidence(0.50));
}

TEST(KlinkEstimatorTest, InvalidUntilWarmedUp) {
  KlinkEstimator est(400, 0.95);
  StreamProgress p = MakeProgress(0, kNoTime, kNoTime, 1000);
  EXPECT_FALSE(est.Predict(p).valid);
  // First epoch is skipped (deploy-phase artifact); then four offsets are
  // required before predictions become valid — epochs 2..5 supply them.
  for (int e = 1; e <= 4; ++e) {
    est.Observe(MakeProgress(e, e * 1000, e * 1000 + 300, (e + 1) * 1000));
  }
  EXPECT_FALSE(est.Predict(MakeProgress(4, 4000, 4300, 5000)).valid);
  est.Observe(MakeProgress(5, 5000, 5300, 6000));
  EXPECT_TRUE(est.Predict(MakeProgress(5, 5000, 5300, 6000)).valid);
}

TEST(KlinkEstimatorTest, PredictsDeadlinePlusMeanOffset) {
  KlinkEstimator est(400, 0.95);
  for (int e = 1; e <= 10; ++e) {
    est.Observe(MakeProgress(e, e * 1000, e * 1000 + 300, (e + 1) * 1000));
  }
  const IngestionPrediction pred =
      est.Predict(MakeProgress(10, 10000, 10300, 11000));
  ASSERT_TRUE(pred.valid);
  EXPECT_NEAR(pred.mean, 11000 + 300, 1.0);
  EXPECT_LT(pred.lo, pred.mean);
  EXPECT_GT(pred.hi, pred.mean);
}

TEST(KlinkEstimatorTest, AccuracyCountsHitsAgainstFrozenIntervals) {
  KlinkEstimator est(400, 0.95);
  Rng rng(3);
  TimeMicros deadline = 1000;
  for (int e = 1; e <= 60; ++e) {
    const TimeMicros ingest = deadline + 250 + rng.NextInt(0, 100);
    est.Observe(MakeProgress(e, deadline, ingest, deadline + 1000));
    deadline += 1000;
  }
  // Stationary offsets: nearly every sweep lands in the 95% interval.
  EXPECT_GT(est.predictions(), 40);
  EXPECT_GE(est.accuracy(), 0.9);
}

TEST(KlinkEstimatorTest, SuddenShiftDegradesThenRecovers) {
  KlinkEstimator est(50, 0.95);
  TimeMicros deadline = 1000;
  int e = 1;
  for (; e <= 30; ++e) {
    est.Observe(MakeProgress(e, deadline, deadline + 300, deadline + 1000));
    deadline += 1000;
  }
  const int64_t hits_before = est.hits();
  // The offset jumps far outside the learned interval.
  est.Observe(MakeProgress(e++, deadline, deadline + 5000, deadline + 1000));
  EXPECT_EQ(est.hits(), hits_before);  // that sweep missed
  deadline += 1000;
  // After the shift persists, the history absorbs it.
  for (; e <= 90; ++e) {
    est.Observe(MakeProgress(e, deadline, deadline + 5000, deadline + 1000));
    deadline += 1000;
  }
  EXPECT_GT(est.hits(), hits_before);
}

TEST(KlinkEstimatorTest, WiderConfidenceWiderInterval) {
  KlinkEstimator est95(400, 0.95), est67(400, 0.67);
  for (int e = 1; e <= 10; ++e) {
    const StreamProgress p =
        MakeProgress(e, e * 1000, e * 1000 + 200 + (e % 3) * 50,
                     (e + 1) * 1000);
    est95.Observe(p);
    est67.Observe(p);
  }
  const StreamProgress p = MakeProgress(10, 10000, 10250, 11000);
  const auto i95 = est95.Predict(p);
  const auto i67 = est67.Predict(p);
  ASSERT_TRUE(i95.valid && i67.valid);
  EXPECT_GT(i95.hi - i95.lo, i67.hi - i67.lo);
}

TEST(LinearRegressionEstimatorTest, ConvergesToConstantOffset) {
  LinearRegressionEstimator lr;
  for (int e = 1; e <= 50; ++e) {
    lr.Observe(MakeProgress(e, e * 1000, e * 1000 + 400, (e + 1) * 1000));
  }
  const IngestionPrediction pred =
      lr.Predict(MakeProgress(50, 50000, 50400, 51000));
  ASSERT_TRUE(pred.valid);
  EXPECT_NEAR(pred.mean, 51000 + 400, 100.0);
}

TEST(LinearRegressionEstimatorTest, InvalidBeforeFourSamples) {
  LinearRegressionEstimator lr;
  for (int e = 1; e <= 3; ++e) {
    lr.Observe(MakeProgress(e, e * 1000, e * 1000 + 400, (e + 1) * 1000));
  }
  EXPECT_FALSE(lr.Predict(MakeProgress(3, 3000, 3400, 4000)).valid);
}

TEST(LinearRegressionEstimatorTest, AccuracyStartsEmpty) {
  LinearRegressionEstimator lr;
  EXPECT_EQ(lr.predictions(), 0);
  EXPECT_DOUBLE_EQ(lr.accuracy(), 0.0);
}

}  // namespace
}  // namespace klink
