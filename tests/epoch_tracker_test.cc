#include "src/klink/epoch_tracker.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>

#include "src/common/rng.h"

namespace klink {
namespace {

/// Reference: the statistics as fresh walks over a copy of the history,
/// which the tracker's cached values must equal bit for bit.
struct WalkedHistory {
  int history;
  std::deque<double> mus, chis, offsets;

  void Push(double mu, double chi, double offset, bool has_delay_stats) {
    if (has_delay_stats) {
      mus.push_back(mu);
      chis.push_back(chi);
      if (static_cast<int>(mus.size()) > history) {
        mus.pop_front();
        chis.pop_front();
      }
    }
    offsets.push_back(offset);
    if (static_cast<int>(offsets.size()) > history) offsets.pop_front();
  }
  static double MeanOf(const std::deque<double>& xs) {
    if (xs.empty()) return 0.0;
    double sum = 0.0;
    for (double x : xs) sum += x;
    return sum / static_cast<double>(xs.size());
  }
  double VarOffset() const {
    if (offsets.size() < 2) return 0.0;
    const double mean = MeanOf(offsets);
    double acc = 0.0;
    for (double o : offsets) acc += (o - mean) * (o - mean);
    return acc / static_cast<double>(offsets.size());
  }
  double Eq6Variance() const {
    const size_t h = mus.size();
    if (h < 2) return 0.0;
    double sum_mu = 0.0, sum_mu_sq = 0.0;
    for (double m : mus) {
      sum_mu += m;
      sum_mu_sq += m * m;
    }
    const double hd = static_cast<double>(h);
    const double mu_bar = sum_mu / hd;
    const double cross = sum_mu * sum_mu - sum_mu_sq;
    return (MeanOf(chis) + cross / hd) / hd - mu_bar * mu_bar;
  }
};

TEST(EpochTrackerTest, CachedStatisticsEqualAFreshWalkBitForBit) {
  // Random epochs well past the history bound, once with delay statistics
  // on every epoch and once with a random half of them missing.
  for (const bool always_delay : {true, false}) {
    SCOPED_TRACE(always_delay ? "every epoch has delay stats"
                              : "some epochs lack delay stats");
    constexpr int kHistory = 23;
    Rng rng(always_delay ? 11 : 12);
    EpochTracker tracker(kHistory);
    WalkedHistory walk{kHistory, {}, {}, {}};
    for (int i = 0; i < 6 * kHistory; ++i) {
      const double mu = rng.NextDouble() * 4e4;
      const double chi = mu * mu + rng.NextDouble() * 1e8;
      const double offset = (rng.NextDouble() - 0.3) * 3e5;
      const bool has_delay_stats = always_delay || rng.NextInt(0, 1) == 1;
      tracker.PushEpoch(mu, chi, offset, has_delay_stats);
      walk.Push(mu, chi, offset, has_delay_stats);
      EXPECT_EQ(tracker.MeanMu(), WalkedHistory::MeanOf(walk.mus)) << i;
      EXPECT_EQ(tracker.MeanChi(), WalkedHistory::MeanOf(walk.chis)) << i;
      EXPECT_EQ(tracker.MeanOffset(), WalkedHistory::MeanOf(walk.offsets))
          << i;
      EXPECT_EQ(tracker.VarOffset(), walk.VarOffset()) << i;
      EXPECT_EQ(tracker.Eq6Variance(), walk.Eq6Variance()) << i;
    }
    EXPECT_EQ(tracker.history_size(), kHistory);
  }
}

TEST(EpochTrackerTest, StartsEmpty) {
  EpochTracker t(10);
  EXPECT_EQ(t.epochs(), 0);
  EXPECT_EQ(t.history_size(), 0);
  EXPECT_FALSE(t.HasDelayHistory());
  EXPECT_FALSE(t.HasOffsetHistory());
  EXPECT_DOUBLE_EQ(t.MeanOffset(), 0.0);
}

TEST(EpochTrackerTest, MeansOverHistory) {
  EpochTracker t(10);
  t.PushEpoch(100.0, 12000.0, 500.0, true);
  t.PushEpoch(200.0, 48000.0, 700.0, true);
  EXPECT_EQ(t.epochs(), 2);
  EXPECT_DOUBLE_EQ(t.MeanMu(), 150.0);
  EXPECT_DOUBLE_EQ(t.MeanChi(), 30000.0);
  EXPECT_DOUBLE_EQ(t.MeanOffset(), 600.0);
  EXPECT_DOUBLE_EQ(t.VarOffset(), 10000.0);  // population var of {500,700}
}

TEST(EpochTrackerTest, HistoryBounded) {
  EpochTracker t(3);
  for (int i = 0; i < 10; ++i) {
    t.PushEpoch(static_cast<double>(i), 0.0, static_cast<double>(i), true);
  }
  EXPECT_EQ(t.epochs(), 10);
  EXPECT_EQ(t.history_size(), 3);
  EXPECT_DOUBLE_EQ(t.MeanOffset(), 8.0);  // last three: 7, 8, 9
  EXPECT_DOUBLE_EQ(t.MeanMu(), 8.0);
}

TEST(EpochTrackerTest, EpochsWithoutDelayStatsSkipMuChi) {
  EpochTracker t(10);
  t.PushEpoch(0.0, 0.0, 500.0, /*has_delay_stats=*/false);
  EXPECT_EQ(t.epochs(), 1);
  EXPECT_FALSE(t.HasDelayHistory());
  EXPECT_EQ(t.history_size(), 1);  // offset still recorded
  t.PushEpoch(100.0, 10000.0, 600.0, true);
  EXPECT_TRUE(t.HasDelayHistory());
  EXPECT_DOUBLE_EQ(t.MeanMu(), 100.0);
}

TEST(EpochTrackerTest, Eq6VarianceIsMeanWithinVarianceOverH) {
  // Identical epochs with within-epoch variance sigma^2: Eq. 6 reduces to
  // sigma^2 / h (variance of the estimated mean; see header docs).
  EpochTracker t(100);
  const double mu = 50.0;
  const double sigma_sq = 400.0;
  const double chi = sigma_sq + mu * mu;
  const int h = 8;
  for (int i = 0; i < h; ++i) t.PushEpoch(mu, chi, 0.0, true);
  EXPECT_NEAR(t.Eq6Variance(), sigma_sq / h, 1e-9);
}

TEST(EpochTrackerTest, Eq6VarianceNeedsTwoEpochs) {
  EpochTracker t(10);
  EXPECT_DOUBLE_EQ(t.Eq6Variance(), 0.0);
  t.PushEpoch(10.0, 200.0, 0.0, true);
  EXPECT_DOUBLE_EQ(t.Eq6Variance(), 0.0);
}

TEST(EpochTrackerTest, OffsetHistoryRequiresTwo) {
  EpochTracker t(10);
  t.PushEpoch(1.0, 1.0, 5.0, true);
  EXPECT_FALSE(t.HasOffsetHistory());
  t.PushEpoch(1.0, 1.0, 6.0, true);
  EXPECT_TRUE(t.HasOffsetHistory());
}

}  // namespace
}  // namespace klink
