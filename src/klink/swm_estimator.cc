#include "src/klink/swm_estimator.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace klink {

void IngestionEstimator::Observe(const StreamProgress& progress) {
  if (progress.epoch <= last_epoch_) return;  // no new sweep this cycle
  // Score the interval frozen at the start of the epoch that just closed.
  if (has_frozen_ && progress.last_sweep_ingest != kNoTime) {
    ++predictions_;
    const double actual = static_cast<double>(progress.last_sweep_ingest);
    if (actual >= frozen_lo_ && actual <= frozen_hi_) ++hits_;
    abs_error_sum_ += std::abs(actual - frozen_mean_);
  }
  last_epoch_ = progress.epoch;
  OnEpochClosed(progress);
  // Freeze the interval for the epoch that just opened.
  const IngestionPrediction pred = Predict(progress);
  has_frozen_ = pred.valid;
  if (pred.valid) {
    frozen_lo_ = pred.lo;
    frozen_hi_ = pred.hi;
    frozen_mean_ = pred.mean;
  }
}

KlinkEstimator::KlinkEstimator(int history, double confidence)
    : tracker_(history),
      confidence_(confidence),
      z_(ZFromConfidence(confidence)) {
  KLINK_CHECK_GT(confidence, 0.0);
  KLINK_CHECK_LE(confidence, 1.0);
}

double KlinkEstimator::ZFromConfidence(double f) {
  // Two-sided normal quantiles; 0.95 maps to the paper's 2-sigma interval
  // (Alg. 1 line 4: "compute >= 95% interval").
  struct Entry {
    double f;
    double z;
  };
  static constexpr Entry kTable[] = {
      {0.50, 0.674}, {0.67, 0.974}, {0.80, 1.282}, {0.90, 1.645},
      {0.95, 2.000}, {0.99, 2.576}, {1.00, 3.890},
  };
  if (f <= kTable[0].f) return kTable[0].z;
  for (size_t i = 1; i < std::size(kTable); ++i) {
    if (f <= kTable[i].f) {
      const double t =
          (f - kTable[i - 1].f) / (kTable[i].f - kTable[i - 1].f);
      return kTable[i - 1].z + t * (kTable[i].z - kTable[i - 1].z);
    }
  }
  return kTable[std::size(kTable) - 1].z;
}

void KlinkEstimator::OnEpochClosed(const StreamProgress& progress) {
  if (progress.last_sweep_ingest == kNoTime ||
      progress.last_swept_deadline == kNoTime) {
    return;
  }
  // Skip the stream's very first epoch: its sweep offset reflects the
  // deploy phase (the first watermark can trail the first deadline by
  // several periods), not steady-state behaviour, and one such outlier
  // biases the mean and inflates the interval for a long time.
  if (!seen_first_epoch_) {
    seen_first_epoch_ = true;
    return;
  }
  const double offset = static_cast<double>(progress.last_sweep_ingest -
                                            progress.last_swept_deadline);
  tracker_.PushEpoch(progress.last_mu, progress.last_chi, offset,
                     progress.has_finalized_epoch);
}

IngestionPrediction KlinkEstimator::Predict(
    const StreamProgress& progress) const {
  IngestionPrediction pred;
  // Require a minimal history before claiming a calibrated interval: with
  // one or two offsets the sample variance badly underestimates the
  // population variance and the interval would be overconfident.
  if (tracker_.history_size() < kMinEpochHistory ||
      progress.upcoming_deadline == kNoTime) {
    return pred;  // invalid: caller falls back to deadline-based slack
  }
  // E[w_{n+1}] = deadline + E[offset]; the offset population carries both
  // the network-delay term d (Eqs. 3-5) and the SWM periodicity term p of
  // Eq. 2 (how long past the deadline the sweeping watermark is emitted).
  double mean_offset = tracker_.MeanOffset();
  // Live refinement: once the open epoch has collected enough delay
  // samples, shift the estimate by the observed delay drift relative to
  // the historical mean (Sec. 3.1: estimates sharpen as events ingest).
  if (progress.current_count >= kMinLiveSamples &&
      tracker_.HasDelayHistory()) {
    mean_offset += progress.current_mu - tracker_.MeanMu();
  }
  const double var = tracker_.VarOffset();
  // Small-sample inflation: the interval widens while the history is
  // short, mirroring the estimator's growing confidence as the stream
  // progresses (Sec. 3.1). Floored at one millisecond.
  const double n = static_cast<double>(tracker_.history_size());
  const double inflation = std::sqrt((n + 1.0) / (n - 1.0));
  const double stddev = std::max(std::sqrt(var) * inflation, 1000.0);
  pred.mean = static_cast<double>(progress.upcoming_deadline) + mean_offset;
  pred.stddev = stddev;
  pred.lo = pred.mean - z_ * stddev;
  pred.hi = pred.mean + z_ * stddev;
  pred.valid = true;
  return pred;
}

}  // namespace klink
