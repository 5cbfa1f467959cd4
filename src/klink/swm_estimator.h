#ifndef KLINK_KLINK_SWM_ESTIMATOR_H_
#define KLINK_KLINK_SWM_ESTIMATOR_H_

#include <cstdint>

#include "src/klink/epoch_tracker.h"
#include "src/runtime/snapshot.h"

namespace klink {

/// A prediction of the next SWM's ingestion time for one stream:
/// [lo, hi] is the confidence interval of Eq. 7, mean/stddev parameterize
/// the normal model of Sec. 3.1.
struct IngestionPrediction {
  double mean = 0.0;
  double stddev = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool valid = false;
};

/// Interface of SWM-ingestion-time estimators. Observe() is called once per
/// scheduling cycle with the live stream progress; the base class detects
/// epoch boundaries, scores the previously frozen interval against the
/// actual ingestion time (the accuracy metric of Fig. 9c), lets the
/// subclass update its model, and freezes a new interval for the epoch
/// that just opened ("estimate at the beginning of each new epoch",
/// Sec. 3.1).
class IngestionEstimator {
 public:
  virtual ~IngestionEstimator() = default;

  /// Feeds one runtime observation of the stream.
  void Observe(const StreamProgress& progress);

  /// Predicts the ingestion time of the stream's next SWM.
  virtual IngestionPrediction Predict(const StreamProgress& progress) const = 0;

  /// ---- estimation accuracy (fraction of SWMs ingested within the
  /// frozen interval, Sec. 6.2.5) -----------------------------------------
  int64_t predictions() const { return predictions_; }
  int64_t hits() const { return hits_; }
  double accuracy() const {
    return predictions_ == 0
               ? 0.0
               : static_cast<double>(hits_) / static_cast<double>(predictions_);
  }
  /// Sum over scored predictions of |actual ingestion - frozen mean|, in
  /// virtual micros; divide by predictions() for the mean absolute error.
  double abs_error_sum_micros() const { return abs_error_sum_; }

 protected:
  /// Subclass hook: one epoch closed; update the model from its statistics.
  virtual void OnEpochClosed(const StreamProgress& progress) = 0;

 private:
  int64_t last_epoch_ = 0;
  bool has_frozen_ = false;
  double frozen_lo_ = 0.0;
  double frozen_hi_ = 0.0;
  double frozen_mean_ = 0.0;
  int64_t predictions_ = 0;
  int64_t hits_ = 0;
  double abs_error_sum_ = 0.0;
};

/// Klink's estimator (Sec. 3.1): per-epoch delay statistics mu/chi
/// (Eqs. 3-4) plus the SWM periodicity term feed a normal model of the
/// next SWM's ingestion offset beyond its deadline; the confidence
/// interval is mean +/- z(f) * sigma (Eq. 7, Alg. 1 lines 1-8).
class KlinkEstimator final : public IngestionEstimator {
 public:
  /// `history` is h (paper default 400); `confidence` is f in (0, 1].
  KlinkEstimator(int history, double confidence);

  IngestionPrediction Predict(const StreamProgress& progress) const override;

  const EpochTracker& tracker() const { return tracker_; }
  double confidence() const { return confidence_; }

  /// z multiplier for a confidence level f (0.95 -> 2.0 per Alg. 1's
  /// ">= 95%" two-sigma interval; 1.0 is capped at 3.89).
  static double ZFromConfidence(double f);

 private:
  EpochTracker tracker_;
  double confidence_;
  double z_;
  /// Drift refinement: minimum open-epoch samples before the live mean
  /// delay adjusts the historical mean (Sec. 3.1: accuracy increases with
  /// stream progress while the query keeps monitoring the delay).
  static constexpr int64_t kMinLiveSamples = 30;
  /// Minimum offsets in history before predictions are considered valid.
  static constexpr int64_t kMinEpochHistory = 4;
  /// The first epoch's offset is a deploy-phase artifact and is skipped.
  bool seen_first_epoch_ = false;

  void OnEpochClosed(const StreamProgress& progress) override;
};

}  // namespace klink

#endif  // KLINK_KLINK_SWM_ESTIMATOR_H_
