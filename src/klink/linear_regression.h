#ifndef KLINK_KLINK_LINEAR_REGRESSION_H_
#define KLINK_KLINK_LINEAR_REGRESSION_H_

#include "src/klink/swm_estimator.h"

namespace klink {

/// The paper's LR baseline (Sec. 6.2.5): a simple linear regression trained
/// by online gradient descent, predicting the next SWM's ingestion offset
/// beyond its deadline from the epoch index. Its interval is a
/// rule-of-thumb 1.5-RMSE band around the prediction (LR carries no
/// distributional model of the offset). SGD's noisy tracking and the
/// uncalibrated band make it markedly less accurate than Klink's
/// estimator, especially under heavy-tailed Zipf delays (Fig. 9c).
class LinearRegressionEstimator final : public IngestionEstimator {
 public:
  /// `learning_rate` scales the SGD step on the normalized features.
  explicit LinearRegressionEstimator(double learning_rate = 0.4);

  IngestionPrediction Predict(const StreamProgress& progress) const override;

 private:
  void OnEpochClosed(const StreamProgress& progress) override;

  double learning_rate_;
  double w_ = 0.0;  // slope on normalized epoch index
  double b_ = 0.0;  // intercept (offset estimate, micros)
  double residual_sq_ewma_ = 0.0;
  bool residual_seeded_ = false;
  int64_t samples_ = 0;
};

}  // namespace klink

#endif  // KLINK_KLINK_LINEAR_REGRESSION_H_
