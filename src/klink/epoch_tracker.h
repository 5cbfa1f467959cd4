#ifndef KLINK_KLINK_EPOCH_TRACKER_H_
#define KLINK_KLINK_EPOCH_TRACKER_H_

#include <cstdint>
#include <deque>

#include "src/common/types.h"

namespace klink {

/// Bounded history of per-epoch statistics for one input stream of one
/// windowed operator: the last h epochs' mean delay mu_i (Eq. 3), mean
/// squared delay chi_i (Eq. 4), and observed SWM ingestion offset
/// o_i = (SWM ingestion time) - (swept deadline). Klink's evaluator sets
/// h = 400 by default (Sec. 6.2).
///
/// The estimator reads the means and the offset variance every scheduling
/// cycle, but they change only when an epoch closes, so PushEpoch computes
/// them once over the new history (the same sums in the same order as a
/// fresh walk, hence bit-identical) and the accessors return the results.
class EpochTracker {
 public:
  /// Requires history >= 2.
  explicit EpochTracker(int history);

  /// Appends one closed epoch. `has_delay_stats` is false for epochs that
  /// ingested no data events (mu/chi are then not recorded).
  void PushEpoch(double mu, double chi, double offset_micros,
                 bool has_delay_stats);

  int64_t epochs() const { return epochs_; }
  int64_t history_size() const { return static_cast<int64_t>(offsets_.size()); }

  /// Mean of the mu history (Alg. 1 line 2); 0 when empty.
  double MeanMu() const { return mean_mu_; }
  /// Mean of the chi history (Alg. 1 line 2); 0 when empty.
  double MeanChi() const { return mean_chi_; }
  /// Mean observed SWM offset beyond the deadline; 0 when empty.
  double MeanOffset() const { return mean_offset_; }
  /// Population variance of the observed offsets; 0 when fewer than 2.
  double VarOffset() const { return var_offset_; }

  /// Variance of w as literally printed in Eq. 6 over the current history:
  /// (1/h)[chi_bar + (1/h) * sum_{i != j} mu_i mu_j] - mu_bar^2, which
  /// reduces to (mean within-epoch delay variance) / h — the variance of
  /// the *estimated mean* delay. Exposed for tests and documentation; the
  /// estimator's interval uses VarOffset() instead (see DESIGN.md: a single
  /// SWM is one draw from the offset population, so the population variance
  /// is the calibrated choice).
  double Eq6Variance() const;

  bool HasDelayHistory() const { return !mus_.empty(); }
  bool HasOffsetHistory() const { return offsets_.size() >= 2; }

 private:
  int history_;
  int64_t epochs_ = 0;
  std::deque<double> mus_;
  std::deque<double> chis_;
  std::deque<double> offsets_;
  /// Statistics of the current history, computed by PushEpoch.
  double mean_mu_ = 0.0;
  double mean_chi_ = 0.0;
  double mean_offset_ = 0.0;
  double var_offset_ = 0.0;
};

}  // namespace klink

#endif  // KLINK_KLINK_EPOCH_TRACKER_H_
