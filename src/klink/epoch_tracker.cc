#include "src/klink/epoch_tracker.h"

#include "src/common/check.h"

namespace klink {
namespace {

double MeanOf(const std::deque<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

}  // namespace

EpochTracker::EpochTracker(int history) : history_(history) {
  KLINK_CHECK_GE(history, 2);
}

void EpochTracker::PushEpoch(double mu, double chi, double offset_micros,
                             bool has_delay_stats) {
  ++epochs_;
  if (has_delay_stats) {
    mus_.push_back(mu);
    chis_.push_back(chi);
    if (static_cast<int>(mus_.size()) > history_) {
      mus_.pop_front();
      chis_.pop_front();
    }
    mean_mu_ = MeanOf(mus_);
    mean_chi_ = MeanOf(chis_);
  }
  offsets_.push_back(offset_micros);
  if (static_cast<int>(offsets_.size()) > history_) offsets_.pop_front();
  mean_offset_ = MeanOf(offsets_);
  var_offset_ = 0.0;
  if (offsets_.size() >= 2) {
    double acc = 0.0;
    for (double o : offsets_) acc += (o - mean_offset_) * (o - mean_offset_);
    var_offset_ = acc / static_cast<double>(offsets_.size());
  }
}

double EpochTracker::Eq6Variance() const {
  const size_t h = mus_.size();
  if (h < 2) return 0.0;
  double sum_mu = 0.0, sum_mu_sq = 0.0;
  for (double m : mus_) {
    sum_mu += m;
    sum_mu_sq += m * m;
  }
  const double hd = static_cast<double>(h);
  const double mu_bar = sum_mu / hd;
  const double chi_bar = MeanChi();
  const double cross = sum_mu * sum_mu - sum_mu_sq;  // sum_{i != j} mu_i mu_j
  return (chi_bar + cross / hd) / hd - mu_bar * mu_bar;
}

}  // namespace klink
