#include "src/runtime/memory_tracker.h"

#include <algorithm>

namespace klink {

MemoryTracker::MemoryTracker(int64_t capacity_bytes, double resume_fraction)
    : capacity_(capacity_bytes), resume_fraction_(resume_fraction) {
  KLINK_CHECK_GT(capacity_bytes, 0);
  KLINK_CHECK_GT(resume_fraction, 0.0);
  KLINK_CHECK_LE(resume_fraction, 1.0);
}

void MemoryTracker::Update(int64_t used_bytes) {
  KLINK_CHECK_GE(used_bytes, 0);
  used_ = used_bytes;
  peak_ = std::max(peak_, used_);
  if (backpressured_) {
    if (static_cast<double>(used_) <=
        resume_fraction_ * static_cast<double>(capacity_)) {
      backpressured_ = false;
    }
  } else if (used_ >= capacity_) {
    backpressured_ = true;
  }
}

double MemoryTracker::CostMultiplier(double onset_fraction,
                                     double penalty) const {
  if (onset_fraction >= 1.0) return 1.0;
  const double stress = std::clamp(
      (utilization() - onset_fraction) / (1.0 - onset_fraction), 0.0, 1.0);
  return 1.0 + penalty * stress;
}

}  // namespace klink
