#include "src/runtime/memory_tracker.h"

#include <algorithm>

namespace klink {
namespace {

/// Backpressure lifts once usage falls to this fraction of capacity.
constexpr double kResumeFraction = 0.8;
/// Costs start to inflate at this utilization...
constexpr double kPressureOnset = 0.7;
/// ...and reach 1 + this factor at capacity.
constexpr double kPressurePenalty = 0.35;

}  // namespace

MemoryTracker::MemoryTracker(int64_t capacity_bytes)
    : capacity_(capacity_bytes) {
  KLINK_CHECK_GT(capacity_bytes, 0);
}

void MemoryTracker::Update(int64_t used_bytes) {
  KLINK_CHECK_GE(used_bytes, 0);
  used_ = used_bytes;
  peak_ = std::max(peak_, used_);
  if (backpressured_) {
    if (static_cast<double>(used_) <=
        kResumeFraction * static_cast<double>(capacity_)) {
      backpressured_ = false;
    }
  } else if (used_ >= capacity_) {
    backpressured_ = true;
  }
}

double MemoryTracker::CostMultiplier() const {
  const double stress = std::clamp(
      (utilization() - kPressureOnset) / (1.0 - kPressureOnset), 0.0, 1.0);
  return 1.0 + kPressurePenalty * stress;
}

}  // namespace klink
