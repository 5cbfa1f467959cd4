#ifndef KLINK_RUNTIME_MEMORY_TRACKER_H_
#define KLINK_RUNTIME_MEMORY_TRACKER_H_

#include <cstdint>

#include "src/common/check.h"

namespace klink {

/// Tracks simulated memory consumption of the SPE (queued events + operator
/// state) against a configured capacity, and drives the backpressure
/// hysteresis: ingestion stalls when usage reaches capacity and resumes once
/// usage falls below `resume_fraction * capacity` (the throttling heuristic
/// Sec. 3.4 contrasts Klink's memory manager with).
class MemoryTracker {
 public:
  /// Requires capacity > 0 and resume_fraction in (0, 1].
  MemoryTracker(int64_t capacity_bytes, double resume_fraction = 0.8);

  /// Records current usage (recomputed each scheduling cycle).
  void Update(int64_t used_bytes);

  int64_t used_bytes() const { return used_; }
  int64_t capacity_bytes() const { return capacity_; }
  int64_t peak_bytes() const { return peak_; }

  /// used / capacity, in [0, inf).
  double utilization() const {
    return static_cast<double>(used_) / static_cast<double>(capacity_);
  }

  /// True while backpressure stalls ingestion.
  bool backpressured() const { return backpressured_; }

  /// Managed-runtime memory pressure: the factor inflating per-event
  /// processing costs, rising linearly from 1 at `onset_fraction` of
  /// capacity to 1 + `penalty` at capacity (EngineConfig documents both).
  double CostMultiplier(double onset_fraction, double penalty) const;

 private:
  int64_t capacity_;
  double resume_fraction_;
  int64_t used_ = 0;
  int64_t peak_ = 0;
  bool backpressured_ = false;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_MEMORY_TRACKER_H_
