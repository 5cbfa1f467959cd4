#ifndef KLINK_RUNTIME_MEMORY_TRACKER_H_
#define KLINK_RUNTIME_MEMORY_TRACKER_H_

#include <cstdint>

#include "src/common/check.h"

namespace klink {

/// Tracks simulated memory consumption of the SPE (queued events + operator
/// state) against a configured capacity, and drives the backpressure
/// hysteresis: ingestion stalls when usage reaches capacity and resumes once
/// usage falls to 80% of it (the throttling heuristic Sec. 3.4 contrasts
/// Klink's memory manager with).
class MemoryTracker {
 public:
  /// Requires capacity > 0.
  explicit MemoryTracker(int64_t capacity_bytes);

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

  /// Managed-runtime memory pressure, reproducing the JVM GC/allocator
  /// slowdown that throttles Flink near its memory ceiling (Fig. 8/9): the
  /// factor inflating per-event processing costs is 1 up to 70% of
  /// capacity, rises linearly to 1.35 at capacity, and stays there above.
  double CostMultiplier() const;

 private:
  int64_t capacity_;
  int64_t used_ = 0;
  int64_t peak_ = 0;
  bool backpressured_ = false;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_MEMORY_TRACKER_H_
