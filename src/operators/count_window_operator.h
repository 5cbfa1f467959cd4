#ifndef KLINK_OPERATORS_COUNT_WINDOW_OPERATOR_H_
#define KLINK_OPERATORS_COUNT_WINDOW_OPERATOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/operators/aggregate_operator.h"
#include "src/operators/operator.h"

namespace klink {

/// Count-based windowed aggregation (paper Sec. 2.1): a window
/// w_i = <e_k, ..., e_m> with m = k + s - 1 collects exactly `size` events
/// per key; its deadline is the arrival of the size-th event, so it fires
/// immediately on that event rather than on a watermark. Count windows
/// therefore never block on stream progress — watermarks pass straight
/// through (they still sweep nothing here).
class CountWindowOperator final : public Operator {
 public:
  /// Requires size >= 1.
  CountWindowOperator(std::string name, double cost_micros, int64_t size,
                      AggregationKind kind,
                      uint32_t output_payload_bytes = 64);

  /// Allowed lateness is a no-op for count windows: their deadlines are
  /// arrival-count-based, not event-time-based, so no event is ever "late"
  /// relative to a window deadline and nothing is speculatively fired.
  /// Accepted (and validated) so per-query lateness config applies
  /// uniformly to every windowed operator in a pipeline.
  void SetAllowedLateness(DurationMicros lateness) {
    KLINK_CHECK_GE(lateness, 0);
    allowed_lateness_ = lateness;
  }
  DurationMicros allowed_lateness() const { return allowed_lateness_; }

  int64_t window_size() const { return size_; }
  int64_t fired_windows() const { return fired_windows_; }
  /// Count windows hold per-key running state and shrink the stream.
  bool SupportsPartialComputation() const override { return true; }

  static constexpr int64_t kBytesPerKeyState = 48;

 protected:
  void OnData(const Event& e, TimeMicros now, Emitter& out) override;
  void SerializeState(StateWriter& w) const override;
  void RestoreState(StateReader& r) override;

 private:
  struct Aggregate {
    int64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
  };

  double OutputValue(const Aggregate& agg) const;

  int64_t size_;
  DurationMicros allowed_lateness_ = 0;
  AggregationKind kind_;
  uint32_t output_payload_bytes_;
  std::unordered_map<uint64_t, Aggregate> state_;
  int64_t fired_windows_ = 0;
};

}  // namespace klink

#endif  // KLINK_OPERATORS_COUNT_WINDOW_OPERATOR_H_
