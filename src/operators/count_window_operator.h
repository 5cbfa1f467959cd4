#ifndef KLINK_OPERATORS_COUNT_WINDOW_OPERATOR_H_
#define KLINK_OPERATORS_COUNT_WINDOW_OPERATOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/operators/aggregate_operator.h"
#include "src/operators/operator.h"

namespace klink {

/// Count-based windowed aggregation (paper Sec. 2.1): a window
/// w_i = <e_k, ..., e_m> with m = k + s - 1 collects exactly `size` events
/// per key; its deadline is the arrival of the size-th event, so it fires
/// immediately on that event rather than on a watermark. Count windows
/// therefore never block on stream progress — watermarks pass straight
/// through (they still sweep nothing here) — and no event is ever late, so
/// an allowed-lateness horizon does not apply to them.
class CountWindowOperator final : public Operator {
 public:
  /// Requires size >= 1.
  CountWindowOperator(std::string name, double cost_micros, int64_t size,
                      AggregationKind kind,
                      uint32_t output_payload_bytes = 64);

  int64_t window_size() const { return size_; }
  int64_t fired_windows() const { return fired_windows_; }

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
  AggregationKind kind_;
  uint32_t output_payload_bytes_;
  std::unordered_map<uint64_t, Aggregate> state_;
  int64_t fired_windows_ = 0;
};

}  // namespace klink

#endif  // KLINK_OPERATORS_COUNT_WINDOW_OPERATOR_H_
