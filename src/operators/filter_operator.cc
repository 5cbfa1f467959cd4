#include "src/operators/filter_operator.h"

#include <cstdint>
#include <utility>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace klink {

FilterOperator::FilterOperator(std::string name, double cost_micros,
                               PredicateFn keep, double expected_pass_rate)
    : Operator(std::move(name), cost_micros, /*num_inputs=*/1),
      keep_(std::move(keep)) {
  KLINK_CHECK(keep_ != nullptr);
  KLINK_CHECK_GE(expected_pass_rate, 0.0);
  KLINK_CHECK_LE(expected_pass_rate, 1.0);
  set_selectivity_hint(expected_pass_rate);
}

FilterOperator::PredicateFn FilterOperator::HashPassRate(double pass_rate) {
  KLINK_CHECK_GE(pass_rate, 0.0);
  KLINK_CHECK_LE(pass_rate, 1.0);
  // Compare on 53 bits: converting pass_rate * 2^64 to uint64_t would
  // overflow (UB) at pass_rate = 1.0.
  const uint64_t threshold =
      static_cast<uint64_t>(pass_rate * static_cast<double>(1ULL << 53));
  return [threshold](const Event& e) {
    const uint64_t h =
        Mix64(e.key ^ Mix64(static_cast<uint64_t>(e.event_time)));
    return (h >> 11) < threshold;
  };
}

void FilterOperator::OnData(const Event& e, TimeMicros /*now*/, Emitter& out) {
  if (keep_(e)) EmitData(e, out);
}

void FilterOperator::OnDataRun(const Event* events, int64_t n,
                               BatchClock& clock, Emitter& out) {
  clock.Advance(n);
  batch_scratch_.clear();
  for (int64_t i = 0; i < n; ++i) {
    if (keep_(events[i])) batch_scratch_.push_back(events[i]);
  }
  if (!batch_scratch_.empty()) {
    EmitDataRun(batch_scratch_.data(),
                static_cast<int64_t>(batch_scratch_.size()), out);
  }
}

}  // namespace klink
