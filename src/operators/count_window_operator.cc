#include "src/operators/count_window_operator.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace klink {

CountWindowOperator::CountWindowOperator(std::string name, double cost_micros,
                                         int64_t size, AggregationKind kind,
                                         uint32_t output_payload_bytes)
    : Operator(std::move(name), cost_micros, /*num_inputs=*/1),
      size_(size),
      kind_(kind),
      output_payload_bytes_(output_payload_bytes) {
  KLINK_CHECK_GE(size, 1);
  set_selectivity_hint(1.0 / static_cast<double>(size));
}

double CountWindowOperator::OutputValue(const Aggregate& agg) const {
  switch (kind_) {
    case AggregationKind::kCount:
      return static_cast<double>(agg.count);
    case AggregationKind::kSum:
      return agg.sum;
    case AggregationKind::kAverage:
      return agg.count == 0 ? 0.0 : agg.sum / static_cast<double>(agg.count);
    case AggregationKind::kMax:
      return agg.max;
  }
  return 0.0;
}

void CountWindowOperator::OnData(const Event& e, TimeMicros /*now*/,
                                 Emitter& out) {
  auto [it, inserted] = state_.try_emplace(e.key);
  if (inserted) AddStateBytes(kBytesPerKeyState);
  Aggregate& agg = it->second;
  ++agg.count;
  agg.sum += e.value;
  agg.max = agg.count == 1 ? e.value : std::max(agg.max, e.value);
  if (agg.count < size_) return;
  // The deadline event e_m arrived: emit and reset this key's window.
  Event result = MakeDataEvent(e.event_time, e.ingest_time, e.key,
                               OutputValue(agg), output_payload_bytes_);
  state_.erase(it);
  AddStateBytes(-kBytesPerKeyState);
  ++fired_windows_;
  EmitData(result, out);
}

void CountWindowOperator::SerializeState(StateWriter& w) const {
  w.PutU64(static_cast<uint64_t>(state_.size()));
  std::vector<uint64_t> keys;
  keys.reserve(state_.size());
  for (const auto& [key, agg] : state_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const uint64_t key : keys) {
    const Aggregate& agg = state_.find(key)->second;
    w.PutU64(key);
    w.PutI64(agg.count);
    w.PutDouble(agg.sum);
    w.PutDouble(agg.max);
  }
  w.PutI64(fired_windows_);
}

void CountWindowOperator::RestoreState(StateReader& r) {
  KLINK_CHECK(state_.empty());
  const uint64_t n = r.GetU64();
  KLINK_CHECK(r.ok());
  state_.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t key = r.GetU64();
    Aggregate agg;
    agg.count = r.GetI64();
    agg.sum = r.GetDouble();
    agg.max = r.GetDouble();
    state_.emplace(key, agg);
    AddStateBytes(kBytesPerKeyState);
  }
  fired_windows_ = r.GetI64();
  KLINK_CHECK(r.ok());
}

}  // namespace klink
