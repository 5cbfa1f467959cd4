#include "src/operators/join_operator.h"

#include <algorithm>

#include "src/common/check.h"

namespace klink {

WindowJoinOperator::WindowJoinOperator(std::string name, double cost_micros,
                                       std::unique_ptr<WindowAssigner> assigner,
                                       int num_inputs,
                                       uint32_t output_payload_bytes)
    : Operator(std::move(name), cost_micros, num_inputs),
      assigner_(std::move(assigner)),
      output_payload_bytes_(output_payload_bytes),
      tracker_(num_inputs),
      next_stream_deadline_(static_cast<size_t>(num_inputs), kNoTime) {
  KLINK_CHECK(assigner_ != nullptr);
  KLINK_CHECK_GE(num_inputs, 2);
  set_selectivity_hint(0.05);
}

TimeMicros WindowJoinOperator::UpcomingDeadline() const {
  if (!panes_.empty()) return panes_.begin()->first.first;
  const TimeMicros wm = MinWatermark();
  return assigner_->NextDeadlineAfter(wm == kNoTime ? 0 : wm);
}

void WindowJoinOperator::OnData(const Event& e, TimeMicros /*now*/,
                                Emitter& /*out*/) {
  const TimeMicros forwarded = forwarded_min_watermark();
  if (forwarded != kNoTime && e.event_time < forwarded) {
    ++dropped_late_;
    return;
  }
  KLINK_CHECK(e.stream >= 0 && e.stream < num_inputs());
  tracker_.RecordEventDelay(e.stream, e.network_delay());
  scratch_windows_.clear();
  assigner_->AssignWindows(e.event_time, &scratch_windows_);
  for (const WindowSpan& w : scratch_windows_) {
    if (forwarded != kNoTime && w.end <= forwarded) continue;
    Pane& pane = panes_[{w.end, w.start}];
    if (pane.per_stream.empty()) {
      pane.per_stream.resize(static_cast<size_t>(num_inputs()));
      AddStateBytes(kBytesPerPane);
    }
    const auto [agg, inserted] =
        pane.per_stream[static_cast<size_t>(e.stream)].TryEmplace(e.key);
    if (inserted) AddStateBytes(kBytesPerKeyState);
    ++agg->count;
    agg->sum += e.value;
  }
}

void WindowJoinOperator::FirePane(const PaneKey& pane_key, Pane& pane,
                                  TimeMicros now, Emitter& out) {
  const TimeMicros end = pane_key.first;
  // Iterate the smallest stream map and probe the others: equi-join
  // emitting one result per key present in every stream.
  size_t smallest = 0;
  for (size_t s = 1; s < pane.per_stream.size(); ++s) {
    if (pane.per_stream[s].size() < pane.per_stream[smallest].size()) {
      smallest = s;
    }
  }
  // Probe in sorted-key order: a deterministic order that survives
  // checkpoint/restore, unlike the table's arrival order.
  scratch_keys_.clear();
  for (const auto& [key, agg] : pane.per_stream[smallest]) {
    scratch_keys_.push_back(key);
  }
  std::sort(scratch_keys_.begin(), scratch_keys_.end());
  for (const uint64_t key : scratch_keys_) {
    const Aggregate& agg = *pane.per_stream[smallest].Find(key);
    double sum = agg.sum;
    bool in_all = true;
    for (size_t s = 0; s < pane.per_stream.size(); ++s) {
      if (s == smallest) continue;
      const Aggregate* other = pane.per_stream[s].Find(key);
      if (other == nullptr) {
        in_all = false;
        break;
      }
      sum += other->sum;
    }
    if (!in_all) continue;
    Event result = MakeDataEvent(/*event_time=*/end, /*ingest_time=*/now, key,
                                 /*value=*/sum, output_payload_bytes_);
    // Join cardinality is carried in `value`; count joins for diagnostics.
    ++emitted_joins_;
    EmitData(result, out);
  }
  int64_t keys = 0;
  for (const auto& m : pane.per_stream) {
    keys += static_cast<int64_t>(m.size());
  }
  AddStateBytes(-(kBytesPerPane + keys * kBytesPerKeyState));
  ++fired_panes_;
}

void WindowJoinOperator::OnStreamWatermark(const Event& incoming, int stream) {
  // Track per-stream deadline sweeps: stream `s` has "done its part" for a
  // window once its own watermark elapses the deadline, even if the join
  // stays blocked on other streams (Sec. 3.3).
  auto& next = next_stream_deadline_[static_cast<size_t>(stream)];
  if (next == kNoTime) next = assigner_->NextDeadlineAfter(0);
  if (incoming.event_time < next) return;
  const TimeMicros last_elapsed =
      assigner_->NextDeadlineAfter(incoming.event_time) - assigner_->slide();
  tracker_.RecordStreamSweep(stream, std::max(next, last_elapsed),
                             incoming.ingest_time);
  next = assigner_->NextDeadlineAfter(incoming.event_time);
}

void WindowJoinOperator::OnWatermark(const Event& /*incoming*/,
                                     TimeMicros min_watermark, TimeMicros now,
                                     Emitter& out) {
  const TimeMicros prev = forwarded_min_watermark();
  const TimeMicros first_deadline =
      assigner_->NextDeadlineAfter(prev == kNoTime ? 0 : prev);
  const bool sweeps = min_watermark >= first_deadline;
  if (!sweeps) {
    SetForwardSwm(false);
    return;
  }
  while (!panes_.empty() && panes_.begin()->first.first <= min_watermark) {
    auto it = panes_.begin();
    FirePane(it->first, it->second, now, out);
    panes_.erase(it);
  }
  SetForwardSwm(true);
}

void WindowJoinOperator::SerializeState(StateWriter& w) const {
  w.PutU64(static_cast<uint64_t>(panes_.size()));
  for (const auto& [pane_key, pane] : panes_) {
    w.PutI64(pane_key.first);   // end
    w.PutI64(pane_key.second);  // start
    w.PutU32(static_cast<uint32_t>(pane.per_stream.size()));
    for (const auto& stream_map : pane.per_stream) {
      w.PutU64(static_cast<uint64_t>(stream_map.size()));
      std::vector<uint64_t> keys;
      keys.reserve(stream_map.size());
      for (const auto& [key, agg] : stream_map) keys.push_back(key);
      std::sort(keys.begin(), keys.end());
      for (const uint64_t key : keys) {
        const Aggregate& agg = *stream_map.Find(key);
        w.PutU64(key);
        w.PutI64(agg.count);
        w.PutDouble(agg.sum);
      }
    }
  }
  for (const TimeMicros d : next_stream_deadline_) w.PutI64(d);
  w.PutI64(fired_panes_);
  w.PutI64(emitted_joins_);
  w.PutI64(dropped_late_);
  tracker_.Serialize(w);
}

void WindowJoinOperator::RestoreState(StateReader& r) {
  KLINK_CHECK(panes_.empty());
  const uint64_t num_panes = r.GetU64();
  KLINK_CHECK(r.ok());
  for (uint64_t p = 0; p < num_panes; ++p) {
    const TimeMicros end = r.GetI64();
    const TimeMicros start = r.GetI64();
    const uint32_t num_streams = r.GetU32();
    KLINK_CHECK(r.ok());
    KLINK_CHECK_EQ(static_cast<int>(num_streams), num_inputs());
    Pane& pane = panes_[{end, start}];
    pane.per_stream.resize(static_cast<size_t>(num_streams));
    AddStateBytes(kBytesPerPane);
    for (auto& stream_map : pane.per_stream) {
      const uint64_t num_keys = r.GetU64();
      KLINK_CHECK(r.ok());
      stream_map.Reserve(static_cast<size_t>(num_keys));
      for (uint64_t k = 0; k < num_keys; ++k) {
        const uint64_t key = r.GetU64();
        Aggregate& agg = *stream_map.TryEmplace(key).first;
        agg.count = r.GetI64();
        agg.sum = r.GetDouble();
        AddStateBytes(kBytesPerKeyState);
      }
    }
  }
  for (TimeMicros& d : next_stream_deadline_) d = r.GetI64();
  fired_panes_ = r.GetI64();
  emitted_joins_ = r.GetI64();
  dropped_late_ = r.GetI64();
  tracker_.Restore(r);
  KLINK_CHECK(r.ok());
}

}  // namespace klink
