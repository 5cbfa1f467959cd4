#include "src/operators/aggregate_operator.h"

#include <algorithm>

#include "src/common/check.h"

namespace klink {

WindowAggregateOperator::WindowAggregateOperator(
    std::string name, double cost_micros,
    std::unique_ptr<WindowAssigner> assigner, AggregationKind kind,
    uint32_t output_payload_bytes)
    : Operator(std::move(name), cost_micros, /*num_inputs=*/1),
      assigner_(std::move(assigner)),
      kind_(kind),
      output_payload_bytes_(output_payload_bytes) {
  KLINK_CHECK(assigner_ != nullptr);
  // One result row per key per window; windows absorb many events, so the
  // configured hint reflects a low output/input ratio typical of
  // aggregations. Refined at runtime by measurements.
  set_selectivity_hint(0.05);
}

TimeMicros WindowAggregateOperator::UpcomingDeadline() const {
  if (!panes_.empty()) return panes_.begin()->first.first;
  const TimeMicros wm = MinWatermark();
  return assigner_->NextDeadlineAfter(wm == kNoTime ? 0 : wm);
}

void WindowAggregateOperator::SetAllowedLateness(DurationMicros lateness) {
  KLINK_CHECK_GE(lateness, 0);
  KLINK_CHECK(retained_.empty());  // configure before processing starts
  allowed_lateness_ = lateness;
}

double WindowAggregateOperator::OutputValue(const Aggregate& agg) const {
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

void WindowAggregateOperator::FoldLateIntoRetained(const WindowSpan& w,
                                                   const Event& e) {
  // The pane fired (or its deadline passed with no data) but is inside the
  // retention horizon: fold and mark the (pane, key) for a correction pair
  // at the next watermark.
  auto [pane_it, pane_inserted] = retained_.try_emplace({w.end, w.start});
  if (pane_inserted) AddStateBytes(kBytesPerPane);
  const auto [slot, inserted] = pane_it->second.TryEmplace(e.key);
  if (inserted) AddStateBytes(kBytesPerRetainedState);
  RetainedEntry& entry = *slot;
  ++entry.agg.count;
  entry.agg.sum += e.value;
  entry.agg.max =
      entry.agg.count == 1 ? e.value : std::max(entry.agg.max, e.value);
  if (dirty_.insert({{w.end, w.start}, e.key}).second) {
    // A refire emits an update, plus a retraction when a result is out.
    pending_correction_elements_ += entry.has_emitted ? 2 : 1;
  }
}

void WindowAggregateOperator::FoldData(const Event& e) {
  // OOP late-event policy: drop events at or below the forwarded watermark
  // (Sec. 2.1/2.2) — unless an allowed-lateness horizon retains their
  // panes past the speculative firing.
  const TimeMicros forwarded = forwarded_min_watermark();
  const bool late = forwarded != kNoTime && e.event_time < forwarded;
  if (late && allowed_lateness_ == 0) {
    ++dropped_late_;
    return;
  }
  if (!late) tracker_.RecordEventDelay(0, e.network_delay());
  scratch_windows_.clear();
  assigner_->AssignWindows(e.event_time, &scratch_windows_);
  bool accepted_late = false;
  for (const WindowSpan& w : scratch_windows_) {
    if (forwarded != kNoTime && w.end <= forwarded) {
      // This pane's deadline already elapsed (a late event, or a sliding
      // window the event is late for). Without lateness: skip, as ever.
      if (allowed_lateness_ == 0) continue;
      if (!WithinLatenessHorizon(w.end, forwarded, allowed_lateness_)) {
        continue;  // beyond the horizon: this pane's result is final
      }
      FoldLateIntoRetained(w, e);
      accepted_late = true;
      continue;
    }
    auto [pane_it, pane_inserted] = panes_.try_emplace({w.end, w.start});
    if (pane_inserted) AddStateBytes(kBytesPerPane);
    const auto [slot, inserted] = pane_it->second.TryEmplace(e.key);
    if (inserted) AddStateBytes(kBytesPerKeyState);
    Aggregate& agg = *slot;
    ++agg.count;
    agg.sum += e.value;
    agg.max = agg.count == 1 ? e.value : std::max(agg.max, e.value);
    if (late) accepted_late = true;  // below-watermark pane still open
  }
  if (late) {
    if (accepted_late) {
      ++late_.late_accepted;
      tracker_.RecordLateEventDelay(0, e.network_delay());
    } else {
      ++late_.late_dropped_beyond_horizon;
    }
  }
}

void WindowAggregateOperator::OnData(const Event& e, TimeMicros /*now*/,
                                     Emitter& /*out*/) {
  FoldData(e);
}

void WindowAggregateOperator::OnDataRun(const Event* events, int64_t n,
                                        BatchClock& clock, Emitter& /*out*/) {
  clock.Advance(n);
  for (int64_t i = 0; i < n; ++i) FoldData(events[i]);
}

void WindowAggregateOperator::FlushRefires(TimeMicros now, Emitter& out) {
  // Dirty marks iterate in (end, start, key) order — the canonical order —
  // and every mark's pane end precedes any deadline this watermark can
  // newly elapse, so corrections flush before fresh firings.
  for (const auto& [pane_key, key] : dirty_) {
    const auto pane_it = retained_.find(pane_key);
    KLINK_CHECK(pane_it != retained_.end());
    RetainedEntry* const found = pane_it->second.Find(key);
    KLINK_CHECK(found != nullptr);
    RetainedEntry& entry = *found;
    if (entry.has_emitted) {
      EmitData(MakeRetractionEvent(/*event_time=*/pane_key.first,
                                   /*ingest_time=*/now, key, entry.emitted,
                                   output_payload_bytes_),
               out);
      ++late_.retractions_emitted;
    }
    const double corrected = OutputValue(entry.agg);
    EmitData(MakeUpdateEvent(/*event_time=*/pane_key.first,
                             /*ingest_time=*/now, key, corrected,
                             output_payload_bytes_),
             out);
    ++late_.updates_emitted;
    entry.emitted = corrected;
    entry.has_emitted = true;
  }
  dirty_.clear();
  pending_correction_elements_ = 0;
}

void WindowAggregateOperator::EvictRetained(TimeMicros min_watermark) {
  while (!retained_.empty() &&
         !WithinLatenessHorizon(retained_.begin()->first.first, min_watermark,
                                allowed_lateness_)) {
    const auto it = retained_.begin();
    const int64_t keys = static_cast<int64_t>(it->second.size());
    AddStateBytes(-(kBytesPerPane + keys * kBytesPerRetainedState));
    retained_.erase(it);
  }
}

void WindowAggregateOperator::OnWatermark(const Event& incoming,
                                          TimeMicros min_watermark,
                                          TimeMicros now, Emitter& out) {
  // Corrections for already-fired panes flush before anything else (their
  // deadlines precede every pane fired below), then expired retained panes
  // are released.
  if (allowed_lateness_ > 0) {
    FlushRefires(now, out);
    EvictRetained(min_watermark);
  }

  // Determine whether this watermark elapses any window deadline: it is
  // then the SWM of the epoch even if no pane holds data (stream progress
  // is independent of data presence, Sec. 2.2).
  const TimeMicros prev = forwarded_min_watermark();
  const TimeMicros first_deadline =
      assigner_->NextDeadlineAfter(prev == kNoTime ? 0 : prev);
  const bool sweeps = min_watermark >= first_deadline;
  if (!sweeps) {
    SetForwardSwm(false);
    return;
  }

  // Fire every pane whose deadline elapsed, in deadline order; emit the
  // pane results *before* the base forwards the watermark (invariant ii).
  TimeMicros last_deadline = first_deadline;
  while (!panes_.empty() && panes_.begin()->first.first <= min_watermark) {
    const auto it = panes_.begin();
    const TimeMicros end = it->first.first;
    // Emit in sorted-key order: a deterministic order that survives
    // checkpoint/restore, unlike the pane's arrival order.
    scratch_keys_.clear();
    for (const auto& [key, agg] : it->second) scratch_keys_.push_back(key);
    std::sort(scratch_keys_.begin(), scratch_keys_.end());
    for (const uint64_t key : scratch_keys_) {
      const Aggregate& agg = *it->second.Find(key);
      Event result = MakeDataEvent(/*event_time=*/end, /*ingest_time=*/now,
                                   key, OutputValue(agg),
                                   output_payload_bytes_);
      EmitData(result, out);
    }
    const int64_t keys = static_cast<int64_t>(it->second.size());
    if (allowed_lateness_ > 0 &&
        WithinLatenessHorizon(end, min_watermark, allowed_lateness_)) {
      // Speculative firing: the emitted results above may be retracted, so
      // the pane's keyed state moves to the retained store together with
      // each key's emitted value.
      const auto [rit, rinserted] = retained_.try_emplace(it->first);
      KLINK_CHECK(rinserted);  // a pane fires exactly once
      AddStateBytes(kBytesPerPane);
      for (const auto& [key, agg] : it->second) {
        *rit->second.TryEmplace(key).first =
            RetainedEntry{agg, OutputValue(agg), true};
        AddStateBytes(kBytesPerRetainedState);
      }
    }
    AddStateBytes(-(kBytesPerPane + keys * kBytesPerKeyState));
    last_deadline = std::max(last_deadline, end);
    panes_.erase(it);
    ++fired_panes_;
  }
  // The largest elapsed deadline, whether or not a pane existed for it.
  const TimeMicros last_elapsed =
      assigner_->NextDeadlineAfter(min_watermark) - assigner_->slide();
  last_deadline = std::max(last_deadline, last_elapsed);

  tracker_.RecordStreamSweep(0, last_deadline, incoming.ingest_time);
  SetForwardSwm(true);
}

void WindowAggregateOperator::ExportKeyedState(
    std::vector<KeyedStateEntry>* out) {
  // One entry per key, holding the full late-data context (aggregate,
  // emitted value, pending-refire mark), so the key's new owner refires
  // exactly what this shard would have. Keys go out in sorted order so
  // redistribution is deterministic.
  std::map<uint64_t, KeyedStateEntry> entries;
  int64_t keys = 0;
  for (const auto& [pane_key, pane] : panes_) {
    for (const auto& [key, agg] : pane) {
      entries[key].open.emplace_back(pane_key, agg);
      ++keys;
    }
  }
  int64_t retained_keys = 0;
  for (const auto& [pane_key, pane] : retained_) {
    for (const auto& [key, entry] : pane) {
      entries[key].retained.push_back(KeyedStateEntry::Retained{
          pane_key, entry, dirty_.count({pane_key, key}) != 0});
      ++retained_keys;
    }
  }
  AddStateBytes(-(static_cast<int64_t>(panes_.size()) * kBytesPerPane +
                  keys * kBytesPerKeyState));
  AddStateBytes(-(static_cast<int64_t>(retained_.size()) * kBytesPerPane +
                  retained_keys * kBytesPerRetainedState));
  panes_.clear();
  retained_.clear();
  dirty_.clear();
  pending_correction_elements_ = 0;
  for (auto& [key, entry] : entries) {
    entry.key = key;
    out->push_back(std::move(entry));
  }
}

void WindowAggregateOperator::ImportKeyedState(const KeyedStateEntry& entry) {
  for (const auto& [pane_key, agg] : entry.open) {
    auto [pane_it, pane_inserted] = panes_.try_emplace(pane_key);
    if (pane_inserted) AddStateBytes(kBytesPerPane);
    const auto [slot, inserted] = pane_it->second.TryEmplace(entry.key);
    KLINK_CHECK(inserted);  // each (pane, key) comes from exactly one shard
    *slot = agg;
    AddStateBytes(kBytesPerKeyState);
  }
  for (const KeyedStateEntry::Retained& r : entry.retained) {
    auto [pane_it, pane_inserted] = retained_.try_emplace(r.pane);
    if (pane_inserted) AddStateBytes(kBytesPerPane);
    const auto [slot, inserted] = pane_it->second.TryEmplace(entry.key);
    KLINK_CHECK(inserted);
    *slot = r.entry;
    AddStateBytes(kBytesPerRetainedState);
    if (r.refire) {
      KLINK_CHECK(dirty_.insert({r.pane, entry.key}).second);
      pending_correction_elements_ += r.entry.has_emitted ? 2 : 1;
    }
  }
}

void WindowAggregateOperator::SerializeState(StateWriter& w) const {
  w.PutU64(static_cast<uint64_t>(panes_.size()));
  for (const auto& [pane_key, pane] : panes_) {
    w.PutI64(pane_key.first);   // end
    w.PutI64(pane_key.second);  // start
    w.PutU64(static_cast<uint64_t>(pane.size()));
    std::vector<uint64_t> keys;
    keys.reserve(pane.size());
    for (const auto& [key, agg] : pane) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const uint64_t key : keys) {
      const Aggregate& agg = *pane.Find(key);
      w.PutU64(key);
      w.PutI64(agg.count);
      w.PutDouble(agg.sum);
      w.PutDouble(agg.max);
    }
  }
  w.PutI64(fired_panes_);
  w.PutI64(dropped_late_);
  // Lateness subsystem state: retained panes (sorted pane order, sorted
  // keys within), dirty refire marks, and the late-event counters.
  w.PutU64(static_cast<uint64_t>(retained_.size()));
  for (const auto& [pane_key, pane] : retained_) {
    w.PutI64(pane_key.first);   // end
    w.PutI64(pane_key.second);  // start
    w.PutU64(static_cast<uint64_t>(pane.size()));
    std::vector<uint64_t> keys;
    keys.reserve(pane.size());
    for (const auto& [key, entry] : pane) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const uint64_t key : keys) {
      const RetainedEntry& entry = *pane.Find(key);
      w.PutU64(key);
      w.PutI64(entry.agg.count);
      w.PutDouble(entry.agg.sum);
      w.PutDouble(entry.agg.max);
      w.PutBool(entry.has_emitted);
      w.PutDouble(entry.emitted);
    }
  }
  w.PutU64(static_cast<uint64_t>(dirty_.size()));
  for (const auto& [pane_key, key] : dirty_) {
    w.PutI64(pane_key.first);
    w.PutI64(pane_key.second);
    w.PutU64(key);
  }
  late_.Serialize(w);
  tracker_.Serialize(w);
}

void WindowAggregateOperator::RestoreState(StateReader& r) {
  KLINK_CHECK(panes_.empty());
  const uint64_t num_panes = r.GetU64();
  KLINK_CHECK(r.ok());
  for (uint64_t p = 0; p < num_panes; ++p) {
    const TimeMicros end = r.GetI64();
    const TimeMicros start = r.GetI64();
    const uint64_t num_keys = r.GetU64();
    KLINK_CHECK(r.ok());
    Pane& pane = panes_[{end, start}];
    AddStateBytes(kBytesPerPane);
    pane.Reserve(static_cast<size_t>(num_keys));
    for (uint64_t k = 0; k < num_keys; ++k) {
      const uint64_t key = r.GetU64();
      Aggregate& agg = *pane.TryEmplace(key).first;
      agg.count = r.GetI64();
      agg.sum = r.GetDouble();
      agg.max = r.GetDouble();
      AddStateBytes(kBytesPerKeyState);
    }
  }
  fired_panes_ = r.GetI64();
  dropped_late_ = r.GetI64();
  KLINK_CHECK(retained_.empty());
  const uint64_t num_retained = r.GetU64();
  KLINK_CHECK(r.ok());
  for (uint64_t p = 0; p < num_retained; ++p) {
    const TimeMicros end = r.GetI64();
    const TimeMicros start = r.GetI64();
    const uint64_t num_keys = r.GetU64();
    KLINK_CHECK(r.ok());
    RetainedPane& pane = retained_[{end, start}];
    AddStateBytes(kBytesPerPane);
    pane.Reserve(static_cast<size_t>(num_keys));
    for (uint64_t k = 0; k < num_keys; ++k) {
      const uint64_t key = r.GetU64();
      RetainedEntry& entry = *pane.TryEmplace(key).first;
      entry.agg.count = r.GetI64();
      entry.agg.sum = r.GetDouble();
      entry.agg.max = r.GetDouble();
      entry.has_emitted = r.GetBool();
      entry.emitted = r.GetDouble();
      AddStateBytes(kBytesPerRetainedState);
    }
  }
  const uint64_t num_dirty = r.GetU64();
  KLINK_CHECK(r.ok());
  for (uint64_t d = 0; d < num_dirty; ++d) {
    const TimeMicros end = r.GetI64();
    const TimeMicros start = r.GetI64();
    const uint64_t key = r.GetU64();
    KLINK_CHECK(r.ok());
    KLINK_CHECK(dirty_.insert({{end, start}, key}).second);
    const auto pane_it = retained_.find({end, start});
    KLINK_CHECK(pane_it != retained_.end());
    const RetainedEntry* const entry = pane_it->second.Find(key);
    KLINK_CHECK(entry != nullptr);
    pending_correction_elements_ += entry->has_emitted ? 2 : 1;
  }
  late_.Restore(r);
  tracker_.Restore(r);
  KLINK_CHECK(r.ok());
}

}  // namespace klink
