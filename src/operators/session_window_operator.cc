#include "src/operators/session_window_operator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/check.h"

namespace klink {

SessionWindowOperator::SessionWindowOperator(std::string name,
                                             double cost_micros,
                                             DurationMicros gap,
                                             AggregationKind kind,
                                             uint32_t output_payload_bytes)
    : Operator(std::move(name), cost_micros, /*num_inputs=*/1),
      gap_(gap),
      kind_(kind),
      output_payload_bytes_(output_payload_bytes) {
  KLINK_CHECK_GT(gap, 0);
  set_selectivity_hint(0.05);
}

void SessionWindowOperator::SetAllowedLateness(DurationMicros lateness) {
  KLINK_CHECK_GE(lateness, 0);
  KLINK_CHECK(retained_.empty());
  allowed_lateness_ = lateness;
}

TimeMicros SessionWindowOperator::UpcomingDeadline() const {
  if (!by_close_.empty()) return by_close_.begin()->first;
  // No open session: the earliest conceivable close is one gap past the
  // stream's current watermark position.
  const TimeMicros wm = MinWatermark();
  return (wm == kNoTime ? 0 : wm) + gap_;
}

double SessionWindowOperator::OutputValue(const Session& s) const {
  switch (kind_) {
    case AggregationKind::kCount:
      return static_cast<double>(s.count);
    case AggregationKind::kSum:
      return s.sum;
    case AggregationKind::kAverage:
      return s.count == 0 ? 0.0 : s.sum / static_cast<double>(s.count);
    case AggregationKind::kMax:
      return s.max;
  }
  return 0.0;
}

void SessionWindowOperator::Reindex(uint64_t key, TimeMicros old_close,
                                    TimeMicros new_close) {
  auto [lo, hi] = by_close_.equal_range(old_close);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == key) {
      by_close_.erase(it);
      break;
    }
  }
  by_close_.emplace(new_close, key);
}

bool SessionWindowOperator::FoldLateIntoRetained(const Event& e,
                                                 TimeMicros now,
                                                 Emitter& out) {
  auto it = retained_.lower_bound(
      {e.key, std::numeric_limits<TimeMicros>::min()});
  for (; it != retained_.end() && it->first.first == e.key; ++it) {
    const RetainedSession& rs = it->second;
    if (e.event_time >= rs.s.start - gap_ && e.event_time <= rs.close) break;
  }
  if (it == retained_.end() || it->first.first != e.key) return false;
  RetainedSession& rs = it->second;
  Session& s = rs.s;
  s.start = std::min(s.start, e.event_time);
  s.last_event = std::max(s.last_event, e.event_time);
  ++s.count;
  s.sum += e.value;
  s.max = std::max(s.max, e.value);
  const double corrected = OutputValue(s);
  // Correction pair at the frozen close time, the result's identity: the
  // sink's converging log removes the stale value and adds the corrected
  // one, so the fold converges to the in-order result (window/lateness.h).
  EmitData(MakeRetractionEvent(rs.close, now, e.key, rs.emitted,
                               output_payload_bytes_),
           out);
  ++late_.retractions_emitted;
  EmitData(MakeUpdateEvent(rs.close, now, e.key, corrected,
                           output_payload_bytes_),
           out);
  ++late_.updates_emitted;
  rs.emitted = corrected;
  return true;
}

void SessionWindowOperator::EvictRetained(TimeMicros min_watermark) {
  while (!retained_by_close_.empty()) {
    const auto [close, key] = *retained_by_close_.begin();
    if (WithinLatenessHorizon(close, min_watermark, allowed_lateness_)) break;
    retained_by_close_.erase(retained_by_close_.begin());
    const size_t erased = retained_.erase({key, close});
    KLINK_CHECK(erased == 1);
    AddStateBytes(-kBytesPerRetainedSession);
  }
}

void SessionWindowOperator::OnData(const Event& e, TimeMicros now,
                                   Emitter& out) {
  const TimeMicros forwarded = forwarded_min_watermark();
  const bool late = forwarded != kNoTime && e.event_time < forwarded;
  if (late) {
    if (allowed_lateness_ == 0) {
      ++dropped_late_;
      return;
    }
    // Late-accepted delays feed a separate channel so the epoch mu/chi the
    // SWM estimator consumes describe the on-time population only.
    tracker_.RecordLateEventDelay(0, e.network_delay());
  } else {
    tracker_.RecordEventDelay(0, e.network_delay());
  }
  const auto it = sessions_.find(e.key);
  if (it == sessions_.end()) {
    if (late) {
      // No open session: the event can only correct a fired one. The
      // watermark froze session structure — an orphan late event never
      // creates a new (already elapsed) session.
      if (FoldLateIntoRetained(e, now, out)) {
        ++late_.late_accepted;
      } else {
        ++late_.late_dropped_beyond_horizon;
      }
      return;
    }
    AddStateBytes(kBytesPerSession);
    Session& s = sessions_.try_emplace(e.key).first->second;
    s.start = e.event_time;
    s.last_event = e.event_time;
    s.count = 1;
    s.sum = e.value;
    s.max = e.value;
    by_close_.emplace(e.event_time + gap_, e.key);
    return;
  }
  Session& s = it->second;
  if (late && e.event_time < s.start - gap_) {
    // Predates the open session by more than a gap: in order it would have
    // been a separate, already-fired session.
    if (FoldLateIntoRetained(e, now, out)) {
      ++late_.late_accepted;
    } else {
      ++late_.late_dropped_beyond_horizon;
    }
    return;
  }
  // Extending an existing session; events within the gap merge into it
  // (our events arrive with event_time >= forwarded watermark, so a
  // session that is still open always absorbs them).
  const TimeMicros old_close = s.last_event + gap_;
  if (e.event_time > s.last_event) {
    s.last_event = e.event_time;
  } else {
    ++merged_sessions_;  // out-of-order extension inside the session
  }
  ++s.count;
  s.sum += e.value;
  s.max = std::max(s.max, e.value);
  const TimeMicros new_close = s.last_event + gap_;
  if (new_close != old_close) Reindex(e.key, old_close, new_close);
  s.start = std::min(s.start, e.event_time);
  if (late) ++late_.late_accepted;  // folded before firing: no correction
}

void SessionWindowOperator::OnWatermark(const Event& incoming,
                                        TimeMicros min_watermark,
                                        TimeMicros now, Emitter& out) {
  bool fired = false;
  TimeMicros last_close = kNoTime;
  while (!by_close_.empty() && by_close_.begin()->first <= min_watermark) {
    const auto it = by_close_.begin();
    const TimeMicros close = it->first;
    const uint64_t key = it->second;
    by_close_.erase(it);
    const auto sit = sessions_.find(key);
    KLINK_CHECK(sit != sessions_.end());
    const double value = OutputValue(sit->second);
    Event result = MakeDataEvent(/*event_time=*/close, /*ingest_time=*/now,
                                 key, value, output_payload_bytes_);
    if (allowed_lateness_ > 0 &&
        WithinLatenessHorizon(close, min_watermark, allowed_lateness_)) {
      const auto [rit, inserted] = retained_.try_emplace(
          std::make_pair(key, close),
          RetainedSession{sit->second, close, value});
      (void)rit;
      KLINK_CHECK(inserted);
      retained_by_close_.insert({close, key});
      AddStateBytes(kBytesPerRetainedSession);
    }
    sessions_.erase(sit);
    AddStateBytes(-kBytesPerSession);
    ++fired_sessions_;
    fired = true;
    last_close = close;
    EmitData(result, out);
  }
  if (allowed_lateness_ > 0) EvictRetained(min_watermark);
  if (fired) {
    tracker_.RecordStreamSweep(0, last_close, incoming.ingest_time);
  }
  SetForwardSwm(fired);
}

void SessionWindowOperator::SerializeState(StateWriter& w) const {
  // Serialize in by_close_ iteration order and restore by re-inserting in
  // that order: the multimap's tie order (equal close times) determines
  // firing order, so it must survive the round trip exactly.
  w.PutU64(static_cast<uint64_t>(by_close_.size()));
  for (const auto& [close, key] : by_close_) {
    const auto sit = sessions_.find(key);
    KLINK_CHECK(sit != sessions_.end());
    const Session& s = sit->second;
    w.PutI64(close);
    w.PutU64(key);
    w.PutI64(s.start);
    w.PutI64(s.last_event);
    w.PutI64(s.count);
    w.PutDouble(s.sum);
    w.PutDouble(s.max);
  }
  w.PutU64(static_cast<uint64_t>(retained_.size()));
  for (const auto& [kc, rs] : retained_) {
    w.PutU64(kc.first);
    w.PutI64(rs.close);
    w.PutI64(rs.s.start);
    w.PutI64(rs.s.last_event);
    w.PutI64(rs.s.count);
    w.PutDouble(rs.s.sum);
    w.PutDouble(rs.s.max);
    w.PutDouble(rs.emitted);
  }
  late_.Serialize(w);
  w.PutI64(fired_sessions_);
  w.PutI64(dropped_late_);
  w.PutI64(merged_sessions_);
  tracker_.Serialize(w);
}

void SessionWindowOperator::RestoreState(StateReader& r) {
  KLINK_CHECK(sessions_.empty());
  KLINK_CHECK(retained_.empty());
  const uint64_t n = r.GetU64();
  KLINK_CHECK(r.ok());
  for (uint64_t i = 0; i < n; ++i) {
    const TimeMicros close = r.GetI64();
    const uint64_t key = r.GetU64();
    Session s;
    s.start = r.GetI64();
    s.last_event = r.GetI64();
    s.count = r.GetI64();
    s.sum = r.GetDouble();
    s.max = r.GetDouble();
    KLINK_CHECK(r.ok());
    sessions_.emplace(key, s);
    by_close_.emplace(close, key);
    AddStateBytes(kBytesPerSession);
  }
  const uint64_t rn = r.GetU64();
  KLINK_CHECK(r.ok());
  for (uint64_t i = 0; i < rn; ++i) {
    const uint64_t key = r.GetU64();
    RetainedSession rs;
    rs.close = r.GetI64();
    rs.s.start = r.GetI64();
    rs.s.last_event = r.GetI64();
    rs.s.count = r.GetI64();
    rs.s.sum = r.GetDouble();
    rs.s.max = r.GetDouble();
    rs.emitted = r.GetDouble();
    KLINK_CHECK(r.ok());
    const auto [it, inserted] =
        retained_.emplace(std::make_pair(key, rs.close), rs);
    (void)it;
    KLINK_CHECK(inserted);
    retained_by_close_.insert({rs.close, key});
    AddStateBytes(kBytesPerRetainedSession);
  }
  late_.Restore(r);
  fired_sessions_ = r.GetI64();
  dropped_late_ = r.GetI64();
  merged_sessions_ = r.GetI64();
  tracker_.Restore(r);
  KLINK_CHECK(r.ok());
}

}  // namespace klink
