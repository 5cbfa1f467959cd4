#ifndef KLINK_OPERATORS_SESSION_WINDOW_OPERATOR_H_
#define KLINK_OPERATORS_SESSION_WINDOW_OPERATOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/operators/aggregate_operator.h"
#include "src/operators/operator.h"
#include "src/window/lateness.h"
#include "src/window/swm_tracker.h"

namespace klink {

/// Session windows: per-key windows that grow with activity and close
/// after `gap` of event-time inactivity. Unlike tumbling/sliding windows
/// (paper Sec. 2.1), a session's deadline is *data-dependent* — it is the
/// last event's timestamp + gap, and every new event pushes it out — which
/// makes SWM ingestion genuinely unpredictable and exercises Klink's
/// estimator beyond the periodic-deadline setting of the paper (an
/// extension experiment; see bench/extension_session_windows).
///
/// A watermark with timestamp >= (session end + gap)... more precisely
/// >= session close time fires the session: one result per (key, session)
/// with the configured aggregation, stamped with the session close time.
///
/// With an allowed-lateness horizon (SetAllowedLateness), fired sessions
/// are retained — with their close time frozen as the result's identity —
/// until `watermark >= close + lateness`. A late event that falls inside
/// the span of an open or retained session folds into it; folds into a
/// retained session immediately emit a retraction+update pair correcting
/// the speculative result (window/lateness.h). Late events matching no
/// session are dropped: the watermark freezes session *structure*, the
/// horizon only re-opens session *contents*.
class SessionWindowOperator final : public Operator {
 public:
  /// Requires gap > 0.
  SessionWindowOperator(std::string name, double cost_micros,
                        DurationMicros gap, AggregationKind kind,
                        uint32_t output_payload_bytes = 64);

  /// Enables content corrections with the given retention horizon (0
  /// keeps the strict drop policy). Must be set before processing starts.
  void SetAllowedLateness(DurationMicros lateness);
  DurationMicros allowed_lateness() const { return allowed_lateness_; }

  DurationMicros gap() const { return gap_; }
  int64_t fired_sessions() const { return fired_sessions_; }
  int64_t open_sessions() const { return static_cast<int64_t>(by_close_.size()); }
  int64_t retained_sessions() const {
    return static_cast<int64_t>(retained_.size());
  }
  int64_t dropped_late_events() const { return dropped_late_; }
  int64_t merged_sessions() const { return merged_sessions_; }
  const LateEventCounters& late_counters() const { return late_; }

  /// ---- Operator overrides --------------------------------------------
  TimeMicros UpcomingDeadline() const override;
  const SwmTracker* swm_tracker() const override { return &tracker_; }

  static constexpr int64_t kBytesPerSession = 96;
  /// A retained session additionally carries its frozen close time and the
  /// emitted value needed for retraction.
  static constexpr int64_t kBytesPerRetainedSession = 112;

 protected:
  void OnData(const Event& e, TimeMicros now, Emitter& out) override;
  void OnWatermark(const Event& incoming, TimeMicros min_watermark,
                   TimeMicros now, Emitter& out) override;
  void SerializeState(StateWriter& w) const override;
  void RestoreState(StateReader& r) override;

 private:
  struct Session {
    TimeMicros start = 0;
    TimeMicros last_event = 0;  // close time = last_event + gap
    int64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
  };

  /// A fired session inside the lateness horizon. `close` is frozen at
  /// firing time: late folds change the session's contents (and thus the
  /// corrected value) but never its result identity.
  struct RetainedSession {
    Session s;
    TimeMicros close = 0;
    double emitted = 0.0;
  };

  double OutputValue(const Session& s) const;
  /// Re-indexes key's session under its (possibly new) close time.
  void Reindex(uint64_t key, TimeMicros old_close, TimeMicros new_close);
  /// Folds a late event into the covering retained session, if any,
  /// emitting its retraction+update pair. Returns false when no retained
  /// session for the key spans the event.
  bool FoldLateIntoRetained(const Event& e, TimeMicros now, Emitter& out);
  /// Drops retained sessions whose retention horizon elapsed.
  void EvictRetained(TimeMicros min_watermark);

  DurationMicros gap_;
  AggregationKind kind_;
  uint32_t output_payload_bytes_;
  /// Open session per key, and an index ordered by close time for firing
  /// and deadline queries.
  std::unordered_map<uint64_t, Session> sessions_;
  std::multimap<TimeMicros, uint64_t> by_close_;
  /// Retained sessions keyed (key, close) for per-key late lookup, with a
  /// separate close-ordered index driving eviction.
  std::map<std::pair<uint64_t, TimeMicros>, RetainedSession> retained_;
  std::set<std::pair<TimeMicros, uint64_t>> retained_by_close_;
  DurationMicros allowed_lateness_ = 0;
  LateEventCounters late_;
  SwmTracker tracker_{1};
  int64_t fired_sessions_ = 0;
  int64_t dropped_late_ = 0;
  int64_t merged_sessions_ = 0;
};

}  // namespace klink

#endif  // KLINK_OPERATORS_SESSION_WINDOW_OPERATOR_H_
