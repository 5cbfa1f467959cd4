#ifndef KLINK_OPERATORS_AGGREGATE_OPERATOR_H_
#define KLINK_OPERATORS_AGGREGATE_OPERATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flat_table.h"
#include "src/operators/operator.h"
#include "src/window/lateness.h"
#include "src/window/swm_tracker.h"
#include "src/window/window_assigner.h"

namespace klink {

/// Aggregation applied per key within each window pane.
enum class AggregationKind : uint8_t { kCount, kSum, kAverage, kMax };

/// Blocking windowed aggregation keyed by event key.
///
/// Data events are folded online into per-(window, key) aggregate state —
/// a partial computation in the sense of Sec. 3.4, so queue volume shrinks
/// as events are absorbed into panes. A watermark whose timestamp elapses
/// one or more pane deadlines is a sweeping watermark (SWM): the operator
/// emits one result event per key of each elapsed pane, in deadline order,
/// and then the base class forwards the watermark flagged as SWM
/// (invariant ii of Sec. 2.2). Late data events (event_time below the last
/// forwarded watermark) are dropped, the OOP policy of Sec. 2.1 — unless
/// an allowed-lateness horizon is configured (SetAllowedLateness): then a
/// fired pane's keyed state is retained until `watermark >= deadline +
/// lateness`, late arrivals inside the horizon fold into it, and the next
/// watermark flushes one retraction+update pair per touched (pane, key)
/// before any new firing (window/lateness.h).
class WindowAggregateOperator final : public Operator {
 public:
  WindowAggregateOperator(std::string name, double cost_micros,
                          std::unique_ptr<WindowAssigner> assigner,
                          AggregationKind kind,
                          uint32_t output_payload_bytes = 64);

  /// Enables speculative firing with the given retention horizon (0 keeps
  /// the strict drop policy). Must be set before processing starts.
  void SetAllowedLateness(DurationMicros lateness);
  DurationMicros allowed_lateness() const { return allowed_lateness_; }

  /// ---- Operator overrides -------------------------------------------
  TimeMicros UpcomingDeadline() const override;
  const SwmTracker* swm_tracker() const override { return &tracker_; }

  /// ---- introspection -------------------------------------------------
  const WindowAssigner& assigner() const { return *assigner_; }
  int64_t fired_panes() const { return fired_panes_; }
  int64_t swm_count() const { return tracker_.stream(0).epoch; }
  int64_t dropped_late_events() const { return dropped_late_; }
  int64_t open_panes() const { return static_cast<int64_t>(panes_.size()); }
  int64_t retained_panes() const {
    return static_cast<int64_t>(retained_.size());
  }
  const LateEventCounters& late_counters() const { return late_; }
  int64_t PendingRefires() const override {
    return pending_correction_elements_;
  }

  /// Simulated state bytes per (window, key) aggregate entry.
  static constexpr int64_t kBytesPerKeyState = 48;
  /// Simulated fixed state bytes per open pane.
  static constexpr int64_t kBytesPerPane = 64;
  /// Simulated state bytes per retained (speculatively fired) key entry:
  /// the aggregate plus the emitted value needed for its retraction.
  static constexpr int64_t kBytesPerRetainedState = 64;

  /// ---- live re-sharding ----------------------------------------------
  /// A shard region's lanes are all WindowAggregateOperators, and the
  /// re-shard controller moves their keyed state between them, between
  /// cycles: ExportKeyedState drains every key into one entry in sorted
  /// key order (reporting the byte shrink through AddStateBytes), and
  /// ImportKeyedState upserts one entry (reporting growth). Per-operator
  /// counters (processed/fired/dropped) stay put: they are per-shard
  /// diagnostics.
  struct KeyedStateEntry;
  void ExportKeyedState(std::vector<KeyedStateEntry>* out);
  void ImportKeyedState(const KeyedStateEntry& entry);

 protected:
  void OnData(const Event& e, TimeMicros now, Emitter& out) override;
  /// Folds a data run into pane state: data events neither read the clock
  /// nor emit, so only the fold itself remains.
  void OnDataRun(const Event* events, int64_t n, BatchClock& clock,
                 Emitter& out) override;
  void OnWatermark(const Event& incoming, TimeMicros min_watermark,
                   TimeMicros now, Emitter& out) override;
  void SerializeState(StateWriter& w) const override;
  void RestoreState(StateReader& r) override;

 private:
  struct Aggregate {
    int64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
  };
  // Panes keyed by (end, start) so iteration order is deadline order.
  using PaneKey = std::pair<TimeMicros, TimeMicros>;
  using Pane = FlatTable<Aggregate>;

  /// A speculatively fired pane's per-key state: the live aggregate plus
  /// the last emitted result, which the next refire must retract.
  struct RetainedEntry {
    Aggregate agg;
    double emitted = 0.0;
    bool has_emitted = false;
  };
  using RetainedPane = FlatTable<RetainedEntry>;

  double OutputValue(const Aggregate& agg) const;
  /// Folds one data element into pane state (the OnData body).
  void FoldData(const Event& e);
  /// Folds a late element into the retained pane for window `w`.
  void FoldLateIntoRetained(const WindowSpan& w, const Event& e);
  /// Emits the pending retraction+update pairs in (end, start, key) order.
  void FlushRefires(TimeMicros now, Emitter& out);
  /// Drops retained panes whose retention horizon `min_watermark` passed.
  void EvictRetained(TimeMicros min_watermark);

  std::unique_ptr<WindowAssigner> assigner_;
  AggregationKind kind_;
  uint32_t output_payload_bytes_;
  std::map<PaneKey, Pane> panes_;
  /// Fired panes still inside the lateness horizon, by deadline.
  std::map<PaneKey, RetainedPane> retained_;
  /// (pane, key) marks with a pending correction pair; iteration order is
  /// the canonical refire order.
  std::set<std::pair<PaneKey, uint64_t>> dirty_;
  DurationMicros allowed_lateness_ = 0;
  LateEventCounters late_;
  int64_t pending_correction_elements_ = 0;
  SwmTracker tracker_{1};
  int64_t fired_panes_ = 0;
  int64_t dropped_late_ = 0;
  std::vector<WindowSpan> scratch_windows_;
  /// Scratch for firing panes in sorted-key order: a pane's iteration
  /// order is its keys' arrival order, which would diverge between an
  /// uninterrupted run and a checkpoint-restored one.
  std::vector<uint64_t> scratch_keys_;
};

/// One key's state in a re-shard move: its open-pane aggregates, then its
/// retained panes with their emitted value and refire mark, each in pane
/// (deadline) order.
struct WindowAggregateOperator::KeyedStateEntry {
  struct Retained {
    PaneKey pane;
    RetainedEntry entry;
    /// A retraction+update pair is pending for this (pane, key).
    bool refire = false;
  };
  uint64_t key = 0;
  std::vector<std::pair<PaneKey, Aggregate>> open;
  std::vector<Retained> retained;
};

}  // namespace klink

#endif  // KLINK_OPERATORS_AGGREGATE_OPERATOR_H_
