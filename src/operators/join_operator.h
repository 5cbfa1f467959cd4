#ifndef KLINK_OPERATORS_JOIN_OPERATOR_H_
#define KLINK_OPERATORS_JOIN_OPERATOR_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flat_table.h"
#include "src/operators/operator.h"
#include "src/window/swm_tracker.h"
#include "src/window/window_assigner.h"

namespace klink {

/// Windowed equi-join (group-by) over n >= 2 input streams.
///
/// Events are buffered as per-(window, stream, key) aggregates; a window is
/// unblocked only when *every* input stream has propagated a watermark
/// elapsing its deadline, i.e. when the minimum watermark across inputs
/// reaches the deadline (Sec. 3.3, Fig. 4). On unblocking, the operator
/// emits one joined result per key present in all streams of the pane,
/// then forwards the watermark flagged as SWM.
///
/// Per-stream progress (event delays, per-stream deadline sweeps) is
/// tracked separately so that Klink can compute one slack value per input
/// stream and prioritize by the minimum (Sec. 3.3).
class WindowJoinOperator final : public Operator {
 public:
  WindowJoinOperator(std::string name, double cost_micros,
                     std::unique_ptr<WindowAssigner> assigner, int num_inputs,
                     uint32_t output_payload_bytes = 64);

  /// ---- Operator overrides -------------------------------------------
  TimeMicros UpcomingDeadline() const override;
  const SwmTracker* swm_tracker() const override { return &tracker_; }

  /// ---- introspection -------------------------------------------------
  const WindowAssigner& assigner() const { return *assigner_; }
  int64_t fired_panes() const { return fired_panes_; }
  int64_t emitted_joins() const { return emitted_joins_; }
  int64_t dropped_late_events() const { return dropped_late_; }
  int64_t open_panes() const { return static_cast<int64_t>(panes_.size()); }

  static constexpr int64_t kBytesPerKeyState = 48;
  static constexpr int64_t kBytesPerPane = 96;

 protected:
  void OnData(const Event& e, TimeMicros now, Emitter& out) override;
  void OnWatermark(const Event& incoming, TimeMicros min_watermark,
                   TimeMicros now, Emitter& out) override;
  void OnStreamWatermark(const Event& incoming, int stream) override;
  void SerializeState(StateWriter& w) const override;
  void RestoreState(StateReader& r) override;

 private:
  struct Aggregate {
    int64_t count = 0;
    double sum = 0.0;
  };
  using PaneKey = std::pair<TimeMicros, TimeMicros>;  // (end, start)
  struct Pane {
    /// per_stream[s][key] -> aggregate of stream s contributions.
    std::vector<FlatTable<Aggregate>> per_stream;
  };

  void FirePane(const PaneKey& pane_key, Pane& pane, TimeMicros now,
                Emitter& out);

  std::unique_ptr<WindowAssigner> assigner_;
  uint32_t output_payload_bytes_;
  std::map<PaneKey, Pane> panes_;
  SwmTracker tracker_;
  /// Next deadline each stream's watermark has yet to elapse.
  std::vector<TimeMicros> next_stream_deadline_;
  int64_t fired_panes_ = 0;
  int64_t emitted_joins_ = 0;
  int64_t dropped_late_ = 0;
  std::vector<WindowSpan> scratch_windows_;
  /// Scratch for probing in sorted-key order (restore-stable emission).
  std::vector<uint64_t> scratch_keys_;
};

}  // namespace klink

#endif  // KLINK_OPERATORS_JOIN_OPERATOR_H_
