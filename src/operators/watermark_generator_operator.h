#ifndef KLINK_OPERATORS_WATERMARK_GENERATOR_OPERATOR_H_
#define KLINK_OPERATORS_WATERMARK_GENERATOR_OPERATOR_H_

#include <string>

#include "src/operators/operator.h"

namespace klink {

/// Periodic in-pipeline watermark generation (paper Sec. 2.2 case (ii):
/// watermarks injected "by a specific operator that periodically emits
/// them"). Data events pass through; every `period` of processing time the
/// operator emits a watermark with timestamp (max observed event-time -
/// lag), the standard bounded-lateness heuristic. Incoming watermarks are
/// swallowed — this operator takes over progress signalling.
class WatermarkGeneratorOperator final : public Operator {
 public:
  /// Requires period > 0 and lag >= 0.
  WatermarkGeneratorOperator(std::string name, double cost_micros,
                             DurationMicros period, DurationMicros lag);

  int64_t emitted_watermarks() const { return emitted_watermarks_; }

 protected:
  void OnData(const Event& e, TimeMicros now, Emitter& out) override;
  void OnWatermark(const Event& incoming, TimeMicros min_watermark,
                   TimeMicros now, Emitter& out) override;

 private:
  void MaybeEmit(TimeMicros now, Emitter& out);

  DurationMicros period_;
  DurationMicros lag_;
  TimeMicros max_event_time_ = kNoTime;
  TimeMicros next_emit_time_ = 0;
  TimeMicros last_emitted_timestamp_ = kNoTime;
  int64_t emitted_watermarks_ = 0;
};

}  // namespace klink

#endif  // KLINK_OPERATORS_WATERMARK_GENERATOR_OPERATOR_H_
