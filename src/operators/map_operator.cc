#include "src/operators/map_operator.h"

#include <utility>

namespace klink {

MapOperator::MapOperator(std::string name, double cost_micros,
                         TransformFn transform)
    : Operator(std::move(name), cost_micros, /*num_inputs=*/1),
      transform_(std::move(transform)) {}

void MapOperator::OnData(const Event& e, TimeMicros /*now*/, Emitter& out) {
  Event mapped = e;
  if (transform_) transform_(mapped);
  EmitData(mapped, out);
}

void MapOperator::OnDataRun(const Event* events, int64_t n, BatchClock& clock,
                            Emitter& out) {
  clock.Advance(n);
  if (!transform_) {
    EmitDataRun(events, n, out);
    return;
  }
  batch_scratch_.assign(events, events + n);
  for (Event& e : batch_scratch_) transform_(e);
  EmitDataRun(batch_scratch_.data(), n, out);
}

}  // namespace klink
