#ifndef KLINK_OPERATORS_MAP_OPERATOR_H_
#define KLINK_OPERATORS_MAP_OPERATOR_H_

#include <functional>
#include <string>
#include <vector>

#include "src/operators/operator.h"

namespace klink {

/// Stateless one-in/one-out transform (projection, enrichment, key
/// extraction). Selectivity is exactly 1.
class MapOperator final : public Operator {
 public:
  /// Transforms the element in place. Null means identity.
  using TransformFn = std::function<void(Event&)>;

  MapOperator(std::string name, double cost_micros,
              TransformFn transform = nullptr);

 protected:
  void OnData(const Event& e, TimeMicros now, Emitter& out) override;
  /// Transforms a data run in place in a scratch buffer and emits it with
  /// one accounting update; an identity map forwards the run with no copy.
  void OnDataRun(const Event* events, int64_t n, BatchClock& clock,
                 Emitter& out) override;

 private:
  TransformFn transform_;
  std::vector<Event> batch_scratch_;
};

}  // namespace klink

#endif  // KLINK_OPERATORS_MAP_OPERATOR_H_
