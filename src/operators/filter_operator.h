#ifndef KLINK_OPERATORS_FILTER_OPERATOR_H_
#define KLINK_OPERATORS_FILTER_OPERATOR_H_

#include <functional>
#include <string>
#include <vector>

#include "src/operators/operator.h"

namespace klink {

/// Stateless predicate filter. Selectivity < 1 makes filters the memory
/// manager's preferred reducers of in-flight volume (Sec. 3.4).
class FilterOperator final : public Operator {
 public:
  using PredicateFn = std::function<bool(const Event&)>;

  /// Keeps elements satisfying `keep`. The selectivity hint is set from
  /// `expected_pass_rate` so schedulers have an estimate before runtime
  /// measurements accumulate.
  FilterOperator(std::string name, double cost_micros, PredicateFn keep,
                 double expected_pass_rate);

  /// Convenience: deterministic hash-based filter passing approximately
  /// `pass_rate` of elements, keyed on the event key so the decision is
  /// stable per key.
  static PredicateFn HashPassRate(double pass_rate);

 protected:
  void OnData(const Event& e, TimeMicros now, Emitter& out) override;
  /// Collects the passing elements of a data run into a scratch buffer and
  /// emits them with one accounting update.
  void OnDataRun(const Event* events, int64_t n, BatchClock& clock,
                 Emitter& out) override;

 private:
  PredicateFn keep_;
  std::vector<Event> batch_scratch_;
};

}  // namespace klink

#endif  // KLINK_OPERATORS_FILTER_OPERATOR_H_
