#include "src/klink/slack.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/gaussian.h"

namespace klink {

SlackResult ComputeExpectedSlack(double now, double drain_cost,
                                 const IngestionPrediction& pred,
                                 double step_r) {
  KLINK_CHECK(pred.valid);
  KLINK_CHECK_GT(step_r, 0.0);
  SlackResult result;

  const double t_min = pred.lo;
  const double t_max = pred.hi;
  if (t_max <= now) {
    // Overdue: the whole confidence interval elapsed. More-overdue queries
    // get more-negative slack and are scheduled first.
    result.slack = (pred.mean - now) - drain_cost;
    return result;
  }

  // Bound the integration work: widen the step rather than walking an
  // unbounded number of windows over a very wide interval.
  double step = step_r;
  const double span = t_max - std::max(now, t_min);
  if (span / step > static_cast<double>(kMaxSlackSteps)) {
    step = span / static_cast<double>(kMaxSlackSteps);
  }

  // Eq. 9 denominator: P(w > now).
  double denom = GaussianTailProb(now, pred.mean, pred.stddev);
  denom = std::max(denom, 1e-12);

  double slack = 0.0;
  int steps = 0;
  double x = std::max(now, t_min);
  if (pred.stddev <= 0.0) {
    // Point mass: GaussianIntervalProb's own case per window.
    for (; x <= t_max; x += step) {
      const double pr =
          GaussianIntervalProb(x, x + step, pred.mean, pred.stddev) / denom;
      slack += pr * ((x + step - now) - drain_cost);
      ++steps;
    }
  } else {
    // P(x <= w <= x + step) = Phi(upper) - Phi(lower). Each window's upper
    // edge is the next window's lower edge, the same double x + step, so
    // carrying its CDF over halves the erfc calls without changing a bit.
    double cdf_lo = GaussianCdf((x - pred.mean) / pred.stddev);
    for (; x <= t_max; x += step) {
      const double cdf_hi = GaussianCdf((x + step - pred.mean) / pred.stddev);
      const double pr = (cdf_hi - cdf_lo) / denom;
      slack += pr * ((x + step - now) - drain_cost);
      ++steps;
      cdf_lo = cdf_hi;
    }
  }
  result.slack = slack;
  result.steps = steps;
  return result;
}

double FallbackSlack(double now, double drain_cost,
                     double upcoming_deadline) {
  return (upcoming_deadline - now) - drain_cost;  // Eq. 1
}

}  // namespace klink
