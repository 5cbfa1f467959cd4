#include "src/net/delay_model.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace klink {

ConstantDelay::ConstantDelay(DurationMicros delay) : delay_(delay) {
  KLINK_CHECK_GE(delay, 0);
}

DurationMicros ConstantDelay::Sample(Rng& /*rng*/) { return delay_; }

UniformDelay::UniformDelay(DurationMicros lo, DurationMicros hi)
    : lo_(lo), hi_(hi) {
  KLINK_CHECK_GE(lo, 0);
  KLINK_CHECK_LE(lo, hi);
}

DurationMicros UniformDelay::Sample(Rng& rng) { return rng.NextInt(lo_, hi_); }

ZipfDelay::ZipfDelay(DurationMicros lo, DurationMicros step, int64_t n,
                     double s)
    : lo_(lo), step_(step), sampler_(n, s) {
  KLINK_CHECK_GE(lo, 0);
  KLINK_CHECK_GE(step, 0);
}

DurationMicros ZipfDelay::Sample(Rng& rng) {
  return lo_ + (sampler_.Sample(rng) - 1) * step_;
}

ParetoDelay::ParetoDelay(DurationMicros lo, double alpha, DurationMicros scale,
                         DurationMicros cap)
    : lo_(lo), alpha_(alpha), scale_(scale), cap_(cap) {
  KLINK_CHECK_GE(lo, 0);
  KLINK_CHECK(alpha > 0.0);
  KLINK_CHECK_GT(scale, 0);
  KLINK_CHECK_GE(cap, lo);
}

DurationMicros ParetoDelay::Sample(Rng& rng) {
  // Inverse-CDF of the Lomax distribution; NextDouble() is in [0, 1), so
  // u = 1 - NextDouble() is in (0, 1] and the pow is finite.
  const double u = 1.0 - rng.NextDouble();
  const double tail =
      static_cast<double>(scale_) * (std::pow(u, -1.0 / alpha_) - 1.0);
  const double capped =
      std::min(static_cast<double>(cap_ - lo_), tail);
  return lo_ + static_cast<DurationMicros>(capped);
}

std::unique_ptr<DelayModel> MakePaperUniformDelay() {
  // Uniform 5..100 ms: moderate, bounded variability.
  return std::make_unique<UniformDelay>(MillisToMicros(5),
                                        MillisToMicros(100));
}

std::unique_ptr<DelayModel> MakePaperZipfDelay() {
  // Zipf(0.99) over 200 ranks of 2 ms steps starting at 5 ms: most events
  // arrive promptly, a heavy tail is delayed by up to ~400 ms.
  return std::make_unique<ZipfDelay>(MillisToMicros(5), MillisToMicros(2),
                                     /*n=*/200, /*s=*/0.99);
}

std::unique_ptr<DelayModel> MakeDefaultParetoDelay() {
  // alpha = 1.5: finite mean (~45 ms including the floor), infinite
  // variance — a realistic straggler tail reaching seconds.
  return std::make_unique<ParetoDelay>(MillisToMicros(5), /*alpha=*/1.5,
                                       MillisToMicros(20));
}

}  // namespace klink
