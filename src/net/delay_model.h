#ifndef KLINK_NET_DELAY_MODEL_H_
#define KLINK_NET_DELAY_MODEL_H_

#include <memory>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/zipf.h"

namespace klink {

/// Samples the network delay an event experiences between generation at the
/// source and ingestion at the SPE. The paper evaluates Uniform and
/// Zipf(0.99) delays (Sec. 6); Pareto is the straggler regime of the
/// allowed-lateness experiments, and Constant serves zero-delay feeds.
class DelayModel {
 public:
  virtual ~DelayModel() = default;

  /// Draws one delay (>= 0).
  virtual DurationMicros Sample(Rng& rng) = 0;
};

/// Always `delay`.
class ConstantDelay final : public DelayModel {
 public:
  explicit ConstantDelay(DurationMicros delay);
  DurationMicros Sample(Rng& rng) override;

 private:
  DurationMicros delay_;
};

/// Uniform in [lo, hi].
class UniformDelay final : public DelayModel {
 public:
  UniformDelay(DurationMicros lo, DurationMicros hi);
  DurationMicros Sample(Rng& rng) override;

 private:
  DurationMicros lo_;
  DurationMicros hi_;
};

/// Zipf-distributed delay: rank r in [1, n] drawn with exponent s, mapped
/// to delay = lo + (r - 1) * step. With s = 0.99 most events see small
/// delays while a heavy tail experiences large ones, the variability regime
/// the paper stresses (Sec. 6.2.5).
class ZipfDelay final : public DelayModel {
 public:
  /// Delays take values {lo, lo+step, ..., lo+(n-1)*step}.
  ZipfDelay(DurationMicros lo, DurationMicros step, int64_t n, double s = 0.99);
  DurationMicros Sample(Rng& rng) override;

 private:
  DurationMicros lo_;
  DurationMicros step_;
  ZipfSampler sampler_;
};

/// Heavy-tailed Pareto (Lomax) delay: lo + scale * (U^(-1/alpha) - 1).
/// Unlike ZipfDelay's bounded rank ladder, the tail is unbounded: with
/// alpha <= 2 the variance diverges and with alpha <= 1 even the mean
/// does — the straggler regime where an allowed-lateness horizon matters
/// (events arrive arbitrarily far behind the watermark). Samples are
/// capped at `cap` to keep virtual-time experiments finite.
class ParetoDelay final : public DelayModel {
 public:
  /// Requires alpha > 0, scale > 0, cap >= lo.
  ParetoDelay(DurationMicros lo, double alpha, DurationMicros scale,
              DurationMicros cap = SecondsToMicros(30));
  DurationMicros Sample(Rng& rng) override;

  double alpha() const { return alpha_; }
  DurationMicros scale() const { return scale_; }

 private:
  DurationMicros lo_;
  double alpha_;
  DurationMicros scale_;
  DurationMicros cap_;
};

/// The paper's two evaluation distributions with default magnitudes
/// (tens-of-milliseconds scale, matching commodity-cluster delays).
std::unique_ptr<DelayModel> MakePaperUniformDelay();
std::unique_ptr<DelayModel> MakePaperZipfDelay();
/// Default heavy-tailed straggler distribution for the lateness
/// experiments: Pareto(alpha = 1.5) with a 20 ms scale atop a 5 ms floor.
std::unique_ptr<DelayModel> MakeDefaultParetoDelay();

}  // namespace klink

#endif  // KLINK_NET_DELAY_MODEL_H_
