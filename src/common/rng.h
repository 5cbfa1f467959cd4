#ifndef KLINK_COMMON_RNG_H_
#define KLINK_COMMON_RNG_H_

#include <cstdint>

namespace klink {

/// Deterministic pseudo-random generator (xoshiro256**). Every stochastic
/// component of the simulator (network delay samplers, workload generators,
/// query deployment jitter) draws from an Rng seeded from the experiment
/// config, so runs are exactly reproducible.
class Rng {
 public:
  /// Seeds the generator; identical seeds yield identical sequences.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Returns the next raw 64-bit value.
  uint64_t NextUint64();

  /// Returns a uniform double in [0, 1).
  double NextDouble();

  /// Returns a uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

 private:
  uint64_t state_[4];
};

}  // namespace klink

#endif  // KLINK_COMMON_RNG_H_
