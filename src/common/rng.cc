#include "src/common/rng.h"

#include "src/common/check.h"
#include "src/common/hash.h"

namespace klink {
namespace {

// SplitMix64, used only to expand the seed into xoshiro state.
uint64_t SplitMix64(uint64_t* x) {
  return Mix64(*x += 0x9e3779b97f4a7c15ULL);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(&s);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> uniform in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  KLINK_CHECK_LE(lo, hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextUint64());  // full range
  return lo + static_cast<int64_t>(NextUint64() % range);
}

}  // namespace klink
