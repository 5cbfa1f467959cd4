#ifndef KLINK_COMMON_HASH_H_
#define KLINK_COMMON_HASH_H_

#include <cstdint>

namespace klink {

/// Stateless 64-bit mix: the SplitMix64 finalizer. Every bit of the input
/// affects every bit of the output, so masking the result to its low bits
/// gives usable hash-table slots and pass/fail draws even for sequential
/// keys. Mix64(0) == 0.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace klink

#endif  // KLINK_COMMON_HASH_H_
