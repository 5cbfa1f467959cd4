#ifndef KLINK_COMMON_LITTLE_ENDIAN_H_
#define KLINK_COMMON_LITTLE_ENDIAN_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace klink {

/// Little-endian loads and stores of unsigned integers at any byte offset:
/// the one byte-order helper of the ingest wire protocol (src/net/wire.cc)
/// and the checkpoint format (src/common/serialize.h). Frames and state
/// fields start at arbitrary offsets, so the bytes move through memcpy,
/// which compiles to one unaligned load or store; only a big-endian host
/// reverses them.
template <typename T>
T LoadLittleEndian(const uint8_t* p) {
  static_assert(std::is_unsigned_v<T>);
  uint8_t bytes[sizeof(T)];
  std::memcpy(bytes, p, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(bytes, bytes + sizeof(T));
  }
  T v;
  std::memcpy(&v, bytes, sizeof(T));
  return v;
}

template <typename T>
void StoreLittleEndian(T v, uint8_t* p) {
  static_assert(std::is_unsigned_v<T>);
  uint8_t bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(bytes, bytes + sizeof(T));
  }
  std::memcpy(p, bytes, sizeof(T));
}

}  // namespace klink

#endif  // KLINK_COMMON_LITTLE_ENDIAN_H_
