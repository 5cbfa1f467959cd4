#ifndef KLINK_COMMON_SERIALIZE_H_
#define KLINK_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/little_endian.h"

namespace klink {

/// FNV-1a over a byte range. Used for checkpoint manifest integrity and by
/// the sink's results hash; both sides must agree on this exact fold.
inline uint64_t Fnv1aBytes(const uint8_t* data, size_t len,
                           uint64_t hash = 14695981039346656037ull) {
  constexpr uint64_t kPrime = 1099511628211ull;
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= kPrime;
  }
  return hash;
}

/// Append-only little-endian binary writer for checkpoint state. Operators
/// serialize through this so the on-disk layout is independent of host
/// struct padding; the matching StateReader enforces bounds on every read.
class StateWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }

  void PutU32(uint32_t v) { PutLittleEndian(v); }

  void PutU64(uint64_t v) { PutLittleEndian(v); }

  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  /// Doubles travel as raw IEEE-754 bit patterns: restore must reproduce
  /// byte-identical floating-point state, not a near-equal reparse.
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutBytes(const uint8_t* data, size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }

  void PutString(const std::string& s) {
    PutU64(s.size());
    PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buf_); }

 private:
  /// One append per integer: the bytes are built on the stack first.
  template <typename T>
  void PutLittleEndian(T v) {
    uint8_t bytes[sizeof(T)];
    StoreLittleEndian(v, bytes);
    buf_.insert(buf_.end(), bytes, bytes + sizeof(T));
  }

  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader over a serialized state blob. A read past the end
/// (torn or corrupt checkpoint) sets the error flag and returns zeroes
/// instead of touching out-of-bounds memory; callers check ok() once after
/// a batch of reads rather than after every field.
class StateReader {
 public:
  StateReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit StateReader(const std::vector<uint8_t>& buf)
      : StateReader(buf.data(), buf.size()) {}

  uint8_t GetU8() {
    if (!Need(1)) return 0;
    return data_[off_++];
  }

  uint32_t GetU32() { return GetLittleEndian<uint32_t>(); }

  uint64_t GetU64() { return GetLittleEndian<uint64_t>(); }

  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }

  double GetDouble() {
    const uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool GetBool() { return GetU8() != 0; }

  std::string GetString() {
    const uint64_t n = GetU64();
    if (!Need(n)) return std::string();
    std::string s(reinterpret_cast<const char*>(data_ + off_),
                  static_cast<size_t>(n));
    off_ += static_cast<size_t>(n);
    return s;
  }

  /// True while every read so far stayed in bounds and no decoder called
  /// Fail().
  bool ok() const { return ok_; }
  size_t remaining() const { return len_ - off_; }
  bool AtEnd() const { return off_ == len_; }

  /// Marks the blob malformed. A decoder whose bytes are in bounds but
  /// break its own invariants fails the reader like a short read, so the
  /// callers' ok() checks refuse the blob.
  void Fail() { ok_ = false; }

 private:
  template <typename T>
  T GetLittleEndian() {
    if (!Need(sizeof(T))) return 0;
    const T v = LoadLittleEndian<T>(data_ + off_);
    off_ += sizeof(T);
    return v;
  }

  bool Need(uint64_t n) {
    if (!ok_ || n > len_ - off_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t len_;
  size_t off_ = 0;
  bool ok_ = true;
};

}  // namespace klink

#endif  // KLINK_COMMON_SERIALIZE_H_
