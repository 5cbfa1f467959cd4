#ifndef KLINK_COMMON_STATUS_H_
#define KLINK_COMMON_STATUS_H_

#include <string>
#include <utility>

#include "src/common/check.h"

namespace klink {

/// Error categories for recoverable failures: invalid configuration or user
/// input, and internal failures such as a socket error. Engine invariants
/// use KLINK_CHECK.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kInternal = 2,
};

/// Lightweight status object, modelled after absl::Status. Functions that
/// can fail for user-correctable reasons return Status (or StatusOr<T>).
/// [[nodiscard]] at class scope: every call returning a Status must check
/// it (or explicitly KLINK_CHECK_OK it); a silently dropped error is how a
/// failed socket write turns into corrupted downstream accounting.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and human-readable message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Returns "OK" or "<code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A Status or a value of type T. Accessing value() on an error aborts.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit from value — mirrors absl::StatusOr ergonomics.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT
  /// Implicit from error status.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    KLINK_CHECK(!status_.ok());
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    KLINK_CHECK(ok());
    return value_;
  }
  T& value() & {
    KLINK_CHECK(ok());
    return value_;
  }
  T&& value() && {
    KLINK_CHECK(ok());
    return std::move(value_);
  }

 private:
  Status status_;
  T value_{};
};

}  // namespace klink

#endif  // KLINK_COMMON_STATUS_H_
