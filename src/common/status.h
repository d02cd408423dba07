#ifndef VQLIB_COMMON_STATUS_H_
#define VQLIB_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace vqi {

/// Error codes for fallible operations across the library.
///
/// The library follows the Status idiom common in database codebases: fallible
/// entry points (I/O, parsing, pipeline configuration) return `Status` or
/// `StatusOr<T>`; contract violations use `VQI_CHECK` and abort.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
  kUnimplemented,
  kIoError,
  kParseError,
  kUnavailable,
  kDeadlineExceeded,
  kCancelled,
};

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// A lightweight success-or-error result carrying a code and a message.
/// [[nodiscard]]: silently dropping a Status hides failures (lost I/O
/// errors, ignored shed-load rejections); cast to void to drop deliberately.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  /// Constructs a status with `code` and a diagnostic `message`.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders as "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type `T` or an error `Status`. Accessing the value of an
/// errored StatusOr is a checked contract violation.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Constructs from a value (implicit by design, mirroring absl::StatusOr).
  StatusOr(T value) : value_(std::move(value)) {}
  /// Constructs from a non-OK status.
  StatusOr(Status status) : status_(std::move(status)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace vqi

/// Propagates a non-OK status to the caller.
#define VQI_RETURN_IF_ERROR(expr)                \
  do {                                           \
    ::vqi::Status vqi_status_tmp_ = (expr);      \
    if (!vqi_status_tmp_.ok()) return vqi_status_tmp_; \
  } while (false)

#endif  // VQLIB_COMMON_STATUS_H_
