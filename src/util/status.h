// Lightweight Status / Result<T> for fallible APIs. The library is built
// without exceptions on hot paths; constructors that can fail are replaced
// by factory functions returning Result<T>.
#ifndef SWSKETCH_UTIL_STATUS_H_
#define SWSKETCH_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace swsketch {

/// Error categories; kept deliberately small (RocksDB-style subset).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kFailedPrecondition,
  kOutOfRange,
  kInternal,
  kNotFound,
  kUnimplemented,
};

/// Value-semantics status object. `Status::OK()` is cheap (no allocation).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// The same code with `prefix` put before the message.
  Status Annotate(const std::string& prefix) const {
    return Status(code_, prefix + message_);
  }

  /// The code's name ("InvalidArgument", ...).
  const char* CodeName() const {
    switch (code_) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kFailedPrecondition: return "FailedPrecondition";
      case StatusCode::kOutOfRange: return "OutOfRange";
      case StatusCode::kInternal: return "Internal";
      case StatusCode::kNotFound: return "NotFound";
      case StatusCode::kUnimplemented: return "Unimplemented";
    }
    return "Unknown";
  }

  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(CodeName()) + ": " + message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a value or an error Status. Mirrors absl::StatusOr semantics at a
/// fraction of the surface area.
template <typename T>
class Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors StatusOr.
  Result(T value) : value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {}

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() { return *value_; }
  const T& value() const { return *value_; }
  T&& take() { return std::move(*value_); }

  T& operator*() { return *value_; }
  const T& operator*() const { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

 private:
  std::optional<T> value_;
  Status status_ = Status::Internal("result not initialized");
};

}  // namespace swsketch

#endif  // SWSKETCH_UTIL_STATUS_H_
