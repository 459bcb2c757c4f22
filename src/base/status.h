// Error handling primitives: Status and Result<T>.
//
// The emulator does not throw in the simulated-hardware paths: devices report
// failures the way hardware does, as explicit condition codes. Status carries
// a code plus a human-readable detail; Result<T> is a Status-or-value union.
#ifndef SRC_BASE_STATUS_H_
#define SRC_BASE_STATUS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "src/base/check.h"

namespace lastcpu {

// Condition codes shared across the whole system. These double as the error
// codes carried inside bus protocol messages, so they are stable small ints.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kPermissionDenied = 4,
  kResourceExhausted = 5,
  kFailedPrecondition = 6,
  kUnavailable = 7,       // target device not alive / link down
  kTimedOut = 8,          // request deadline expired
  kAborted = 9,           // operation cancelled mid-flight (reset, teardown)
  kDataLoss = 10,         // uncorrectable media error
  kUnimplemented = 11,
  kInternal = 12,
  kPartitioned = 13,      // cross-segment link down: destination segment unreachable
};

std::string_view StatusCodeName(StatusCode code);

// A condition code with optional detail text. Cheap to copy when OK.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  StatusCode code() const { return code_; }
  bool ok() const { return code_ == StatusCode::kOk; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status InvalidArgument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status NotFound(std::string msg) { return Status(StatusCode::kNotFound, std::move(msg)); }
inline Status AlreadyExists(std::string msg) {
  return Status(StatusCode::kAlreadyExists, std::move(msg));
}
inline Status PermissionDenied(std::string msg) {
  return Status(StatusCode::kPermissionDenied, std::move(msg));
}
inline Status ResourceExhausted(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status FailedPrecondition(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status Unavailable(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}
inline Status TimedOut(std::string msg) { return Status(StatusCode::kTimedOut, std::move(msg)); }
inline Status Aborted(std::string msg) { return Status(StatusCode::kAborted, std::move(msg)); }
inline Status DataLoss(std::string msg) { return Status(StatusCode::kDataLoss, std::move(msg)); }
inline Status Unimplemented(std::string msg) {
  return Status(StatusCode::kUnimplemented, std::move(msg));
}
inline Status Internal(std::string msg) { return Status(StatusCode::kInternal, std::move(msg)); }
inline Status Partitioned(std::string msg) {
  return Status(StatusCode::kPartitioned, std::move(msg));
}

// Holds either a value of T or a non-OK Status. Accessing the value of a
// failed Result is a programming error and aborts (hardware models must check
// condition codes, exactly like a driver checks a completion status).
template <typename T>
class Result {
 public:
  Result(T value) : state_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status)                          // NOLINT(google-explicit-constructor)
      : state_(std::move(status)) {
    LASTCPU_CHECK(!std::get<Status>(state_).ok(), "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(state_); }

  Status status() const {
    if (ok()) {
      return OkStatus();
    }
    return std::get<Status>(state_);
  }

  const T& value() const& {
    LASTCPU_CHECK(ok(), "Result::value() on error: %s", status().ToString().c_str());
    return std::get<T>(state_);
  }
  T& value() & {
    LASTCPU_CHECK(ok(), "Result::value() on error: %s", status().ToString().c_str());
    return std::get<T>(state_);
  }
  T&& value() && {
    LASTCPU_CHECK(ok(), "Result::value() on error: %s", status().ToString().c_str());
    return std::move(std::get<T>(state_));
  }

  // `*std::move(result)` consumes the result: it moves the value out rather
  // than binding the const overload and copying it.
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> state_;
};

// Moves a successful result's value into `out`; otherwise returns its error
// and leaves `out` alone.
template <typename T>
Status Assign(Result<T> result, T& out) {
  if (!result.ok()) {
    return result.status();
  }
  out = *std::move(result);
  return OkStatus();
}

// Status-like specialization: no value, but unlike the primary template it
// may hold an OK state, so Result<void> is the uniform "operation outcome"
// for completion callbacks (see Callback<T> below).
template <>
class Result<void> {
 public:
  Result() = default;
  Result(Status status) : status_(std::move(status)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return status_.ok(); }
  Status status() const { return status_; }

  // Legacy adapter: lets callables taking a bare Status serve as
  // Callback<void> while call sites migrate.
  operator Status() const { return status_; }  // NOLINT(google-explicit-constructor)

 private:
  Status status_;
};

// The one completion-callback shape used across control-plane surfaces
// (ControlClient, CentralKernel): value-producing operations complete with
// Result<T>, status-only operations with Result<void>.
template <typename T>
using Callback = std::function<void(Result<T>)>;

// Propagates a non-OK status out of the enclosing function.
#define LASTCPU_RETURN_IF_ERROR(expr)           \
  do {                                          \
    ::lastcpu::Status lastcpu_status_ = (expr); \
    if (!lastcpu_status_.ok()) {                \
      return lastcpu_status_;                   \
    }                                           \
  } while (false)

}  // namespace lastcpu

#endif  // SRC_BASE_STATUS_H_
