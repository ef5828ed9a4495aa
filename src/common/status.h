// Copyright (c) the SLADE reproduction authors.
// Exception-free error handling in the style of Apache Arrow / RocksDB.

#ifndef SLADE_COMMON_STATUS_H_
#define SLADE_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <utility>

namespace slade {

/// \brief Machine-readable category for a `Status`.
enum class StatusCode : char {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kAlreadyExists = 4,
  kInfeasible = 5,       ///< No feasible decomposition plan exists.
  kResourceExhausted = 6,
  kInternal = 7,
  kNotImplemented = 8,
  kIOError = 9,
};

/// \brief Returns a human-readable name for a status code ("OK",
/// "Invalid argument", ...).
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of an operation: either OK, or a code plus message.
///
/// The OK state is represented by a null state pointer, so `Status::OK()`
/// is cheap to construct, copy and test. All library entry points that can
/// fail return `Status` (or `Result<T>`, see result.h); the library never
/// throws.
class [[nodiscard]] Status {
 public:
  /// Creates an OK status.
  Status() noexcept = default;

  /// Creates a status with the given code and message. `code` must not be
  /// `StatusCode::kOk`; use the default constructor (or `OK()`) for success.
  Status(StatusCode code, std::string msg);

  Status(const Status& other)
      : state_(other.state_ ? new State(*other.state_) : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      state_.reset(other.state_ ? new State(*other.state_) : nullptr);
    }
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Returns an OK status.
  static Status OK() { return Status(); }

  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }

  /// True iff the status is OK.
  bool ok() const { return state_ == nullptr; }

  /// The status code (`kOk` when `ok()`).
  StatusCode code() const {
    return state_ ? state_->code : StatusCode::kOk;
  }

  /// The error message; empty when `ok()`.
  const std::string& message() const {
    static const std::string kEmpty;
    return state_ ? state_->msg : kEmpty;
  }

  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsInfeasible() const { return code() == StatusCode::kInfeasible; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsNotImplemented() const {
    return code() == StatusCode::kNotImplemented;
  }
  bool IsIOError() const { return code() == StatusCode::kIOError; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

  bool Equals(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };
  // nullptr means OK; this keeps the success path allocation-free.
  std::unique_ptr<State> state_;
};

inline bool operator==(const Status& a, const Status& b) { return a.Equals(b); }
inline bool operator!=(const Status& a, const Status& b) {
  return !a.Equals(b);
}

}  // namespace slade

/// Evaluates `expr`; if the resulting Status is not OK, returns it from the
/// enclosing function.
#define SLADE_RETURN_NOT_OK(expr)                  \
  do {                                             \
    ::slade::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                     \
  } while (false)

#endif  // SLADE_COMMON_STATUS_H_
