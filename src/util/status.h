#ifndef FAB_UTIL_STATUS_H_
#define FAB_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace fab {

/// Machine-readable error classification carried by `Status`.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIoError,
  kUnavailable,
};

/// Returns a human-readable name for `code` ("OK", "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// Lightweight success/error value used across all fallible fab APIs.
///
/// The library does not throw exceptions across API boundaries; operations
/// that can fail return `Status` (or `Result<T>` when they also produce a
/// value). A default-constructed `Status` is OK.
///
/// The class itself is [[nodiscard]], and the build adds
/// -Werror=unused-result: any expression that produces a Status by value
/// and drops it is a compile error (tests/compile_fail/status_discard.cc
/// pins this). Deliberate discards spell it out with `(void)` and a
/// comment.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with `code` and a human-readable `message`.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Copying is defined in status.cc. A copy is an error-path step (a
  /// Result's status(), a propagated error), and keeping its string copy
  /// out of line keeps it out of callers' inlined code: there GCC 12's
  /// sanitizer builds read a Result<T>::status() that holds a T as a
  /// possible copy of the variant's never-written Status and warn
  /// -Wmaybe-uninitialized.
  Status(const Status& other);
  Status(Status&& other) = default;
  Status& operator=(const Status& other) = default;
  Status& operator=(Status&& other) = default;

  /// Factory helpers, one per error class.
  static Status OK() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  [[nodiscard]] static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  [[nodiscard]] static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  [[nodiscard]] static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  [[nodiscard]] static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  [[nodiscard]] static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  /// True when the status carries no error.
  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error union, analogous to absl::StatusOr.
///
/// Either holds a `T` (when `ok()`) or a non-OK `Status`. Accessing
/// `value()` on an error result aborts in debug builds and is undefined
/// otherwise, so callers must check `ok()` first. Like Status, the class
/// is [[nodiscard]]: dropping a Result drops an unexamined error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from a value: allows `return some_t;`.
  Result(T value) : data_(std::move(value)) {}
  /// Implicit from an error status: allows `return Status::NotFound(...)`.
  Result(Status status) : data_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(data_); }

  /// The error status; OK when the result holds a value.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(data_);
  }

  /// Borrow the contained value. Requires `ok()`.
  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  /// Move the contained value out. Requires `ok()`.
  T&& value() && { return std::get<T>(std::move(data_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> data_;
};

}  // namespace fab

/// Propagates a non-OK status from an expression to the caller.
#define FAB_RETURN_IF_ERROR(expr)                \
  do {                                           \
    ::fab::Status _fab_status = (expr);          \
    if (!_fab_status.ok()) return _fab_status;   \
  } while (false)

/// Evaluates a Result expression, assigning the value on success and
/// returning the error status otherwise.
#define FAB_ASSIGN_OR_RETURN(lhs, expr)              \
  auto FAB_CONCAT_(_fab_result_, __LINE__) = (expr); \
  if (!FAB_CONCAT_(_fab_result_, __LINE__).ok())     \
    return FAB_CONCAT_(_fab_result_, __LINE__).status(); \
  lhs = std::move(FAB_CONCAT_(_fab_result_, __LINE__)).value()

#define FAB_CONCAT_INNER_(a, b) a##b
#define FAB_CONCAT_(a, b) FAB_CONCAT_INNER_(a, b)

#endif  // FAB_UTIL_STATUS_H_
