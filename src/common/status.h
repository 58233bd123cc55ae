#ifndef SKETCHML_COMMON_STATUS_H_
#define SKETCHML_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace sketchml::common {

/// Machine-readable category of a `Status`.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kCorruptedData = 3,
  kNotFound = 4,
  kAlreadyExists = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kIoError = 8,
  /// A required peer or quorum is (possibly transiently) unreachable —
  /// e.g. too few simulated workers survived a batch's retry budget.
  kUnavailable = 9,
};

/// Returns the canonical lowercase name of `code` (e.g. "invalid argument").
const char* StatusCodeToString(StatusCode code);

/// Outcome of an operation that can fail without crashing the process.
///
/// The library does not use exceptions; recoverable failures (bad user
/// input, corrupted wire data, missing files) surface as a non-OK `Status`.
/// Programmer errors use `SKETCHML_CHECK` instead.
///
/// The class is `[[nodiscard]]`: every function returning a `Status` by
/// value warns (errors under -Werror) if the caller drops the result, so
/// a swallowed decode/validate failure cannot compile silently. A caller
/// that genuinely cannot act on the error must say so explicitly via a
/// `(void)` cast plus a `// NOLINT(sketchml-discarded-status)` comment
/// justifying it (enforced by the lint pass of tools/sketchml_analyze).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with `code` and a human-readable `message`.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status CorruptedData(std::string msg) {
    return Status(StatusCode::kCorruptedData, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "code: message" for logs and test failures.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Propagates a non-OK status to the caller.
#define SKETCHML_RETURN_IF_ERROR(expr)                        \
  do {                                                        \
    ::sketchml::common::Status _status = (expr);              \
    if (!_status.ok()) return _status;                        \
  } while (false)

}  // namespace sketchml::common

#endif  // SKETCHML_COMMON_STATUS_H_
