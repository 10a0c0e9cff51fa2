#ifndef PCX_COMMON_STATUS_H_
#define PCX_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace pcx {

/// Error categories used across the library. Modeled after the
/// absl/arrow status codes but reduced to what pcx actually needs.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kResourceExhausted,
  kInfeasible,  ///< An optimization model has no feasible solution.
  kUnbounded,   ///< An optimization model is unbounded.
  /// A remote backend's transport is gone: connection refused, the
  /// server closed the session, or a read/write on the wire failed.
  kUnavailable,
  /// The wire protocol itself broke: a reply line that does not parse
  /// as RANGE/GROUPS/STATS/ERR. Distinguishable from kInvalidArgument
  /// (the *request* was bad) and kUnavailable (the connection died).
  kProtocolError,
};

/// Returns a stable human-readable name for a status code. These names
/// travel on the wire (pcx_serve "ERR <CODE> <message>" replies), so
/// they are part of the serving protocol, not just log text.
const char* StatusCodeToString(StatusCode code);

/// Inverse of StatusCodeToString. Returns false (leaving `code`
/// untouched) when `name` is not a known code name — a reply from a
/// newer server with codes this client does not know about.
bool ParseStatusCode(const std::string& name, StatusCode* code);

/// A cheap, copyable success-or-error value. The library does not throw
/// exceptions across API boundaries; fallible public functions return
/// Status or StatusOr<T>. The class-level [[nodiscard]] makes every
/// by-value return of a Status a compile error to ignore — a dropped
/// error is a silently swallowed failure.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status Unbounded(std::string msg) {
    return Status(StatusCode::kUnbounded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status ProtocolError(std::string msg) {
    return Status(StatusCode::kProtocolError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

/// Evaluates `expr` (a Status expression); returns it from the enclosing
/// function if it is not OK.
#define PCX_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::pcx::Status _pcx_status = (expr);      \
    if (!_pcx_status.ok()) return _pcx_status; \
  } while (0)

}  // namespace pcx

#endif  // PCX_COMMON_STATUS_H_
