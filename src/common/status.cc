#include "common/status.h"

namespace pcx {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kInfeasible:
      return "INFEASIBLE";
    case StatusCode::kUnbounded:
      return "UNBOUNDED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kProtocolError:
      return "PROTOCOL_ERROR";
  }
  return "UNKNOWN";
}

bool ParseStatusCode(const std::string& name, StatusCode* code) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kResourceExhausted, StatusCode::kInfeasible,
        StatusCode::kUnbounded, StatusCode::kUnavailable,
        StatusCode::kProtocolError}) {
    if (name == StatusCodeToString(c)) {
      *code = c;
      return true;
    }
  }
  return false;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace pcx
