#ifndef PCX_COMMON_TEXT_H_
#define PCX_COMMON_TEXT_H_

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace pcx {

/// Small shared text-parsing helpers used by the serialization, the
/// snapshot format, and the serving protocol. One canonical copy: the
/// pcset format, snapshots and the line protocol must all agree on what
/// "whitespace" and "a number" mean (CRLF tolerance included).

/// Strips leading/trailing spaces, tabs, CR and LF; the view points
/// into `s`.
inline std::string_view TrimView(std::string_view s) {
  const size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string_view::npos) return {};
  const size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// TrimView, copied out.
inline std::string TrimWhitespace(const std::string& s) {
  return std::string(TrimView(s));
}

/// Splits on runs of whitespace; no empty tokens.
inline std::vector<std::string> SplitWhitespace(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// Splits on every occurrence of `sep` (empty fields preserved; an
/// empty input yields one empty field).
inline std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t at = s.find(sep, start);
    if (at == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, at - start));
    start = at + 1;
  }
  return out;
}

/// Strict unsigned parse: the whole token must be digits of `base`
/// (a leading '-' is rejected rather than wrapped around).
inline StatusOr<uint64_t> ParseU64(const std::string& s, int base = 10) {
  if (s.empty()) return Status::InvalidArgument("empty number");
  if (s[0] == '-' || s[0] == '+') {
    return Status::InvalidArgument("bad number '" + s + "'");
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, base);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad number '" + s + "'");
  }
  return static_cast<uint64_t>(v);
}

}  // namespace pcx

#endif  // PCX_COMMON_TEXT_H_
