#ifndef E2EBENCH_WIRE_H_
#define E2EBENCH_WIRE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "pc/query.h"
#include "relation/aggregate.h"

namespace e2e {

/// "BOUND <AGG> <attr> {box}" for `query` (a WHERE is required).
std::string FormatBound(const pcx::AggQuery& query);

/// The server's reply body for a range, "RANGE lo=... hi=... ...",
/// without the newline: the byte string every served RANGE must equal.
std::string FormatRange(const pcx::ResultRange& range);

/// One reply line of the pcx_serve line protocol, split into its verb
/// and its key=value fields.
struct Reply {
  enum class Kind { kRange, kOk, kErr, kStats, kOther };
  Kind kind = Kind::kOther;
  std::string code;  ///< kErr: the status code name ("UNAVAILABLE")
  std::map<std::string, std::string, std::less<>> fields;

  /// The field parsed as an unsigned integer; false when absent or not
  /// a plain decimal number.
  bool U64(std::string_view key, uint64_t* out) const;
};

/// Parses one reply line (trailing '\r' / '\n' ignored).
Reply ParseReply(std::string_view line);

/// A served read is correct only when it is byte-identical to the
/// in-process reference line.
bool CheckRead(std::string_view reply, std::string_view expected);

/// An APPEND/RETIRE reply is correct when it is OK and names the epoch
/// and the constraint count the cycle must have reached.
bool CheckMutation(std::string_view reply, uint64_t epoch, uint64_t pcs);

/// True when `range` (the answer to `agg` over a WHERE region) encloses
/// the true aggregate of the missing rows in that region. Endpoints get
/// a relative slack of 1e-9, the tolerance the repository's own bound
/// tests use. When no missing row matches, COUNT/SUM must admit 0 and
/// AVG/MIN/MAX must admit the empty instance.
bool Encloses(const pcx::ResultRange& range, pcx::AggFunc agg,
              const pcx::AggregateResult& truth);

}  // namespace e2e

#endif  // E2EBENCH_WIRE_H_
