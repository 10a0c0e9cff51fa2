#include "wire.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "pc/serialization.h"
#include "serve/server.h"

namespace e2e {

std::string FormatBound(const pcx::AggQuery& query) {
  return std::string("BOUND ") + pcx::AggFuncToString(query.agg) + " " +
         std::to_string(query.attr) + " " +
         pcx::SerializeBox(query.where->box());
}

std::string FormatRange(const pcx::ResultRange& range) {
  std::ostringstream out;
  pcx::PrintResultRange(out, "RANGE ", range);
  std::string line = out.str();
  while (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

bool Reply::U64(std::string_view key, uint64_t* out) const {
  const auto it = fields.find(key);
  if (it == fields.end() || it->second.empty()) return false;
  uint64_t v = 0;
  for (const char c : it->second) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

Reply ParseReply(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  Reply reply;
  std::vector<std::string_view> tokens;
  size_t pos = 0;
  while (pos < line.size()) {
    const size_t end = std::min(line.find(' ', pos), line.size());
    if (end > pos) tokens.push_back(line.substr(pos, end - pos));
    pos = end + 1;
  }
  if (tokens.empty()) return reply;
  const std::string_view verb = tokens[0];
  if (verb == "RANGE") {
    reply.kind = Reply::Kind::kRange;
  } else if (verb == "OK") {
    reply.kind = Reply::Kind::kOk;
  } else if (verb == "STATS") {
    reply.kind = Reply::Kind::kStats;
  } else if (verb == "ERR") {
    reply.kind = Reply::Kind::kErr;
    if (tokens.size() > 1) reply.code = std::string(tokens[1]);
    return reply;
  } else {
    return reply;
  }
  for (size_t i = 1; i < tokens.size(); ++i) {
    const size_t eq = tokens[i].find('=');
    if (eq == std::string_view::npos) continue;
    reply.fields.emplace(std::string(tokens[i].substr(0, eq)),
                         std::string(tokens[i].substr(eq + 1)));
  }
  return reply;
}

bool CheckRead(std::string_view reply, std::string_view expected) {
  while (!reply.empty() && (reply.back() == '\n' || reply.back() == '\r')) {
    reply.remove_suffix(1);
  }
  return reply == expected;
}

bool CheckMutation(std::string_view reply, uint64_t epoch, uint64_t pcs) {
  const Reply parsed = ParseReply(reply);
  uint64_t got_epoch = 0, got_pcs = 0;
  return parsed.kind == Reply::Kind::kOk && parsed.U64("epoch", &got_epoch) &&
         parsed.U64("pcs", &got_pcs) && got_epoch == epoch && got_pcs == pcs;
}

bool Encloses(const pcx::ResultRange& range, pcx::AggFunc agg,
              const pcx::AggregateResult& truth) {
  const bool additive =
      agg == pcx::AggFunc::kCount || agg == pcx::AggFunc::kSum;
  if (truth.num_rows == 0 && !additive) {
    return range.empty_instance_possible || !range.defined;
  }
  if (!additive && !range.defined) return false;
  const double v = truth.num_rows == 0 ? 0.0 : truth.value;
  const double slack = 1e-9 * std::max(1.0, std::fabs(v));
  return range.lo - slack <= v && v <= range.hi + slack;
}

}  // namespace e2e
