#include "engine/backend.h"

#include <cstring>

namespace pcx {

std::vector<StatusOr<ResultRange>> BoundBackend::BoundBatch(
    std::span<const AggQuery> queries) {
  std::vector<StatusOr<ResultRange>> out;
  out.reserve(queries.size());
  for (const AggQuery& q : queries) out.push_back(Bound(q));
  return out;
}

StatusOr<HealthInfo> BoundBackend::Health() {
  const StatusOr<EngineStats> stats = Stats();
  HealthInfo health;
  if (!stats.ok()) {
    // "Nothing loaded yet" is a healthy-but-empty replica, not a
    // failed health check; everything else propagates.
    if (stats.status().code() == StatusCode::kFailedPrecondition) {
      return health;
    }
    return stats.status();
  }
  health.loaded = true;
  health.epoch = stats->epoch;
  health.num_shards = stats->num_shards;
  health.num_pcs = stats->num_pcs;
  return health;
}

StatusOr<std::string> BoundBackend::Command(const std::string& line) {
  return Status::Unimplemented(
      line.substr(0, line.find(' ')) +
      " needs a served engine (tcp: or failover:); an in-process engine has "
      "no server. pcx_serve --snapshot=PATH serves the set and answers "
      "server verbs such as STATS and HEALTH on stdio");
}

StatusOr<std::string> BoundBackend::Metrics() {
  return Status::Unimplemented(
      "METRICS needs a served engine (tcp: or failover:); an in-process "
      "engine has no server registry");
}

bool BitIdenticalRanges(const ResultRange& a, const ResultRange& b) {
  return std::memcmp(&a.lo, &b.lo, sizeof(double)) == 0 &&
         std::memcmp(&a.hi, &b.hi, sizeof(double)) == 0 &&
         a.defined == b.defined &&
         a.empty_instance_possible == b.empty_instance_possible;
}

}  // namespace pcx
