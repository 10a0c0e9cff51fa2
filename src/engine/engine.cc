#include "engine/engine.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/text.h"
#include "engine/failover_backend.h"
#include "engine/remote_backend.h"
#include "engine/sharded_backend.h"
#include "pc/serialization.h"
#include "serve/partitioner.h"
#include "serve/snapshot.h"

namespace pcx {

namespace {

constexpr const char* kSchemes = "local:/snapshot:/tcp:/failover:";

struct UriBody {
  std::string path;
  std::vector<std::pair<std::string, std::string>> params;
};

/// Splits "body?k=v&k=v" into path + params (no unescaping; the pcx
/// URI vocabulary needs none).
StatusOr<UriBody> SplitParams(const std::string& body) {
  UriBody out;
  const size_t q = body.find('?');
  out.path = body.substr(0, q);
  if (q == std::string::npos) return out;
  for (const std::string& part : SplitOn(body.substr(q + 1), '&')) {
    if (part.empty()) continue;
    const size_t eq = part.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("bad URI parameter '" + part +
                                     "' (want key=value)");
    }
    out.params.emplace_back(part.substr(0, eq), part.substr(eq + 1));
  }
  return out;
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// "0,2,5" -> integer-domain flags applied over `num_attrs` attributes.
StatusOr<std::vector<AttrDomain>> ParseIntAttrs(const std::string& value,
                                                size_t num_attrs) {
  std::vector<AttrDomain> domains(num_attrs, AttrDomain::kContinuous);
  for (const std::string& part : SplitOn(value, ',')) {
    if (part.empty()) continue;
    const StatusOr<uint64_t> attr = ParseU64(TrimWhitespace(part));
    if (!attr.ok() || *attr >= num_attrs) {
      return Status::InvalidArgument("int= entry '" + part +
                                     "' is not a valid attribute index");
    }
    domains[static_cast<size_t>(*attr)] = AttrDomain::kInteger;
  }
  return domains;
}

StatusOr<Engine> OpenLocal(const UriBody& body, Engine::Options options) {
  if (body.path.empty()) {
    return Status::InvalidArgument(
        "local: URI needs a pcset path (local:<path>); for in-memory sets "
        "use Engine::Local");
  }
  PCX_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(body.path));
  PCX_ASSIGN_OR_RETURN(PredicateConstraintSet pcs, ParsePcSet(text));
  std::vector<AttrDomain> domains = std::move(options.domains);
  for (const auto& [key, value] : body.params) {
    if (key == "int") {
      PCX_ASSIGN_OR_RETURN(domains, ParseIntAttrs(value, pcs.num_attrs()));
    } else if (key == "threads") {
      PCX_ASSIGN_OR_RETURN(const uint64_t n, ParseU64(value));
      options.local.num_threads = static_cast<size_t>(n);
    } else {
      return Status::InvalidArgument("unknown local: URI parameter '" + key +
                                     "'");
    }
  }
  return Engine::Local(std::move(pcs), std::move(domains), options.local);
}

StatusOr<Engine> OpenSnapshot(const UriBody& body, Engine::Options options) {
  if (body.path.empty()) {
    return Status::InvalidArgument("snapshot: URI needs a path");
  }
  PCX_ASSIGN_OR_RETURN(Snapshot snap, LoadSnapshot(body.path));
  size_t reshard = 0;
  PartitionStrategy strategy = PartitionStrategy::kAttributeRange;
  bool strategy_given = false;
  for (const auto& [key, value] : body.params) {
    if (key == "shards") {
      PCX_ASSIGN_OR_RETURN(const uint64_t k, ParseU64(value));
      if (k == 0 || k > kMaxShards) {
        return Status::OutOfRange("shards= must be in 1.." +
                                  std::to_string(kMaxShards));
      }
      reshard = static_cast<size_t>(k);
    } else if (key == "strategy") {
      if (value == "range") {
        strategy = PartitionStrategy::kAttributeRange;
      } else if (value == "roundrobin") {
        strategy = PartitionStrategy::kRoundRobin;
      } else {
        return Status::InvalidArgument("unknown strategy '" + value +
                                       "' (want range|roundrobin)");
      }
      strategy_given = true;
    } else if (key == "threads") {
      PCX_ASSIGN_OR_RETURN(const uint64_t n, ParseU64(value));
      options.sharded.num_threads = static_cast<size_t>(n);
    } else {
      return Status::InvalidArgument("unknown snapshot: URI parameter '" +
                                     key + "'");
    }
  }
  // Repartition when the caller asked for a different width OR an
  // explicit strategy (an explicit strategy must never be silently
  // ignored). The snapshot's epoch is kept: same set + same epoch ⇒
  // answers stay bit-identical, only the physical cut changes.
  if ((reshard != 0 && reshard != snap.shards.size()) || strategy_given) {
    const size_t width = reshard != 0 ? reshard : snap.shards.size();
    const PredicateConstraintSet flat = snap.Flatten();
    const Partition partition =
        PartitionPcSet(flat, snap.domains, {width, strategy});
    snap = MakeSnapshot(flat, snap.domains, partition, snap.epoch);
  }
  return Engine::FromBackend(
      std::make_shared<ShardedBackend>(snap, options.sharded));
}

StatusOr<Engine> OpenTcp(const std::string& body) {
  PCX_ASSIGN_OR_RETURN(const UriBody parsed, SplitParams(body));
  const size_t colon = parsed.path.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    return Status::InvalidArgument("tcp: URI must be tcp:<host>:<port>");
  }
  const std::string host = parsed.path.substr(0, colon);
  const StatusOr<uint64_t> port = ParseU64(parsed.path.substr(colon + 1));
  if (!port.ok() || *port == 0 || *port > 65535) {
    return Status::InvalidArgument("bad port in tcp: URI '" + body + "'");
  }
  RemoteBackend::RetryPolicy retry;
  for (const auto& [key, value] : parsed.params) {
    if (key == "retry") {
      PCX_ASSIGN_OR_RETURN(const uint64_t n, ParseU64(value));
      retry.max_retries = static_cast<size_t>(n);
    } else if (key == "retry_ms") {
      PCX_ASSIGN_OR_RETURN(const uint64_t ms, ParseU64(value));
      retry.backoff_ms = static_cast<uint32_t>(ms);
    } else if (key == "retry_cap_ms") {
      PCX_ASSIGN_OR_RETURN(const uint64_t ms, ParseU64(value));
      retry.max_backoff_ms = static_cast<uint32_t>(ms);
    } else if (key == "retry_seed") {
      PCX_ASSIGN_OR_RETURN(retry.jitter_seed, ParseU64(value));
    } else {
      return Status::InvalidArgument("unknown tcp: URI parameter '" + key +
                                     "'");
    }
  }
  PCX_ASSIGN_OR_RETURN(
      std::unique_ptr<RemoteBackend> backend,
      RemoteBackend::Connect(host, static_cast<uint16_t>(*port)));
  backend->set_retry_policy(retry);
  return Engine::FromBackend(std::move(backend));
}

StatusOr<Engine> OpenFailover(const std::string& body,
                              const Engine::Options& options) {
  std::vector<std::string> uris;
  for (const std::string& part : SplitOn(body, '|')) {
    if (!part.empty()) uris.push_back(part);
  }
  if (uris.empty()) {
    return Status::InvalidArgument(
        "failover: URI needs at least one candidate URI "
        "(failover:<primary>|<replica>)");
  }
  // Candidates open lazily inside the backend (a dead replica must not
  // fail construction), so validate the schemes eagerly here — a typo'd
  // URI should fail at Open time, not at first query.
  for (const std::string& uri : uris) {
    const size_t colon = uri.find(':');
    const std::string scheme =
        colon == std::string::npos ? "" : uri.substr(0, colon);
    if (scheme != "local" && scheme != "snapshot" && scheme != "tcp") {
      return Status::InvalidArgument("failover: candidate '" + uri +
                                     "' has no usable scheme (want " +
                                     std::string(kSchemes) + ")");
    }
  }
  FailoverBackend::Opener opener =
      [options](const std::string& uri) -> StatusOr<std::shared_ptr<BoundBackend>> {
    PCX_ASSIGN_OR_RETURN(Engine engine, Engine::Open(uri, options));
    return engine.backend();
  };
  return Engine::FromBackend(std::make_shared<FailoverBackend>(
      std::move(uris), std::move(opener)));
}

}  // namespace

StatusOr<Engine> Engine::Open(const std::string& uri, Options options) {
  const size_t colon = uri.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("engine URI '" + uri +
                                   "' has no scheme (want " + kSchemes + ")");
  }
  const std::string scheme = uri.substr(0, colon);
  const std::string body = uri.substr(colon + 1);
  if (scheme == "tcp") return OpenTcp(body);
  if (scheme == "failover") return OpenFailover(body, options);
  PCX_ASSIGN_OR_RETURN(const UriBody parsed, SplitParams(body));
  if (scheme == "local") return OpenLocal(parsed, std::move(options));
  if (scheme == "snapshot") return OpenSnapshot(parsed, std::move(options));
  return Status::InvalidArgument("unknown engine URI scheme '" + scheme +
                                 ":' (want " + kSchemes + ")");
}

Engine Engine::Local(PredicateConstraintSet pcs,
                     std::vector<AttrDomain> domains,
                     LocalBackend::Options options) {
  return Engine(std::make_shared<LocalBackend>(std::move(pcs),
                                               std::move(domains), options));
}

Engine Engine::Sharded(PredicateConstraintSet pcs,
                       std::vector<AttrDomain> domains,
                       ShardedBoundSolver::Options options) {
  return Engine(std::make_shared<ShardedBackend>(std::move(pcs),
                                                 std::move(domains), options));
}

Engine Engine::FromBackend(std::shared_ptr<BoundBackend> backend) {
  return Engine(std::move(backend));
}

namespace {
Status NoBackend() {
  return Status::FailedPrecondition(
      "empty Engine handle (construct via Engine::Open)");
}
}  // namespace

std::string Engine::name() const {
  return backend_ ? backend_->name() : "empty";
}

size_t Engine::num_attrs() const {
  return backend_ ? backend_->num_attrs() : 0;
}

StatusOr<ResultRange> Engine::Bound(const AggQuery& query) const {
  if (!backend_) return NoBackend();
  return backend_->Bound(query);
}

std::vector<StatusOr<ResultRange>> Engine::BoundBatch(
    std::span<const AggQuery> queries) const {
  if (!backend_) {
    return std::vector<StatusOr<ResultRange>>(queries.size(), NoBackend());
  }
  return backend_->BoundBatch(queries);
}

StatusOr<std::vector<GroupRange>> Engine::BoundGroupBy(
    const AggQuery& query, size_t group_attr,
    const std::vector<double>& group_values) const {
  if (!backend_) return NoBackend();
  return backend_->BoundGroupBy(query, group_attr, group_values);
}

StatusOr<EngineStats> Engine::Stats() const {
  if (!backend_) return NoBackend();
  return backend_->Stats();
}

StatusOr<uint64_t> Engine::Epoch() const {
  if (!backend_) return NoBackend();
  return backend_->Epoch();
}

StatusOr<HealthInfo> Engine::Health() const {
  if (!backend_) return NoBackend();
  return backend_->Health();
}

StatusOr<ResultRange> Engine::Bound(const QueryBuilder& query) const {
  if (!backend_) return NoBackend();
  return query.BoundOn(*backend_);
}

StatusOr<std::vector<GroupRange>> Engine::BoundGroupBy(
    const QueryBuilder& query) const {
  if (!backend_) return NoBackend();
  return query.GroupsOn(*backend_);
}

}  // namespace pcx
