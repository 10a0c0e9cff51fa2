#ifndef PCX_ENGINE_ENGINE_H_
#define PCX_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/backend.h"
#include "engine/local_backend.h"
#include "engine/query_builder.h"
#include "serve/sharded_solver.h"

namespace pcx {

/// The single entry point to bounding, whatever the execution substrate:
///
///   PCX_ASSIGN_OR_RETURN(Engine eng, Engine::Open("local:sensors.pcset"));
///   PCX_ASSIGN_OR_RETURN(Engine eng, Engine::Open("snapshot:v7.pcxsnap?shards=8"));
///   PCX_ASSIGN_OR_RETURN(Engine eng, Engine::Open("tcp:127.0.0.1:7070"));
///   PCX_ASSIGN_OR_RETURN(Engine eng,
///       Engine::Open("failover:tcp:10.0.0.1:7070|tcp:10.0.0.2:7070"));
///
/// URI grammar: `scheme:body[?key=value&key=value]`.
///
///   local:<pcset-path>        in-process unsharded PcBoundSolver
///                             params: int=0,1  (integer attribute indices)
///   snapshot:<pcxsnap-path>   in-process ShardedBoundSolver over the
///                             snapshot's stored shards
///                             params: shards=K (repartition to K shards),
///                             strategy=range|roundrobin, threads=N
///   tcp:<host>:<port>         RemoteBackend speaking the pcx_serve
///                             line protocol
///   failover:<uri>|<uri>|...  FailoverBackend: answers from one live
///                             candidate, falling over to the next when
///                             it dies (first is the primary)
///
/// An Engine is a cheap copyable handle (shared backend ownership);
/// Bound/BoundBatch/... forward to the backend, and the QueryBuilder
/// overloads resolve column names against the engine's attribute count.
/// In-memory constraint sets skip URIs entirely via Engine::Local /
/// Engine::Sharded.
class Engine {
 public:
  struct Options {
    /// Attribute domains for pcset-file sources (snapshots carry their
    /// own); a `?int=` URI parameter overrides this.
    std::vector<AttrDomain> domains;
    /// Backend configuration for "local:" URIs.
    LocalBackend::Options local;
    /// Backend configuration for "snapshot:" URIs (its `solver` member
    /// is the per-shard solver configuration). URI parameters override
    /// the partition/threads fields.
    ShardedBoundSolver::Options sharded;
  };

  /// Empty handle; valid() is false and every query fails. Assign from
  /// Open/Local/... before use.
  Engine() = default;

  static StatusOr<Engine> Open(const std::string& uri, Options options = {});

  static Engine Local(PredicateConstraintSet pcs,
                      std::vector<AttrDomain> domains = {},
                      LocalBackend::Options options = {});
  static Engine Sharded(PredicateConstraintSet pcs,
                        std::vector<AttrDomain> domains,
                        ShardedBoundSolver::Options options = {});
  static Engine FromBackend(std::shared_ptr<BoundBackend> backend);

  bool valid() const { return backend_ != nullptr; }
  /// The wrapped backend (never null on a valid engine).
  const std::shared_ptr<BoundBackend>& backend() const { return backend_; }

  std::string name() const;
  size_t num_attrs() const;

  StatusOr<ResultRange> Bound(const AggQuery& query) const;
  std::vector<StatusOr<ResultRange>> BoundBatch(
      std::span<const AggQuery> queries) const;
  StatusOr<std::vector<GroupRange>> BoundGroupBy(
      const AggQuery& query, size_t group_attr,
      const std::vector<double>& group_values) const;
  StatusOr<EngineStats> Stats() const;
  StatusOr<uint64_t> Epoch() const;
  /// Liveness: succeeds on a reachable-but-empty backend (see
  /// HealthInfo).
  StatusOr<HealthInfo> Health() const;

  /// QueryBuilder front door: builds against num_attrs() and runs.
  StatusOr<ResultRange> Bound(const QueryBuilder& query) const;
  StatusOr<std::vector<GroupRange>> BoundGroupBy(
      const QueryBuilder& query) const;

 private:
  explicit Engine(std::shared_ptr<BoundBackend> backend)
      : backend_(std::move(backend)) {}

  std::shared_ptr<BoundBackend> backend_;
};

}  // namespace pcx

#endif  // PCX_ENGINE_ENGINE_H_
