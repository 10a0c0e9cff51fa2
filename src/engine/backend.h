#ifndef PCX_ENGINE_BACKEND_H_
#define PCX_ENGINE_BACKEND_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "pc/group_by.h"
#include "pc/query.h"

namespace pcx {

/// Uniform serving counters reported by every backend. Local and
/// sharded backends fill these from their in-process solvers; the
/// remote backend parses them out of the server's STATS reply — the
/// fields therefore mirror the STATS line of the pcx_serve protocol.
struct EngineStats {
  uint64_t epoch = 0;
  size_t num_shards = 1;
  size_t num_pcs = 0;
  size_t num_attrs = 0;
  size_t queries = 0;
  /// Solver-side work counters, summed over all queries answered.
  size_t num_cells = 0;
  size_t sat_calls = 0;
  size_t sat_cache_hits = 0;
  size_t milp_nodes = 0;
  size_t lp_solves = 0;
  size_t lp_pivots = 0;
  /// Event-loop transport counters (zero for in-process backends and
  /// for servers answering on stdio).
  size_t queue_depth = 0;
  size_t queue_high_water = 0;
  size_t coalesced_batches = 0;
  size_t coalesced_requests = 0;
  size_t max_coalesced_batch = 0;
  size_t overload_rejections = 0;
};

/// One replica's liveness snapshot — the HEALTH protocol verb's typed
/// shape. Unlike Stats/queries, health checks succeed on a server that
/// has no snapshot loaded yet (`loaded == false`): "up but empty" and
/// "down" are different operational states, and a rolling-reload
/// orchestrator needs to tell them apart.
struct HealthInfo {
  bool loaded = false;
  uint64_t epoch = 0;
  size_t num_shards = 0;
  size_t num_pcs = 0;
  /// Seconds the serving process has been up (0 for in-process
  /// backends, which have no server process).
  uint64_t uptime_seconds = 0;
  /// Protocol sessions the server has accepted (0 for in-process).
  uint64_t sessions = 0;
  /// Protocol requests the server has handled (0 for in-process).
  uint64_t requests = 0;
  /// True when the server is a read-only replica tailing a primary.
  bool replica = false;
  /// The primary's last reported epoch (replicas only; 0 otherwise).
  uint64_t primary_epoch = 0;
  /// Epochs this replica is behind its primary (0 when caught up or
  /// not a replica).
  uint64_t replication_lag = 0;
};

/// The one logical operation of the paper — "bound this aggregate under
/// these predicate constraints" — behind one interface, however the
/// bounding is physically executed: in process (LocalBackend), across
/// shards (ShardedBackend), on another machine speaking the pcx_serve
/// protocol (RemoteBackend), or on whichever of N replicas is alive
/// (FailoverBackend). Everything a caller can observe is defined by the
/// unsharded PcBoundSolver over the same constraint set at the same
/// epoch: conforming backends return *bit-identical* ResultRanges and
/// the same typed StatusCodes, which is what makes a replica a drop-in
/// for its primary (backend_equivalence_test checks it).
///
/// Backends are internally synchronized: concurrent calls from several
/// threads are safe on every implementation (the remote backend
/// serializes them onto its single protocol session).
class BoundBackend {
 public:
  virtual ~BoundBackend() = default;

  /// Display name, e.g. "local", "sharded:4", "tcp:127.0.0.1:7070".
  virtual std::string name() const = 0;

  /// Attribute count of the served constraint set (0 when unknown, e.g.
  /// a remote server with no snapshot loaded yet).
  virtual size_t num_attrs() const = 0;

  /// Computes the result range of `query` over the missing rows.
  virtual StatusOr<ResultRange> Bound(const AggQuery& query) = 0;

  /// Bounds a whole workload, results in input order, element-wise
  /// identical to calling Bound in a loop. The default does exactly
  /// that loop; in-process backends override it with their parallel
  /// batch paths (which preserve bit-identity by construction).
  virtual std::vector<StatusOr<ResultRange>> BoundBatch(
      std::span<const AggQuery> queries);

  /// GROUP BY fan-out: one range per value of `group_values`, each the
  /// answer to `query` with `group_attr == value` conjoined onto the
  /// WHERE clause (pc/group_by semantics on every backend).
  virtual StatusOr<std::vector<GroupRange>> BoundGroupBy(
      const AggQuery& query, size_t group_attr,
      const std::vector<double>& group_values) = 0;

  /// Cumulative serving counters since construction (remote: since the
  /// server started — counters are server-side and shared by clients).
  virtual StatusOr<EngineStats> Stats() = 0;

  /// Constraint-set version. Two backends at the same epoch answer
  /// every query bit-identically.
  virtual StatusOr<uint64_t> Epoch() = 0;

  /// Liveness check that never requires a loaded constraint set. The
  /// default derives it from Stats() (mapping the pre-LOAD
  /// kFailedPrecondition to `loaded == false`); RemoteBackend overrides
  /// it with the HEALTH wire verb.
  virtual StatusOr<HealthInfo> Health();

  /// Sends one pcx_serve protocol line with a single-line reply (LOAD,
  /// APPEND, RETIRE, CHECKPOINT, TRACE, STATS, HEALTH) to the serving
  /// process and returns the server's reply line unchanged; an ERR
  /// reply comes back as its typed Status. The default is
  /// kUnimplemented: in-process backends have no server to ask.
  virtual StatusOr<std::string> Command(const std::string& line);

  /// The METRICS wire verb: the serving process's Prometheus text
  /// exposition (newline-terminated lines, no counted header). The
  /// default is kUnimplemented: in-process backends have no server
  /// registry.
  virtual StatusOr<std::string> Metrics();
};

/// True iff the two ranges are indistinguishable to any observer,
/// including the sign of zero ("MIN = -0.0" must survive a replica
/// comparison and a wire round-trip). This is the equality the
/// cross-backend tests assert.
bool BitIdenticalRanges(const ResultRange& a, const ResultRange& b);

}  // namespace pcx

#endif  // PCX_ENGINE_BACKEND_H_
