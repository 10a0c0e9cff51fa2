#ifndef PCX_SERVE_SHARDED_SOLVER_H_
#define PCX_SERVE_SHARDED_SOLVER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/statusor.h"
#include "pc/bound_solver.h"
#include "pc/group_by.h"
#include "route/route_index.h"
#include "route/shard_mask.h"
#include "serve/delta_log.h"
#include "serve/partitioner.h"
#include "serve/snapshot.h"

namespace pcx {

/// Serves aggregate bounds from a predicate-constraint set partitioned
/// across up to 64 shards, each owned by its own PcBoundSolver.
///
/// Guarantee: every answer is *bit-identical* to the unsharded
/// PcBoundSolver over the same set (same constraint order, same
/// options), for Bound, BoundBatch, and the group-by path. This follows
/// from two invariants rather than from floating-point luck:
///
///  1. The partitioner assigns whole predicate-overlap components, so
///     predicates of different shards never intersect.
///  2. A query is answered by the solver over the *union of relevant
///     shards* (those owning a predicate that can intersect the WHERE
///     region), assembled in global constraint order. Constraints
///     outside that union cannot intersect the query region, and the
///     unsharded pipeline provably ignores them: the decomposition DFS
///     prunes them geometrically before any SAT call, their MILP rows
///     are empty and dropped, and the greedy fast path skips them — so
///     the union solver performs literally the same arithmetic as the
///     unsharded one.
///
/// Under a partitioned workload (the paper's Fig. 8 setting) almost
/// every query routes to a single shard, turning the per-query O(n)
/// constraint scan into O(n/K); union solvers for shard-spanning
/// queries are built once and memoized. Batches and group-bys fan the
/// per-query routing across a ThreadPool.
///
/// Every BOUND takes one path: RouteMask (the compiled hull index plus
/// each shard's member index) -> SolverFor(mask) -> BoundWithStats.
class ShardedBoundSolver {
 public:
  struct Options {
    /// How to cut the set; used by the (pcs, domains) constructor. The
    /// snapshot constructor takes the shards as stored.
    PartitionOptions partition;
    /// Per-shard solver configuration. auto_disjoint_fast_path is
    /// force-disabled on the shard solvers when the *whole* set is not
    /// disjoint, so a shard whose subset happens to be disjoint still
    /// runs the exact same code path as the unsharded solver.
    PcBoundSolver::Options solver;
    /// Fan-out width for BoundBatch / BoundGroupBy (0 = hardware
    /// concurrency, 1 = sequential).
    size_t num_threads = 0;
    /// Where the solver counts (queries by fan-out, the SolveStats work
    /// profile, union solvers built) and times (per-shard solve latency,
    /// the input signal for skew-aware repartitioning). Must outlive the
    /// solver and every ApplyDeltas successor. nullptr = a registry the
    /// solver owns and shares with its ApplyDeltas successors.
    MetricsRegistry* metrics = nullptr;
  };

  /// Serving counters read from the registry: cumulative over every
  /// solver counting into it (in a server, every epoch's solver).
  struct ServeStats {
    size_t queries = 0;               ///< sum of the three below
    size_t single_shard_queries = 0;  ///< routed to exactly one shard
    size_t multi_shard_queries = 0;   ///< needed a union of >= 2 shards
    size_t no_shard_queries = 0;      ///< WHERE hits no predicate, or invalid
    size_t union_solvers_built = 0;   ///< distinct shard unions memoized
    PcBoundSolver::SolveStats solve;  ///< summed over all queries
  };

  /// Per-query routing diagnostics, filled by the Bound(query, route)
  /// overload and BoundBatch's per-query vector — what the slow-query
  /// log renders as `shards=K`.
  struct RouteInfo {
    uint32_t shards = 0;  ///< routed fan-out (pre no-shard fallback)
  };

  ShardedBoundSolver(PredicateConstraintSet pcs,
                     std::vector<AttrDomain> domains);
  ShardedBoundSolver(PredicateConstraintSet pcs,
                     std::vector<AttrDomain> domains, Options options);
  /// Adopts a snapshot's shards (and epoch) as the partition.
  explicit ShardedBoundSolver(const Snapshot& snapshot);
  ShardedBoundSolver(const Snapshot& snapshot, Options options);

  /// Applies an ordered run of delta-log records (epochs must be
  /// contiguous from epoch()+1) and returns a *new* solver at the final
  /// epoch, leaving this one untouched — the shape the server's atomic
  /// snapshot swap wants. Only shards whose membership the deltas
  /// disturb are re-decomposed: an APPEND lands on the shard(s) whose
  /// predicates it overlaps (merging shards when it bridges several, so
  /// overlap components stay whole per shard — the invariant the
  /// bit-identity guarantee rests on), a RETIRE touches just the
  /// owner's shard, and every untouched shard's solver is shared with
  /// the new instance. The overlap-component structure is maintained
  /// incrementally (a union-find seeded from Partition::component_of),
  /// so appends never rescan the set the way a reload does; a retire
  /// out of a multi-member component re-splits just that component
  /// with route::ForEachIntersectingPair over its surviving members.
  /// A run containing a CHECKPOINT instead re-partitions the final set
  /// from scratch (at the current shard width): shards merged by bridge
  /// appends and hulls left stale by retires are recomputed tight, so
  /// post-checkpoint routing selectivity matches a fresh LOAD.
  /// Answers from the result are bit-identical to a from-scratch
  /// solver over the same post-delta set and layout either way —
  /// answers are assembled in global constraint order, which no
  /// re-partition changes.
  StatusOr<std::shared_ptr<const ShardedBoundSolver>> ApplyDeltas(
      std::span<const DeltaRecord> records) const;

  /// The current set/layout/epoch as a serializable snapshot (what
  /// CHECKPOINT persists as the new delta-log base).
  Snapshot ToSnapshot() const {
    return MakeSnapshot(flat_, domains_, partition_, epoch_);
  }

  /// `route`, when non-null, receives the routing diagnostics.
  StatusOr<ResultRange> Bound(const AggQuery& query,
                              RouteInfo* route = nullptr) const;

  /// Routes and solves every query, fanned across the thread pool;
  /// results are in input order and bit-identical to calling Bound in a
  /// loop. `per_query_stats` mirrors PcBoundSolver::BoundBatch;
  /// `per_query_route`, when non-null, receives one RouteInfo per
  /// query.
  std::vector<StatusOr<ResultRange>> BoundBatch(
      std::span<const AggQuery> queries,
      std::vector<PcBoundSolver::SolveStats>* per_query_stats = nullptr,
      std::vector<RouteInfo>* per_query_route = nullptr) const;

  /// GROUP BY fan-out: one routed sub-query per group value (built by
  /// MakeGroupByQueries, byte-identical to pc/group_by's). Under a
  /// range-partitioned set the groups land on different shards.
  StatusOr<std::vector<GroupRange>> BoundGroupBy(
      const AggQuery& query, size_t group_attr,
      const std::vector<double>& group_values) const;

  size_t num_shards() const { return shards_.size(); }
  /// The full set in global order (what the answers are defined over).
  const PredicateConstraintSet& constraints() const { return flat_; }
  const std::vector<AttrDomain>& domains() const { return domains_; }
  const Partition& partition() const { return partition_; }
  uint64_t epoch() const { return epoch_; }

  /// A lock-free read of the registry series (see ServeStats).
  ServeStats stats() const;

  /// Bitmask of shards owning a predicate that can intersect the query
  /// region (all non-empty shards when there is no WHERE). Degenerate
  /// empty-box predicates are treated as always relevant so the union
  /// keeps every constraint the unsharded solver would act on.
  /// Stabs the compiled hull index with the WHERE box and confirms each
  /// candidate shard via its member index; always bit-identical to
  /// RouteMaskLinear.
  ShardMask RouteMask(const AggQuery& query) const;
  /// The O(n) hull-then-member scan RouteMask was compiled from: the
  /// reference the routing tests and bench compare against. Never on
  /// the serving path.
  ShardMask RouteMaskLinear(const AggQuery& query) const;

  /// Aggregate shape of every compiled index (the hull index plus each
  /// shard solver's member index): what STATS/METRICS surface as
  /// route_nodes / route_depth.
  route::RouteIndexStats RouteIndexTotals() const;

 private:
  struct Shard {
    std::vector<size_t> indices;  ///< global PC ids, ascending
    /// Shared (not unique) so ApplyDeltas can hand an untouched shard's
    /// solver to the successor instance without rebuilding it.
    std::shared_ptr<const PcBoundSolver> solver;
    /// Conservative hull of the shard's predicate boxes (closed
    /// bounds): if the query region misses it, it misses every member —
    /// the routing fast path that keeps RouteMask O(K) for shard-local
    /// queries instead of O(n).
    Box bbox;
    bool always_relevant = false;  ///< owns a degenerate empty-box PC
    /// Solve-latency histogram for this shard, resolved once in
    /// BuildShards. The registry owns the histogram; the pointer is a
    /// stable cache.
    Histogram* solve_hist = nullptr;
  };

  /// Tag + constructor for ApplyDeltas: adopts a prepared set/layout
  /// (partition metadata included) and reuses the given per-shard
  /// solvers where non-null.
  struct IncrementalTag {};
  ShardedBoundSolver(
      IncrementalTag, PredicateConstraintSet flat,
      std::vector<AttrDomain> domains, Options configured,
      std::shared_ptr<MetricsRegistry> owned_metrics, Partition partition,
      uint64_t epoch,
      const std::vector<std::shared_ptr<const PcBoundSolver>>& reuse);

  /// `reuse`, when non-null, supplies a prebuilt solver per shard
  /// (null entry = build from scratch); indices/hull/always_relevant
  /// are recomputed either way.
  void BuildShards(
      const std::vector<std::shared_ptr<const PcBoundSolver>>* reuse =
          nullptr);

  /// Solver over the union of the masked shards, memoized up to
  /// kMaxUnionSolvers entries (then the memo is flushed — shared
  /// ownership keeps solvers handed to in-flight queries alive across
  /// a flush). Mask 0 maps to an (empty-set) solver; the all-shards
  /// mask is the full set. Single-shard masks alias the prebuilt shard
  /// solver without touching the cache.
  std::shared_ptr<const PcBoundSolver> SolverFor(ShardMask mask) const;

  /// Cap on memoized union solvers: each entry owns a constraint-set
  /// copy, a route index and (if enabled) a persistent SAT cache, so a
  /// long-lived server must not accumulate one per distinct mask
  /// forever.
  static constexpr size_t kMaxUnionSolvers = 256;

  /// Routing + solving of one query; thread-safe, stats via out-params.
  /// `route` receives the routing diagnostics.
  StatusOr<ResultRange> BoundOne(const AggQuery& query,
                                 PcBoundSolver::SolveStats& stats,
                                 RouteInfo& route) const;

  /// Adds a batch's queries and summed work profile, once per series.
  void CountQueries(std::span<const RouteInfo> routes,
                    const PcBoundSolver::SolveStats& solve) const;

  PredicateConstraintSet flat_;
  std::vector<AttrDomain> domains_;
  /// The registry options_.metrics points at when the caller gave none.
  std::shared_ptr<MetricsRegistry> owned_metrics_;
  Options options_;
  /// The caller's options before BuildShards imposes the disjointness
  /// verdict on options_.solver; ApplyDeltas starts the successor from
  /// these so a verdict change re-derives instead of compounding.
  Options configured_options_;
  Partition partition_;
  uint64_t epoch_ = 0;
  /// Disjointness of the *full* set; inherited by every shard/union
  /// solver so their code paths match the unsharded solver's.
  bool flat_disjoint_ = false;
  std::vector<Shard> shards_;
  std::vector<char> always_relevant_;  ///< per global PC: empty pred box
  /// Latency of solves that needed a union of >= 2 shards
  /// (shard="union" series).
  Histogram* union_solve_hist_ = nullptr;

  /// The compiled hull-level index: one box per *non-empty* shard (its
  /// closed-bound hull), rebuilt by BuildShards on the pinned set.
  /// hull_shard_[id] maps an index id back to the shard it hulls.
  /// Member-level confirmation reuses each shard solver's own
  /// PcBoundSolver::route_index(), so an untouched shard's member index
  /// survives ApplyDeltas together with its solver.
  std::unique_ptr<const route::RouteIndex> hull_index_;
  std::vector<uint32_t> hull_shard_;
  ShardMask nonempty_mask_ = 0;  ///< shards with at least one member
  ShardMask always_mask_ = 0;    ///< non-empty shards, always_relevant
  /// Registry-backed per-query fan-out histogram.
  Histogram* route_fanout_hist_ = nullptr;

  /// Registry counters behind stats(), resolved once in BuildShards.
  std::array<Counter*, 3> queries_by_fanout_{};  ///< 0, 1, >= 2 shards
  Counter* union_solvers_built_ = nullptr;
  /// One per counted SolveStats field, in kSolveFields order (.cc).
  std::array<Counter*, 6> solve_counters_{};

  /// Guards the union-solver memo; building a missing union solver
  /// holds it for a full solver construction.
  mutable Mutex cache_mu_;
  mutable std::unordered_map<ShardMask, std::shared_ptr<const PcBoundSolver>>
      union_cache_ GUARDED_BY(cache_mu_);
};

}  // namespace pcx

#endif  // PCX_SERVE_SHARDED_SOLVER_H_
