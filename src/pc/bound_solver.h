#ifndef PCX_PC_BOUND_SOLVER_H_
#define PCX_PC_BOUND_SOLVER_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/covering_set.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/statusor.h"
#include "pc/cell_decomposition.h"
#include "pc/pc_set.h"
#include "pc/query.h"
#include "route/route_index.h"
#include "solver/milp.h"

namespace pcx {

/// Computes deterministic result ranges for aggregate queries over
/// missing rows described by a PredicateConstraintSet (paper §4).
///
/// Pipeline per query: (1) cell decomposition restricted to the query
/// predicate (Optimization 1), (2) per-cell value bounds from the
/// covering constraints, (3) a MILP allocating rows to cells under the
/// frequency constraints, solved by the built-in branch-and-bound.
/// SUM/COUNT are a single MILP; AVG runs Dinkelbach's ratio iteration
/// over the same MILP; MIN and MAX scan cell bounds with an occupancy
/// check. Lower ends (and MIN) reduce to upper ends over the same cells
/// with every value interval negated in place, [l, h] -> [-h, -l]; the
/// predicates and the WHERE are never negated. When the predicates are
/// pairwise disjoint, a greedy O(n) fast path replaces the
/// decomposition and the MILP entirely (paper §4.2, Fig. 8).
class PcBoundSolver {
 public:
  struct Options {
    DecompositionOptions decomposition;
    BranchAndBoundSolver::Options milp;
    /// Detect pairwise-disjoint predicates and use the greedy closed
    /// form for SUM/COUNT (skips decomposition + MILP).
    bool auto_disjoint_fast_path = true;
    /// Verify that a cell can actually receive >= 1 row before using
    /// its bound for MIN/MAX (one feasibility solve per scanned cell).
    bool check_cell_occupancy = true;
    /// Caller-supplied guarantee that the predicates are pairwise
    /// disjoint, skipping the overlap sweep (PredicatesDisjoint) that
    /// would otherwise run at construction (with auto_disjoint_fast_path
    /// on). Used by ShardedBoundSolver, which detects disjointness once
    /// on the full set and constructs many subset solvers: a subset of a
    /// disjoint set is disjoint. Asserting this for an overlapping set produces
    /// unsound bounds — leave it off unless the invariant is structural.
    bool assume_predicates_disjoint = false;
    /// Keep one SAT memo cache alive for the solver's whole lifetime
    /// instead of one per decomposition, so repeated queries against the
    /// same (e.g. snapshot-loaded) constraint set amortize their cell
    /// verification across decompositions. Verdicts are memoized by
    /// canonical cell expression, so results are unchanged — only
    /// sat_cache_hits grows. The shared checker is mutex-protected,
    /// which serializes the decomposition step (not the MILP) across
    /// BoundBatch workers; leave this off for one-shot batch workloads.
    bool persistent_sat_cache = false;
    /// Compile a route::RouteIndex over the predicate boxes at
    /// construction and use it to prune query-irrelevant PCs before
    /// cell decomposition (and inside the disjoint fast path). Pure
    /// traversal shortcut: bounds, cells, and sat_calls are
    /// bit-identical with it on or off — only nodes_visited (not
    /// reported in SolveStats) and wall-clock change.
    bool use_route_index = true;
  };

  /// Per-query diagnostics of the last Bound call (summed over the batch
  /// after BoundBatch).
  struct SolveStats {
    size_t num_cells = 0;
    size_t sat_calls = 0;
    size_t sat_cache_hits = 0;
    size_t milp_nodes = 0;
    size_t lp_solves = 0;
    size_t lp_pivots = 0;
    bool used_disjoint_fast_path = false;

    SolveStats& operator+=(const SolveStats& other) {
      num_cells += other.num_cells;
      sat_calls += other.sat_calls;
      sat_cache_hits += other.sat_cache_hits;
      milp_nodes += other.milp_nodes;
      lp_solves += other.lp_solves;
      lp_pivots += other.lp_pivots;
      used_disjoint_fast_path |= other.used_disjoint_fast_path;
      return *this;
    }
  };

  /// `domains` declares integer-valued attributes (see
  /// DomainsFromSchema).
  explicit PcBoundSolver(PredicateConstraintSet pcs,
                         std::vector<AttrDomain> domains = {});
  PcBoundSolver(PredicateConstraintSet pcs, std::vector<AttrDomain> domains,
                Options options);

  /// Computes the result range of `query` over the missing rows.
  StatusOr<ResultRange> Bound(const AggQuery& query) const;

  /// Like Bound, but writing the per-query diagnostics into `stats`
  /// instead of last_stats(). Unlike Bound (whose last_stats() update is
  /// a benign-looking but real write), this entry point mutates no
  /// solver state, so concurrent callers — e.g. a ShardedBoundSolver
  /// fanning different queries at the same shard — need no external
  /// locking.
  StatusOr<ResultRange> BoundWithStats(const AggQuery& query,
                                       SolveStats& stats) const;

  /// Bounds every query of `queries`, fanning them across `num_threads`
  /// worker threads (0 = hardware concurrency, 1 = inline sequential).
  /// Queries are independent, so results are *bit-identical* to calling
  /// Bound in a loop, in input order, at every thread count; only the
  /// wall-clock differs. When `per_query_stats` is non-null it receives
  /// one SolveStats per query; last_stats() holds the batch total.
  std::vector<StatusOr<ResultRange>> BoundBatch(
      std::span<const AggQuery> queries, size_t num_threads = 0,
      std::vector<SolveStats>* per_query_stats = nullptr) const;

  const PredicateConstraintSet& constraints() const { return pcs_; }
  const SolveStats& last_stats() const { return stats_; }
  const Options& options() const { return options_; }

  /// The compiled predicate-box index, or null when disabled / the set
  /// is empty. Consulted by ShardedBoundSolver for per-shard member
  /// routing, so one compilation serves dispatch at every layer.
  const route::RouteIndex* route_index() const { return route_index_.get(); }

 private:
  /// A decomposition cell reduced to what the MILP needs: the feasible
  /// value interval of the aggregate attribute and the covering PCs.
  struct CellBound {
    double val_lo = 0.0;
    double val_hi = 0.0;
    CoveringSet covering;
  };

  /// [val_lo, val_hi] -> [-val_hi, -val_lo] on every cell: an upper end
  /// over the negated cells is minus the lower end over `cells`.
  static void NegateValues(std::vector<CellBound>& cells);

  /// All query-scoped methods write their diagnostics into an explicit
  /// stats object so BoundBatch can run them concurrently from many
  /// threads against one (const) solver.

  /// Decomposes against the query predicate and computes per-cell value
  /// intervals on `attr`. Cells that cannot host any row are dropped.
  StatusOr<std::vector<CellBound>> BuildCells(const AggQuery& query,
                                              size_t attr,
                                              SolveStats& stats) const;

  /// Route-index prefilter for `query`: when the index is compiled and
  /// the query has a WHERE, returns the ascending PC indices whose
  /// predicate box intersects the WHERE box (exactly the set the DFS
  /// geometric fast path would keep). Returns std::nullopt when the
  /// full enumeration must run (no index / no WHERE).
  std::optional<std::vector<uint32_t>> RelevantFor(const AggQuery& query) const;

  /// Builds the allocation MILP (paper Eq. 2) over `cells` with a zero
  /// objective: one integer variable per cell, one ranged frequency row
  /// per PC covering a cell and, when `extra_min_rows` > 0, the row
  /// Σx >= extra_min_rows. Frequency lower bounds are kept only when the
  /// PC's predicate is entirely inside the query region (otherwise the
  /// PC's mandatory rows may fall outside the query, and forcing them in
  /// would be unsound). A query builds it once; its solves differ only
  /// in the objective.
  LpModel BuildAllocationModel(const std::vector<CellBound>& cells,
                               const std::optional<Predicate>& where,
                               double extra_min_rows = 0.0) const;

  /// Sets `model`'s objective and returns the max of
  /// Σ objective_i · x_i; infinity-aware. `warm` (optional) chains
  /// consecutive solves over the same model — the MILP's root basis is
  /// carried from call to call, replacing phase-1 with a few warm
  /// pivots when only the objective changed (occupancy scans, the AVG
  /// ratio iteration, the SUM lower/upper pair). `argmax` (optional)
  /// receives the integer allocation x attaining the maximum; it is
  /// written only when the solve is optimal.
  StatusOr<double> MaximizeAllocation(LpModel& model,
                                      const std::vector<double>& objective,
                                      SolveStats& stats,
                                      SimplexSolver::WarmStart* warm = nullptr,
                                      std::vector<double>* argmax =
                                          nullptr) const;

  StatusOr<ResultRange> BoundImpl(const AggQuery& query,
                                  SolveStats& stats) const;
  StatusOr<ResultRange> BoundAvg(const AggQuery& query,
                                 SolveStats& stats) const;
  /// MAX over the query's cells; with `negate`, MAX of -v over the
  /// same cells (MIN(v) = -MAX(-v)).
  StatusOr<ResultRange> BoundMax(const AggQuery& query, bool negate,
                                 SolveStats& stats) const;

  /// Greedy closed form when all predicates are pairwise disjoint: the
  /// max of COUNT, or of SUM(v) (SUM(-v) with `negate`), over the PCs
  /// `relevant` lists (RelevantFor(query); nullopt = all of them).
  StatusOr<double> DisjointUpper(
      const AggQuery& query,
      const std::optional<std::vector<uint32_t>>& relevant, bool count,
      bool negate) const;

  /// True if the PC set admits an instance with zero rows matching the
  /// query region.
  StatusOr<bool> EmptyInstancePossible(const AggQuery& query) const;

  PredicateConstraintSet pcs_;
  std::vector<AttrDomain> domains_;
  Options options_;
  bool predicates_disjoint_ = false;
  /// Compiled over pcs_'s predicate boxes (id i == PC index i).
  std::unique_ptr<const route::RouteIndex> route_index_;
  mutable SolveStats stats_;
  /// Non-null iff options_.persistent_sat_cache: the cross-decomposition
  /// memo cache, serialized by sat_mu_ (IntervalSatChecker is not
  /// thread-safe). The pointer itself is set once at construction; only
  /// the pointed-to checker needs the lock.
  mutable Mutex sat_mu_;
  mutable std::unique_ptr<IntervalSatChecker> persistent_checker_
      PT_GUARDED_BY(sat_mu_);
};

}  // namespace pcx

#endif  // PCX_PC_BOUND_SOLVER_H_
