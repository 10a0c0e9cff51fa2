#ifndef PCX_SERVE_PARTITIONER_H_
#define PCX_SERVE_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "pc/pc_set.h"
#include "route/shard_mask.h"

namespace pcx {

/// How the partitioner spreads predicate-overlap components over shards.
enum class PartitionStrategy {
  /// Components dealt to shards in discovery order, one at a time. The
  /// baseline: oblivious to component size, so one heavy component can
  /// skew a shard (Beame/Koutris/Suciu's "one heavy hitter ruins the
  /// round" in the parallel-query setting).
  kRoundRobin,
  /// Components sorted along the attribute that best spreads them, then
  /// packed into contiguous ranges balancing *estimated cell counts*.
  /// Range contiguity keeps a shard's predicates geometrically close (a
  /// range query then touches few shards) while the cost balancing
  /// mitigates skew from unevenly sized components.
  kAttributeRange,
};

struct PartitionOptions {
  /// Clamped to [1, kMaxShards] by PartitionPcSet: the sharded solver
  /// routes with a 64-bit mask, and the v1 snapshot format inherits the
  /// same ceiling.
  size_t num_shards = 1;
  PartitionStrategy strategy = PartitionStrategy::kAttributeRange;
};

/// A shard assignment of a predicate-constraint set. The invariant that
/// makes sharded serving *exact* (see ShardedBoundSolver): predicates of
/// different shards never overlap, because overlap-connected components
/// are assigned whole. Every cell of the unsharded decomposition is
/// therefore covered by PCs of exactly one shard, and the allocation
/// MILP decomposes per shard with no cross terms.
struct Partition {
  /// Per shard: global PC indices, ascending. Exactly
  /// PartitionOptions::num_shards entries; trailing shards may be empty
  /// when there are fewer components than shards.
  std::vector<std::vector<size_t>> shards;
  /// Per shard: summed estimated decomposition cost (see
  /// EstimateComponentCost).
  std::vector<double> estimated_cost;
  /// Per global PC index: dense id of its overlap component, ids in
  /// discovery order (by smallest member) — the normal form
  /// OverlapComponents produces. ShardedBoundSolver::ApplyDeltas seeds
  /// a union-find from this so mutations maintain the component
  /// structure incrementally instead of re-running OverlapComponents.
  std::vector<size_t> component_of;
  size_t num_components = 0;
  /// PCs in the largest overlap component — the unsplittable unit. When
  /// this approaches the whole set (e.g. a universal catch-all predicate
  /// overlaps everything), the set is effectively unshardable and every
  /// query degenerates to the single merged shard.
  size_t largest_component = 0;

  /// max shard cost / mean shard cost; 1.0 is perfectly balanced, 0 for
  /// an empty partition. The skew metric reported by pcx_serve STATS
  /// and the partitioner tests.
  double ImbalanceRatio() const;
};

/// Worst-case decomposition cost proxy of one overlap component with
/// `num_pcs` predicates: cells are sign assignments, so up to 2^m - 1,
/// capped to keep sums finite. Single-PC components cost 1 (the greedy
/// fast path is linear).
double EstimateComponentCost(size_t num_pcs);

/// Connected components of the pairwise predicate-intersection graph
/// (the same IntersectionEmpty-under-domains criterion the solver's
/// disjointness detection uses, so "every component is a singleton" is
/// exactly "the predicates are pairwise disjoint"). Components are in
/// discovery order (by smallest member); members ascend. One
/// route::ForEachIntersectingPair sweep — PartitionPcSet and the
/// snapshot-loading path both build on this instead of re-scanning.
std::vector<std::vector<size_t>> OverlapComponents(
    const PredicateConstraintSet& pcs,
    const std::vector<AttrDomain>& domains);

/// Splits `pcs` into `options.num_shards` shards. Overlap components
/// (connected components of the pairwise predicate-intersection graph,
/// computed under `domains`) are never split across shards; within a
/// shard, global PC order is preserved — both are required by
/// ShardedBoundSolver's bit-identity guarantee.
Partition PartitionPcSet(const PredicateConstraintSet& pcs,
                         const std::vector<AttrDomain>& domains,
                         const PartitionOptions& options);

}  // namespace pcx

#endif  // PCX_SERVE_PARTITIONER_H_
