#ifndef PCX_ROUTE_SHARD_MASK_H_
#define PCX_ROUTE_SHARD_MASK_H_

#include <cstddef>
#include <cstdint>

namespace pcx {

/// The routing-mask word: one bit per shard, bit s = "shard s is
/// relevant to this query". The single place the shard-count ceiling
/// lives — the partitioner clamps to it, the snapshot loader answers a
/// typed ERR past it, and ShardedBoundSolver's mask plumbing (RouteMask,
/// SolverFor, the union-solver memo) is typed against it. Widening the
/// fleet beyond 64 shards means changing ShardMask to a wider word (or
/// a bitset) here and nowhere else; the static_assert below keeps the
/// two from drifting apart silently.
using ShardMask = uint64_t;

/// Routing ceiling shared by the partitioner, the snapshot loader, the
/// routing index and ShardedBoundSolver.
inline constexpr size_t kMaxShards = 64;

static_assert(kMaxShards <= sizeof(ShardMask) * 8,
              "kMaxShards must fit in the ShardMask word; widen ShardMask "
              "before raising the shard ceiling");

/// The mask bit of shard `s` (s < kMaxShards).
inline constexpr ShardMask ShardBit(size_t s) { return ShardMask{1} << s; }

}  // namespace pcx

#endif  // PCX_ROUTE_SHARD_MASK_H_
