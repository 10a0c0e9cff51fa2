#ifndef PCX_ROUTE_ROUTE_INDEX_H_
#define PCX_ROUTE_ROUTE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "predicate/box.h"

namespace pcx {
namespace route {

/// Build-time shape of a compiled index (what STATS/METRICS surface).
struct RouteIndexStats {
  size_t num_boxes = 0;    ///< indexed boxes
  size_t num_lanes = 0;    ///< attributes with a compiled endpoint lane
  size_t num_entries = 0;  ///< endpoint records across all lanes ("nodes")
  size_t depth = 0;        ///< max binary-search depth of any lane probe
};

/// An immutable interval index over a fixed set of boxes: per-attribute
/// sorted endpoint arrays ("lanes"), stabbed by binary search. Built
/// once from a pinned snapshot's predicate boxes (or shard hulls) and
/// then consulted per query to report exactly the boxes intersecting a
/// query box.
///
/// Evaluation of a query box: every lane is probed with two binary
/// searches — `below` counts boxes whose hi endpoint lies strictly left
/// of the query interval, `above` counts boxes whose lo endpoint lies
/// strictly right of it; both are provably non-intersecting on that
/// dimension alone. The lane excluding the most boxes wins, its
/// surviving run (a suffix of the by-hi order or a prefix of the by-lo
/// order) is enumerated, and each survivor is confirmed with the exact
/// Box::IntersectionEmpty test under the attribute domains. The
/// endpoint comparisons are deliberately conservative — they ignore
/// endpoint strictness and integer-domain rounding, which can only keep
/// extra candidates — so the final verdicts are *bit-identical* to a
/// linear IntersectionEmpty scan. The run is one-sided: it skips only
/// the larger of the two exclusion sets, so a query costs O(d log n + r)
/// for a run of r = n - max(below, above) boxes — about n/2 for a
/// narrow query in the middle of a lane, not O(k) for k true hits. That
/// is cheap for one routing query, and is why stabbing every box of a
/// set with this index does not beat a pairwise scan; all-pairs overlap
/// uses route::ForEachIntersectingPair instead.
///
/// Thread-safe: immutable after construction; queries use caller-owned
/// scratch only.
class RouteIndex {
 public:
  /// `boxes[i]` is the box of id i; `domains` supplies the emptiness
  /// semantics (integer attributes) for the exact confirmation step.
  RouteIndex(std::vector<Box> boxes, std::vector<AttrDomain> domains);

  /// True iff some indexed box intersects `query` (early exit on the
  /// first confirmed survivor).
  bool AnyIntersects(const Box& query) const;

  /// Clears `*out` and fills it with the ids of every box intersecting
  /// `query`, ascending. Exact: id i is reported iff
  /// !boxes[i].IntersectionEmpty(query, domains).
  void CollectIntersecting(const Box& query, std::vector<uint32_t>* out) const;

  size_t size() const { return boxes_.size(); }
  const Box& box(size_t id) const { return boxes_[id]; }
  const RouteIndexStats& stats() const { return stats_; }

 private:
  /// One attribute's endpoint arrays. Every box appears in every lane;
  /// a box unbounded on the lane's attribute sits at the array ends
  /// (±inf) and is simply never excluded by that lane.
  struct Lane {
    uint32_t dim = 0;
    std::vector<std::pair<double, uint32_t>> by_hi;  ///< (hi, id), hi asc
    std::vector<std::pair<double, uint32_t>> by_lo;  ///< (lo, id), lo asc
  };

  /// The enumeration plan for one query: which lane won, whether the
  /// surviving run is a by-hi suffix or a by-lo prefix, and its extent.
  struct Plan {
    const Lane* lane = nullptr;  ///< null: no lane excludes anything
    bool from_hi = true;         ///< true: by_hi[begin..), false: by_lo[..end)
    size_t begin = 0;
    size_t end = 0;
  };

  /// Picks the most selective lane. Returns false when the query box is
  /// empty under the domains (nothing can intersect).
  bool MakePlan(const Box& query, Plan* plan) const;

  /// Runs `fn(id)` over the plan's candidates (conservative superset);
  /// stops early when fn returns false.
  template <typename Fn>
  void ForEachCandidate(const Plan& plan, Fn&& fn) const;

  std::vector<Box> boxes_;
  std::vector<AttrDomain> domains_;
  std::vector<Lane> lanes_;
  RouteIndexStats stats_;
};

}  // namespace route
}  // namespace pcx

#endif  // PCX_ROUTE_ROUTE_INDEX_H_
