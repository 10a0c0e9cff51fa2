#ifndef PCX_ROUTE_PAIR_SWEEP_H_
#define PCX_ROUTE_PAIR_SWEEP_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "predicate/box.h"

namespace pcx {
namespace route {

/// Calls `fn(i, j)`, i < j, once for every pair of `boxes` that
/// intersect under `domains` — exactly the pairs with
/// !boxes[i]->IntersectionEmpty(*boxes[j], domains). The one place pcx
/// decides pairwise predicate overlap: overlap components, the
/// disjoint fast-path verdict and the incremental component re-split
/// all build on it. Pairs arrive in no particular order; `fn` returns
/// false to stop the walk early.
///
/// A sort-and-sweep over one attribute. Empty boxes intersect nothing
/// and are dropped first. For every attribute, the candidate pairs
/// (intervals that meet on that attribute, strictness and integer
/// rounding ignored, so a superset of the true pairs) are counted with
/// binary searches over the lo-sorted endpoints; the attribute with the
/// fewest is swept, and each candidate is confirmed with the exact
/// IntersectionEmpty. Cost: O(d·n log n) plus one box test per
/// candidate on the swept attribute — all pairs only when every
/// attribute overlaps everywhere (e.g. 0-attribute boxes, where every
/// pair does intersect).
///
/// Requires NaN-free endpoints and a common attribute count.
void ForEachIntersectingPair(std::span<const Box* const> boxes,
                             const std::vector<AttrDomain>& domains,
                             const std::function<bool(size_t, size_t)>& fn);

}  // namespace route
}  // namespace pcx

#endif  // PCX_ROUTE_PAIR_SWEEP_H_
