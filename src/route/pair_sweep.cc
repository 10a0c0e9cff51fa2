#include "route/pair_sweep.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace pcx {
namespace route {
namespace {

/// One box's interval on the attribute being considered.
struct Endpoint {
  double lo;
  double hi;
  size_t id;
};

}  // namespace

void ForEachIntersectingPair(std::span<const Box* const> boxes,
                             const std::vector<AttrDomain>& domains,
                             const std::function<bool(size_t, size_t)>& fn) {
  if (boxes.size() < 2) return;
  const size_t num_attrs = boxes.front()->num_attrs();
  // An empty box intersects nothing. Dropping the empty ones also
  // leaves lo <= hi on every remaining interval, which is what makes
  // "lo_q <= hi_p for p before q in lo order" a superset test.
  std::vector<size_t> live;
  live.reserve(boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    PCX_CHECK_EQ(boxes[i]->num_attrs(), num_attrs);
    if (!boxes[i]->IsEmpty(domains)) live.push_back(i);
  }
  if (live.size() < 2) return;
  const size_t n = live.size();

  // Without a selective attribute every pair is a candidate: start from
  // that (an unbounded lane) and let each attribute try to beat it.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Endpoint> best(n), lane(n);
  for (size_t k = 0; k < n; ++k) best[k] = {-kInf, kInf, live[k]};
  size_t best_count = n * (n - 1) / 2;
  const auto by_lo = [](const Endpoint& a, const Endpoint& b) {
    return a.lo < b.lo || (a.lo == b.lo && a.id < b.id);
  };
  for (size_t d = 0; d < num_attrs && best_count > 0; ++d) {
    bool bounded = false;
    for (size_t k = 0; k < n; ++k) {
      const Interval& iv = boxes[live[k]]->dim(d);
      lane[k] = {iv.lo, iv.hi, live[k]};
      bounded |= !iv.is_unbounded();
    }
    // An attribute no box bounds cannot beat the unbounded lane.
    if (!bounded) continue;
    std::sort(lane.begin(), lane.end(), by_lo);
    size_t count = 0;
    for (size_t p = 0; p + 1 < n && count < best_count; ++p) {
      const auto end = std::upper_bound(
          lane.begin() + static_cast<ptrdiff_t>(p + 1), lane.end(),
          lane[p].hi,
          [](double hi, const Endpoint& e) { return hi < e.lo; });
      count += static_cast<size_t>(
          end - (lane.begin() + static_cast<ptrdiff_t>(p + 1)));
    }
    if (count < best_count) {
      best_count = count;
      best.swap(lane);
    }
  }

  for (size_t p = 0; p + 1 < n; ++p) {
    const Box& bp = *boxes[best[p].id];
    for (size_t q = p + 1; q < n && best[q].lo <= best[p].hi; ++q) {
      if (bp.IntersectionEmpty(*boxes[best[q].id], domains)) continue;
      if (!fn(std::min(best[p].id, best[q].id),
              std::max(best[p].id, best[q].id))) {
        return;
      }
    }
  }
}

}  // namespace route
}  // namespace pcx
