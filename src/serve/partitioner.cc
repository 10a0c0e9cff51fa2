#include "serve/partitioner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "route/pair_sweep.h"

namespace pcx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Union-find over PC indices.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// One overlap component prepared for assignment.
struct Component {
  std::vector<size_t> members;  ///< global PC indices, ascending
  double cost = 0.0;
  double midpoint = 0.0;  ///< along the chosen range attribute
};

/// Representative coordinate of `iv` for range ordering: the midpoint
/// when finite, the finite end when half-open, 0 for the full line.
double IntervalMid(const Interval& iv) {
  const bool lo_fin = iv.lo != -kInf;
  const bool hi_fin = iv.hi != kInf;
  if (lo_fin && hi_fin) return iv.lo + (iv.hi - iv.lo) / 2.0;
  if (lo_fin) return iv.lo;
  if (hi_fin) return iv.hi;
  return 0.0;
}

/// Midpoint of a component's bounding box along `attr`.
double ComponentMid(const PredicateConstraintSet& pcs,
                    const std::vector<size_t>& members, size_t attr) {
  double lo = kInf, hi = -kInf;
  for (size_t i : members) {
    const Interval& iv = pcs.at(i).predicate().box().dim(attr);
    lo = std::min(lo, IntervalMid(iv));
    hi = std::max(hi, IntervalMid(iv));
  }
  if (lo > hi) return 0.0;
  return lo + (hi - lo) / 2.0;
}

}  // namespace

double Partition::ImbalanceRatio() const {
  double total = 0.0, max_cost = 0.0;
  for (double c : estimated_cost) {
    total += c;
    max_cost = std::max(max_cost, c);
  }
  if (total <= 0.0 || estimated_cost.empty()) return 0.0;
  return max_cost / (total / static_cast<double>(estimated_cost.size()));
}

double EstimateComponentCost(size_t num_pcs) {
  if (num_pcs <= 1) return static_cast<double>(num_pcs);
  // Sign assignments over the component's predicates, capped so a huge
  // merged component doesn't overflow the balancing arithmetic.
  const double cells = std::pow(2.0, std::min<size_t>(num_pcs, 40)) - 1.0;
  return std::min(cells, 1e12);
}

std::vector<std::vector<size_t>> OverlapComponents(
    const PredicateConstraintSet& pcs,
    const std::vector<AttrDomain>& domains) {
  const size_t n = pcs.size();
  DisjointSets sets(n);
  std::vector<const Box*> boxes(n);
  for (size_t i = 0; i < n; ++i) boxes[i] = &pcs.at(i).predicate().box();
  route::ForEachIntersectingPair(boxes, domains, [&](size_t i, size_t j) {
    sets.Union(i, j);
    return true;
  });
  // Components in discovery order = order of their smallest member.
  std::vector<std::vector<size_t>> comps;
  std::vector<size_t> comp_of(n, SIZE_MAX);
  for (size_t i = 0; i < n; ++i) {
    const size_t root = sets.Find(i);
    if (comp_of[root] == SIZE_MAX) {
      comp_of[root] = comps.size();
      comps.push_back({});
    }
    comps[comp_of[root]].push_back(i);
  }
  return comps;
}

Partition PartitionPcSet(const PredicateConstraintSet& pcs,
                         const std::vector<AttrDomain>& domains,
                         const PartitionOptions& options) {
  const size_t n = pcs.size();
  const size_t k =
      std::min(std::max<size_t>(options.num_shards, 1), kMaxShards);
  Partition out;
  out.shards.assign(k, {});
  out.estimated_cost.assign(k, 0.0);
  if (n == 0) return out;

  std::vector<Component> comps;
  for (std::vector<size_t>& members : OverlapComponents(pcs, domains)) {
    Component c;
    c.members = std::move(members);
    comps.push_back(std::move(c));
  }
  out.num_components = comps.size();
  out.component_of.assign(n, 0);
  for (size_t c = 0; c < comps.size(); ++c) {
    comps[c].cost = EstimateComponentCost(comps[c].members.size());
    out.largest_component =
        std::max(out.largest_component, comps[c].members.size());
    for (size_t i : comps[c].members) out.component_of[i] = c;
  }

  // --- Assignment.
  std::vector<size_t> shard_of_comp(comps.size());
  if (options.strategy == PartitionStrategy::kRoundRobin ||
      comps.size() <= 1) {
    for (size_t c = 0; c < comps.size(); ++c) shard_of_comp[c] = c % k;
  } else {
    // Attribute-range: order components along the attribute that spreads
    // their midpoints the most, then pack contiguous runs of roughly
    // equal estimated cost (greedy linear partitioning).
    const size_t num_attrs = pcs.num_attrs();
    size_t best_attr = 0;
    double best_spread = -1.0;
    for (size_t a = 0; a < num_attrs; ++a) {
      double lo = kInf, hi = -kInf;
      for (const Component& c : comps) {
        const double mid = ComponentMid(pcs, c.members, a);
        lo = std::min(lo, mid);
        hi = std::max(hi, mid);
      }
      const double spread = hi - lo;
      if (spread > best_spread) {
        best_spread = spread;
        best_attr = a;
      }
    }
    for (Component& c : comps) {
      c.midpoint = ComponentMid(pcs, c.members, best_attr);
    }
    std::vector<size_t> order(comps.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (comps[a].midpoint != comps[b].midpoint) {
        return comps[a].midpoint < comps[b].midpoint;
      }
      return comps[a].members.front() < comps[b].members.front();
    });

    double remaining = 0.0;
    for (const Component& c : comps) remaining += c.cost;
    size_t shard = 0;
    double current = 0.0;
    for (size_t pos = 0; pos < order.size(); ++pos) {
      const Component& c = comps[order[pos]];
      const size_t shards_left = k - shard;
      const size_t comps_left = order.size() - pos;
      // Fair share of everything not yet sealed (open shard included) —
      // a shrinking-remainder target would close shards early.
      const double target =
          (current + remaining) / static_cast<double>(shards_left);
      // Close the current shard when it has met its fair share (counting
      // half of the next component, the classic rounding rule), or when
      // the remaining components are only just enough to keep every
      // remaining shard non-empty.
      const bool must_advance = comps_left <= shards_left - 1;
      const bool over_target =
          current > 0.0 && current + c.cost / 2.0 > target;
      if (shard + 1 < k && current > 0.0 && (over_target || must_advance)) {
        ++shard;
        current = 0.0;
      }
      shard_of_comp[order[pos]] = shard;
      current += c.cost;
      remaining -= c.cost;
    }
  }

  for (size_t c = 0; c < comps.size(); ++c) {
    const size_t s = shard_of_comp[c];
    out.estimated_cost[s] += comps[c].cost;
    for (size_t i : comps[c].members) out.shards[s].push_back(i);
  }
  // Global order within a shard (members were pushed per component).
  for (auto& shard : out.shards) std::sort(shard.begin(), shard.end());
  return out;
}

}  // namespace pcx
