#include "serve/sharded_solver.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "route/pair_sweep.h"

namespace pcx {
namespace {

using SolveStats = PcBoundSolver::SolveStats;

/// The counted SolveStats fields and their counter names, in
/// solve_counters_ order.
constexpr std::pair<const char*, size_t SolveStats::*> kSolveFields[] = {
    {"pcx_solve_cells_total", &SolveStats::num_cells},
    {"pcx_sat_calls_total", &SolveStats::sat_calls},
    {"pcx_sat_cache_hits_total", &SolveStats::sat_cache_hits},
    {"pcx_milp_nodes_total", &SolveStats::milp_nodes},
    {"pcx_lp_solves_total", &SolveStats::lp_solves},
    {"pcx_lp_pivots_total", &SolveStats::lp_pivots},
};

/// Label values of pcx_bound_queries_total, indexed by routed fan-out
/// min(shards, 2).
constexpr const char* kFanoutLabels[] = {"none", "single", "multi"};

/// A registry for a solver whose caller passed none.
std::shared_ptr<MetricsRegistry> OwnRegistryIfNone(
    ShardedBoundSolver::Options& options) {
  if (options.metrics != nullptr) return nullptr;
  auto owned = std::make_shared<MetricsRegistry>();
  options.metrics = owned.get();
  return owned;
}

}  // namespace

ShardedBoundSolver::ShardedBoundSolver(PredicateConstraintSet pcs,
                                       std::vector<AttrDomain> domains)
    : ShardedBoundSolver(std::move(pcs), std::move(domains), Options{}) {}

ShardedBoundSolver::ShardedBoundSolver(const Snapshot& snapshot)
    : ShardedBoundSolver(snapshot, Options{}) {}

ShardedBoundSolver::ShardedBoundSolver(PredicateConstraintSet pcs,
                                       std::vector<AttrDomain> domains,
                                       Options options)
    : flat_(std::move(pcs)),
      domains_(std::move(domains)),
      owned_metrics_(OwnRegistryIfNone(options)),
      options_(options),
      configured_options_(options) {
  partition_ = PartitionPcSet(flat_, domains_, options_.partition);
  BuildShards();
}

ShardedBoundSolver::ShardedBoundSolver(const Snapshot& snapshot,
                                       Options options)
    : flat_(snapshot.Flatten()),
      domains_(snapshot.domains),
      owned_metrics_(OwnRegistryIfNone(options)),
      options_(options),
      configured_options_(options),
      epoch_(snapshot.epoch) {
  // Adopt the stored shard layout verbatim; re-derive the balance
  // metadata from the component structure (a property of the set, not
  // of the file) so STATS reports the same numbers the snapshot's
  // writer printed. One overlap sweep serves components, costs, and
  // the disjointness verdict in BuildShards.
  partition_.shards.clear();
  for (const SnapshotShard& s : snapshot.shards) {
    partition_.shards.push_back(s.indices);
  }
  if (partition_.shards.empty()) partition_.shards.push_back({});
  partition_.estimated_cost.assign(partition_.shards.size(), 0.0);

  std::vector<size_t> shard_of(flat_.size(), 0);
  for (size_t s = 0; s < partition_.shards.size(); ++s) {
    for (size_t i : partition_.shards[s]) shard_of[i] = s;
  }
  partition_.component_of.assign(flat_.size(), 0);
  for (const std::vector<size_t>& comp :
       OverlapComponents(flat_, domains_)) {
    for (size_t i : comp) partition_.component_of[i] = partition_.num_components;
    ++partition_.num_components;
    partition_.largest_component =
        std::max(partition_.largest_component, comp.size());
    // Components are whole on one shard in well-formed snapshots; a
    // hand-built file that splits one gets its cost attributed to the
    // first member's shard (a metric, not a correctness input).
    partition_.estimated_cost[shard_of[comp.front()]] +=
        EstimateComponentCost(comp.size());
  }
  BuildShards();
}

ShardedBoundSolver::ShardedBoundSolver(
    IncrementalTag, PredicateConstraintSet flat,
    std::vector<AttrDomain> domains, Options configured,
    std::shared_ptr<MetricsRegistry> owned_metrics, Partition partition,
    uint64_t epoch,
    const std::vector<std::shared_ptr<const PcBoundSolver>>& reuse)
    : flat_(std::move(flat)),
      domains_(std::move(domains)),
      owned_metrics_(std::move(owned_metrics)),
      options_(configured),
      configured_options_(configured),
      partition_(std::move(partition)),
      epoch_(epoch) {
  BuildShards(&reuse);
}

void ShardedBoundSolver::BuildShards(
    const std::vector<std::shared_ptr<const PcBoundSolver>>* reuse) {
  PCX_CHECK(partition_.shards.size() <= kMaxShards)
      << "ShardedBoundSolver routes with a 64-bit shard mask";
  // Every overlap component a singleton <=> pairwise disjoint: the
  // components and PredicatesDisjoint both come from
  // route::ForEachIntersectingPair, so the verdict (already paid for by
  // both constructors) matches the unsharded solver's bit for bit.
  flat_disjoint_ = options_.solver.auto_disjoint_fast_path &&
                   partition_.num_components == flat_.size();
  // A shard's subset can be pairwise disjoint even when the full set is
  // not; taking the greedy fast path there would change the arithmetic
  // relative to the unsharded solver, so the verdict of the *full* set
  // is imposed on every shard and union solver. In the disjoint case
  // the verdict transfers to every subset, so shard/union construction
  // skips re-detecting it with one overlap sweep per subset.
  if (flat_disjoint_) {
    options_.solver.assume_predicates_disjoint = true;
  } else {
    options_.solver.auto_disjoint_fast_path = false;
  }

  MetricsRegistry& metrics = *options_.metrics;
  union_solve_hist_ = &metrics.GetHistogram(
      "pcx_shard_solve_latency_us", {{"shard", "union"}},
      "BOUND solve latency per shard (microseconds)");
  for (size_t f = 0; f < std::size(kFanoutLabels); ++f) {
    queries_by_fanout_[f] = &metrics.GetCounter(
        "pcx_bound_queries_total", {{"fanout", kFanoutLabels[f]}},
        "BOUND queries routed, by shard fan-out (none, single, multi)");
  }
  union_solvers_built_ =
      &metrics.GetCounter("pcx_union_solvers_built_total", {},
                          "Shard-union solvers built for spanning queries");
  static_assert(std::size(kSolveFields) == decltype(solve_counters_){}.size());
  for (size_t f = 0; f < std::size(kSolveFields); ++f) {
    solve_counters_[f] = &metrics.GetCounter(
        kSolveFields[f].first, {},
        "Solver work summed over BOUND queries (PcBoundSolver::SolveStats)");
  }

  always_relevant_.assign(flat_.size(), 0);
  for (size_t i = 0; i < flat_.size(); ++i) {
    // A degenerate empty predicate box intersects nothing, yet
    // Box::Covers can still report the query region covering it (the
    // frequency lower bound then applies). Keep such constraints in
    // every union rather than reasoning about that corner per query.
    if (flat_.at(i).predicate().box().IsEmpty(domains_)) {
      always_relevant_[i] = 1;
    }
  }

  shards_.clear();
  const size_t num_attrs = flat_.num_attrs();
  for (size_t s = 0; s < partition_.shards.size(); ++s) {
    const std::vector<size_t>& indices = partition_.shards[s];
    Shard shard;
    shard.indices = indices;
    PredicateConstraintSet subset;
    shard.bbox = Box(num_attrs);
    for (size_t d = 0; d < num_attrs; ++d) {
      shard.bbox.SetDim(d, Interval::Closed(
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()));
    }
    for (size_t i : indices) {
      subset.Add(flat_.at(i));
      shard.always_relevant |= always_relevant_[i] != 0;
      const Box& pred = flat_.at(i).predicate().box();
      for (size_t d = 0; d < num_attrs; ++d) {
        // Closed-bound hull: a superset of every member box, so a miss
        // of the hull is a miss of all members.
        const Interval& cur = shard.bbox.dim(d);
        shard.bbox.SetDim(
            d, Interval{std::min(cur.lo, pred.dim(d).lo),
                        std::max(cur.hi, pred.dim(d).hi), false, false});
      }
    }
    shard.solve_hist = &metrics.GetHistogram(
        "pcx_shard_solve_latency_us", {{"shard", std::to_string(s)}},
        "BOUND solve latency per shard (microseconds)");
    if (reuse != nullptr && s < reuse->size() && (*reuse)[s] != nullptr) {
      // An untouched shard: identical subset, order, and effective
      // solver options — the predecessor's decomposition is the one a
      // fresh build would produce.
      shard.solver = (*reuse)[s];
    } else {
      shard.solver = std::make_shared<const PcBoundSolver>(
          std::move(subset), domains_, options_.solver);
    }
    shards_.push_back(std::move(shard));
  }

  // Compile the hull-level route index over the non-empty shards (one
  // box per shard: its closed-bound hull). Member-level confirmation
  // reuses each shard solver's own predicate-box index, so the only
  // structure built here is O(K log K) — and an untouched shard's
  // member index rode along with its reused solver above.
  nonempty_mask_ = 0;
  always_mask_ = 0;
  hull_shard_.clear();
  std::vector<Box> hulls;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].indices.empty()) continue;
    nonempty_mask_ |= ShardBit(s);
    if (shards_[s].always_relevant) always_mask_ |= ShardBit(s);
    hulls.push_back(shards_[s].bbox);
    hull_shard_.push_back(static_cast<uint32_t>(s));
  }
  hull_index_ =
      std::make_unique<const route::RouteIndex>(std::move(hulls), domains_);

  route_fanout_hist_ = &metrics.GetHistogram(
      "pcx_route_fanout", {}, "shards per routed BOUND query");
  const route::RouteIndexStats totals = RouteIndexTotals();
  metrics
      .GetGauge("pcx_route_index_nodes", {},
                "endpoint records across all compiled route lanes")
      .Set(static_cast<int64_t>(totals.num_entries));
  metrics
      .GetGauge("pcx_route_index_depth", {},
                "max binary-search depth of any route-lane probe")
      .Set(static_cast<int64_t>(totals.depth));
}

route::RouteIndexStats ShardedBoundSolver::RouteIndexTotals() const {
  route::RouteIndexStats total = hull_index_->stats();
  for (const Shard& shard : shards_) {
    const route::RouteIndex* idx =
        shard.solver != nullptr ? shard.solver->route_index() : nullptr;
    if (idx == nullptr) continue;
    const route::RouteIndexStats& s = idx->stats();
    total.num_boxes += s.num_boxes;
    total.num_lanes += s.num_lanes;
    total.num_entries += s.num_entries;
    total.depth = std::max(total.depth, s.depth);
  }
  return total;
}

StatusOr<std::shared_ptr<const ShardedBoundSolver>>
ShardedBoundSolver::ApplyDeltas(std::span<const DeltaRecord> records) const {
  // Working state, keyed by *key*: a stable id that is the original
  // global index for survivors of flat_ and n, n+1, ... for appends.
  // Keys only ever grow, and `order` (the alive keys in global order)
  // stays ascending — appends attach at the end, retires only remove —
  // so the final reindex is a single monotone scan.
  std::vector<PredicateConstraint> pc_of_key(flat_.constraints().begin(),
                                             flat_.constraints().end());
  std::vector<size_t> order(flat_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<size_t> shard_of_key(flat_.size(), 0);
  std::vector<std::vector<size_t>> members(shards_.size());
  std::vector<Box> hull;
  std::vector<char> touched(shards_.size(), 0);
  hull.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    members[s] = shards_[s].indices;
    for (size_t k : members[s]) shard_of_key[k] = s;
    hull.push_back(shards_[s].bbox);
  }

  // The overlap-component structure is maintained incrementally in a
  // union-find keyed like pc_of_key, seeded from the predecessor's
  // component ids. An append only ever *adds* overlap edges (new
  // constraint <-> every overlapping alive constraint), so unioning
  // along exactly those edges keeps the structure the transitive
  // closure OverlapComponents would compute, without rescanning the
  // set. Retiring a member of a multi-member component may split it,
  // which a union-find cannot express: the retired key is recorded,
  // and after the batch only the components it touched are re-split.
  std::vector<size_t> parent(pc_of_key.size());
  std::vector<size_t> comp_size(pc_of_key.size(), 1);
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&parent](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  // Union by smallest key, so a component's root is its first member —
  // the same representative OverlapComponents discovery order uses.
  auto unite = [&](size_t a, size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent[b] = a;
    comp_size[a] += comp_size[b];
  };
  bool components_exact = partition_.component_of.size() == flat_.size();
  if (components_exact) {
    std::vector<size_t> first_of_comp(partition_.num_components, SIZE_MAX);
    for (size_t i = 0; i < flat_.size(); ++i) {
      const size_t c = partition_.component_of[i];
      if (c >= first_of_comp.size()) {
        components_exact = false;  // inconsistent hand-built metadata
        break;
      }
      if (first_of_comp[c] == SIZE_MAX) {
        first_of_comp[c] = i;
      } else {
        unite(first_of_comp[c], i);
      }
    }
  }

  std::vector<size_t> split_keys;  // retired out of multi-member components
  uint64_t epoch = epoch_;
  bool checkpointed = false;
  for (const DeltaRecord& rec : records) {
    if (rec.epoch != epoch + 1) {
      return Status::FailedPrecondition(
          "delta record carries epoch " + std::to_string(rec.epoch) +
          " onto a solver at epoch " + std::to_string(epoch));
    }
    switch (rec.op) {
      case DeltaOp::kAppend: {
        if (flat_.num_attrs() > 0 && rec.pc.num_attrs() != flat_.num_attrs()) {
          return Status::InvalidArgument(
              "appended constraint has " + std::to_string(rec.pc.num_attrs()) +
              " attributes; the set has " + std::to_string(flat_.num_attrs()));
        }
        const Box& box = rec.pc.predicate().box();
        // Shards whose members the new predicate overlaps, and one
        // representative key per overlapped component. The hull is a
        // conservative superset (retires leave it stale), so a hull hit
        // is confirmed against actual members; every alive constraint
        // belongs to exactly one shard, so this scan is the exact
        // overlap test OverlapComponents would run. Members whose
        // component is already known to overlap skip the box test —
        // components are whole on one shard, so the skip never loses a
        // shard target either.
        std::vector<size_t> targets;
        std::vector<size_t> overlap_roots;
        for (size_t s = 0; s < members.size(); ++s) {
          if (members[s].empty()) continue;
          if (box.IntersectionEmpty(hull[s], domains_)) continue;
          bool hit = false;
          for (size_t k : members[s]) {
            const size_t r = find(k);
            if (std::find(overlap_roots.begin(), overlap_roots.end(), r) !=
                overlap_roots.end()) {
              continue;
            }
            if (!box.IntersectionEmpty(pc_of_key[k].predicate().box(),
                                       domains_)) {
              overlap_roots.push_back(r);
              hit = true;
            }
          }
          if (hit) targets.push_back(s);
        }
        size_t home;
        if (targets.empty()) {
          // A fresh component: keep shard sizes level (lowest id wins
          // ties so the choice is deterministic).
          home = 0;
          for (size_t s = 1; s < members.size(); ++s) {
            if (members[s].size() < members[home].size()) home = s;
          }
        } else {
          home = targets.front();
          // The append bridges several components: merge their shards
          // into the lowest-id target so components stay whole.
          for (size_t t = 1; t < targets.size(); ++t) {
            const size_t from = targets[t];
            for (size_t k : members[from]) shard_of_key[k] = home;
            members[home].insert(members[home].end(), members[from].begin(),
                                 members[from].end());
            members[from].clear();
            touched[from] = 1;
            for (size_t d = 0; d < hull[home].num_attrs(); ++d) {
              const Interval& a = hull[home].dim(d);
              const Interval& b = hull[from].dim(d);
              hull[home].SetDim(d, Interval{std::min(a.lo, b.lo),
                                            std::max(a.hi, b.hi), false,
                                            false});
            }
          }
        }
        const size_t key = pc_of_key.size();
        parent.push_back(key);
        comp_size.push_back(1);
        for (size_t r : overlap_roots) unite(key, r);
        pc_of_key.push_back(rec.pc);
        shard_of_key.push_back(home);
        order.push_back(key);
        members[home].push_back(key);
        touched[home] = 1;
        for (size_t d = 0; d < hull[home].num_attrs(); ++d) {
          const Interval& cur = hull[home].dim(d);
          hull[home].SetDim(d, Interval{std::min(cur.lo, box.dim(d).lo),
                                        std::max(cur.hi, box.dim(d).hi),
                                        false, false});
        }
        break;
      }
      case DeltaOp::kRetire: {
        if (rec.retire_index >= order.size()) {
          return Status::OutOfRange(
              "retire index " + std::to_string(rec.retire_index) +
              " out of range for " + std::to_string(order.size()) +
              " constraints");
        }
        const size_t key = order[rec.retire_index];
        order.erase(order.begin() + static_cast<ptrdiff_t>(rec.retire_index));
        const size_t s = shard_of_key[key];
        std::vector<size_t>& m = members[s];
        m.erase(std::find(m.begin(), m.end(), key));
        touched[s] = 1;
        // The hull goes stale (conservative only) rather than being
        // recomputed; routing stays correct, just occasionally wider —
        // until the next CHECKPOINT re-partitions and tightens it.
        // A retired singleton component simply disappears (the dead key
        // is never scanned again); retiring out of a larger component
        // may split it, settled after the batch.
        if (comp_size[find(key)] > 1) split_keys.push_back(key);
        break;
      }
      case DeltaOp::kCheckpoint:
        // An epoch bump marking "a fresh base follows"; membership is
        // untouched (the server persists the snapshot separately), but
        // the layout is rebuilt below: a fresh base deserves the
        // routing selectivity of a fresh LOAD.
        checkpointed = true;
        break;
    }
    ++epoch;
  }

  // Reindex: new global index of a key = its rank in `order`.
  std::vector<size_t> new_index_of_key(pc_of_key.size(), 0);
  PredicateConstraintSet new_flat;
  for (size_t i = 0; i < order.size(); ++i) {
    new_index_of_key[order[i]] = i;
    new_flat.Add(pc_of_key[order[i]]);
  }

  if (checkpointed) {
    // CHECKPOINT: discard the incrementally-maintained layout and
    // re-partition the final set from scratch at the *current* width
    // (snapshot-adopted solvers carry the default num_shards=1 in their
    // configured options; collapsing a server's layout on checkpoint
    // would be a regression, not a cleanup). Shards merged by bridge
    // appends split back apart and retire-staled hulls come out tight,
    // so the route mask of a post-checkpoint query shrinks back to what
    // a from-scratch LOAD of the same set would compute. Answers are
    // unaffected: they are assembled in global constraint order, which
    // is layout-independent. No shard solver is reusable across a
    // re-partition; the rebuild is the price of a fresh base, paid at
    // checkpoint cadence rather than per query.
    PartitionOptions popts = configured_options_.partition;
    popts.num_shards = partition_.shards.size();
    Partition fresh = PartitionPcSet(new_flat, domains_, popts);
    return std::shared_ptr<const ShardedBoundSolver>(new ShardedBoundSolver(
        IncrementalTag{}, std::move(new_flat), domains_, configured_options_,
        owned_metrics_, std::move(fresh), epoch,
        std::vector<std::shared_ptr<const PcBoundSolver>>()));
  }

  if (components_exact && !split_keys.empty()) {
    // Re-split every component a retire touched: reset its alive
    // members to singletons and re-union them along their actual
    // overlaps. Within a batch components only ever merge, so the
    // union-find is coarser than (or equal to) the true closure, and
    // re-splitting exactly the touched components leaves it exact.
    std::vector<char> touched_root(parent.size(), 0);
    for (size_t k : split_keys) touched_root[find(k)] = 1;
    std::vector<size_t> resplit;
    for (size_t k : order) {
      if (touched_root[find(k)] != 0) resplit.push_back(k);
    }
    std::vector<const Box*> boxes;
    boxes.reserve(resplit.size());
    for (size_t k : resplit) {
      parent[k] = k;
      comp_size[k] = 1;
      boxes.push_back(&pc_of_key[k].predicate().box());
    }
    route::ForEachIntersectingPair(boxes, domains_, [&](size_t a, size_t b) {
      unite(resplit[a], resplit[b]);
      return true;
    });
  }

  Partition partition;
  partition.shards.resize(members.size());
  for (size_t s = 0; s < members.size(); ++s) {
    // Keys ascend within a shard except across a merge splice; sorting
    // restores the ascending-global-index invariant either way.
    std::sort(members[s].begin(), members[s].end());
    partition.shards[s].reserve(members[s].size());
    for (size_t k : members[s]) {
      partition.shards[s].push_back(new_index_of_key[k]);
    }
  }
  partition.estimated_cost.assign(members.size(), 0.0);
  partition.component_of.assign(new_flat.size(), 0);
  std::vector<size_t> shard_of(new_flat.size(), 0);
  for (size_t s = 0; s < partition.shards.size(); ++s) {
    for (size_t i : partition.shards[s]) shard_of[i] = s;
  }
  if (components_exact) {
    // Read the maintained structure off the union-find: walking alive
    // keys in ascending order and numbering roots on first sight yields
    // the same dense ids, sizes, and cost attribution (to the shard of
    // a component's smallest member) OverlapComponents would produce.
    std::vector<size_t> id_of_root(parent.size(), SIZE_MAX);
    std::vector<size_t> count;
    std::vector<size_t> first_shard;
    for (size_t i = 0; i < order.size(); ++i) {
      const size_t r = find(order[i]);
      if (id_of_root[r] == SIZE_MAX) {
        id_of_root[r] = count.size();
        count.push_back(0);
        first_shard.push_back(shard_of[i]);
      }
      partition.component_of[i] = id_of_root[r];
      ++count[id_of_root[r]];
    }
    partition.num_components = count.size();
    for (size_t c = 0; c < count.size(); ++c) {
      partition.largest_component =
          std::max(partition.largest_component, count[c]);
      partition.estimated_cost[first_shard[c]] +=
          EstimateComponentCost(count[c]);
    }
  } else {
    // The predecessor's component ids did not fit its set (hand-built
    // metadata): recompute the components of the final set outright.
    for (const std::vector<size_t>& comp :
         OverlapComponents(new_flat, domains_)) {
      for (size_t i : comp) partition.component_of[i] = partition.num_components;
      ++partition.num_components;
      partition.largest_component =
          std::max(partition.largest_component, comp.size());
      partition.estimated_cost[shard_of[comp.front()]] +=
          EstimateComponentCost(comp.size());
    }
  }

  // An untouched shard's solver is reusable only if the *effective*
  // options a fresh build would apply to it are the options it was
  // built under — i.e. the full-set disjointness verdict is unchanged.
  const bool verdict_now = configured_options_.solver.auto_disjoint_fast_path &&
                           partition.num_components == new_flat.size();
  std::vector<std::shared_ptr<const PcBoundSolver>> reuse(shards_.size());
  if (verdict_now == flat_disjoint_) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (touched[s] == 0) reuse[s] = shards_[s].solver;
    }
  }

  return std::shared_ptr<const ShardedBoundSolver>(new ShardedBoundSolver(
      IncrementalTag{}, std::move(new_flat), domains_, configured_options_,
      owned_metrics_, std::move(partition), epoch, reuse));
}

ShardMask ShardedBoundSolver::RouteMaskLinear(const AggQuery& query) const {
  ShardMask mask = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    if (shard.indices.empty()) continue;
    if (shard.always_relevant || !query.where.has_value()) {
      mask |= ShardBit(s);
      continue;
    }
    const Box& w = query.where->box();
    // Hull miss => every member misses; shard-local queries route in
    // O(K) instead of O(n).
    if (shard.bbox.IntersectionEmpty(w, domains_)) continue;
    for (size_t i : shard.indices) {
      if (!flat_.at(i).predicate().box().IntersectionEmpty(w, domains_)) {
        mask |= ShardBit(s);
        break;
      }
    }
  }
  return mask;
}

ShardMask ShardedBoundSolver::RouteMask(const AggQuery& query) const {
  // No WHERE: every non-empty shard is relevant, exactly the bits the
  // linear scan's per-shard `!where` branch sets.
  if (!query.where.has_value()) return nonempty_mask_;
  const Box& w = query.where->box();
  // Always-relevant shards bypass both hull and member tests, mirroring
  // the linear scan's ordering (it sets the bit before the hull test).
  ShardMask mask = always_mask_;
  // Stab the hull index: candidates are exactly the non-empty shards
  // whose hull intersects the WHERE box (the linear scan's hull test,
  // found in O(log K) instead of O(K)). Each candidate is confirmed
  // against actual members — the same member scan the oracle runs, but
  // through the shard solver's compiled predicate-box index.
  // Scratch reused across queries: routing is on every BOUND's critical
  // path and must not pay a heap allocation per call.
  static thread_local std::vector<uint32_t> candidates;
  hull_index_->CollectIntersecting(w, &candidates);
  for (uint32_t id : candidates) {
    const size_t s = hull_shard_[id];
    if ((mask >> s) & 1) continue;  // already in via always_mask_
    const Shard& shard = shards_[s];
    const route::RouteIndex* members =
        shard.solver != nullptr ? shard.solver->route_index() : nullptr;
    if (members != nullptr) {
      if (members->AnyIntersects(w)) mask |= ShardBit(s);
      continue;
    }
    // Member index absent (solver built with use_route_index off):
    // linear member confirmation, identical to the oracle's inner loop.
    for (size_t i : shard.indices) {
      if (!flat_.at(i).predicate().box().IntersectionEmpty(w, domains_)) {
        mask |= ShardBit(s);
        break;
      }
    }
  }
  return mask;
}

std::shared_ptr<const PcBoundSolver> ShardedBoundSolver::SolverFor(
    ShardMask mask) const {
  if (std::popcount(mask) == 1) {
    // The prebuilt shard solver, shared as-is.
    return shards_[static_cast<size_t>(std::countr_zero(mask))].solver;
  }
  MutexLock lock(cache_mu_);
  auto it = union_cache_.find(mask);
  if (it != union_cache_.end()) return it->second;

  // Assemble the union in ascending global order — the order the
  // unsharded solver sees — so decomposition, MILP rows and greedy sums
  // run through the identical sequence of operations.
  std::vector<size_t> indices;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if ((mask >> s) & 1) {
      indices.insert(indices.end(), shards_[s].indices.begin(),
                     shards_[s].indices.end());
    }
  }
  std::sort(indices.begin(), indices.end());
  PredicateConstraintSet subset;
  for (size_t i : indices) subset.Add(flat_.at(i));
  auto solver = std::make_shared<const PcBoundSolver>(
      std::move(subset), domains_, options_.solver);
  union_solvers_built_->Increment();
  // Bounded memo: flush wholesale at the cap (rare; shard-spanning mask
  // diversity is usually tiny). Shared ownership keeps solvers already
  // handed out alive until their queries finish.
  if (union_cache_.size() >= kMaxUnionSolvers) union_cache_.clear();
  union_cache_.emplace(mask, solver);
  return solver;
}

StatusOr<ResultRange> ShardedBoundSolver::BoundOne(
    const AggQuery& query, PcBoundSolver::SolveStats& stats,
    RouteInfo& route) const {
  // Mirrors the unsharded solver's up-front validation so a misrouted
  // query (e.g. one whose WHERE touches no shard) still fails the same
  // way instead of silently answering over an empty set. A query
  // rejected here is counted as routed to no shard.
  if (query.agg != AggFunc::kCount && !flat_.empty() &&
      query.attr >= flat_.num_attrs()) {
    return Status::InvalidArgument("aggregate attribute out of range");
  }

  ShardMask mask;
  {
    // No-op (no clock reads) unless this thread carries a TraceContext.
    TraceSpan route_span("route");
    mask = RouteMask(query);
  }
  const int bits = std::popcount(mask);
  // Fan-out as routed (before the no-shard fallback below widens an
  // empty mask to one shard): the signal for partition selectivity.
  route_fanout_hist_->Observe(static_cast<double>(bits));
  route.shards = static_cast<uint32_t>(bits);
  if (bits == 0) {
    // No predicate can intersect the region, but the answer is still
    // defined over a non-empty set (e.g. MIN negation yields -0.0, and
    // an empty-set solver would answer +0.0). Any one shard performs
    // the identical zero-cell computation the unsharded solver would.
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s].indices.empty()) {
        mask = ShardBit(s);
        break;
      }
    }
  }

  const std::shared_ptr<const PcBoundSolver> solver = SolverFor(mask);
  // mask stays 0 only over an all-empty partition, whose empty-set
  // solve is timed with the unions.
  Histogram& hist =
      std::popcount(mask) == 1
          ? *shards_[static_cast<size_t>(std::countr_zero(mask))].solve_hist
          : *union_solve_hist_;
  const auto start = std::chrono::steady_clock::now();
  auto result = solver->BoundWithStats(query, stats);
  const double us = MicrosSince(start);
  hist.Observe(us);
  if (TraceContext* trace = CurrentTrace()) trace->AddShardSolve(us);
  return result;
}

StatusOr<ResultRange> ShardedBoundSolver::Bound(const AggQuery& query,
                                                RouteInfo* route) const {
  PcBoundSolver::SolveStats stats;
  RouteInfo info;
  auto result = BoundOne(query, stats, info);
  CountQueries(std::span<const RouteInfo>(&info, 1), stats);
  if (route != nullptr) *route = info;
  return result;
}

std::vector<StatusOr<ResultRange>> ShardedBoundSolver::BoundBatch(
    std::span<const AggQuery> queries,
    std::vector<PcBoundSolver::SolveStats>* per_query_stats,
    std::vector<RouteInfo>* per_query_route) const {
  std::vector<std::optional<StatusOr<ResultRange>>> slots(queries.size());
  std::vector<PcBoundSolver::SolveStats> stats(queries.size());
  std::vector<RouteInfo> routes(queries.size());

  auto run_one = [&](size_t i) {
    slots[i].emplace(BoundOne(queries[i], stats[i], routes[i]));
  };
  if (options_.num_threads == 1 || queries.size() <= 1) {
    for (size_t i = 0; i < queries.size(); ++i) run_one(i);
  } else {
    ThreadPool pool(options_.num_threads);
    pool.ParallelFor(queries.size(), run_one);
  }

  PcBoundSolver::SolveStats total;
  for (const PcBoundSolver::SolveStats& s : stats) total += s;
  CountQueries(routes, total);
  if (per_query_stats != nullptr) *per_query_stats = std::move(stats);
  if (per_query_route != nullptr) *per_query_route = std::move(routes);

  std::vector<StatusOr<ResultRange>> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(*std::move(slot));
  return out;
}

StatusOr<std::vector<GroupRange>> ShardedBoundSolver::BoundGroupBy(
    const AggQuery& query, size_t group_attr,
    const std::vector<double>& group_values) const {
  if (!flat_.empty() && group_attr >= flat_.num_attrs()) {
    return Status::InvalidArgument("group attribute out of range");
  }
  const std::vector<AggQuery> per_group =
      MakeGroupByQueries(query, group_attr, group_values, flat_.num_attrs());
  const auto ranges = BoundBatch(per_group);
  std::vector<GroupRange> out;
  out.reserve(group_values.size());
  for (size_t g = 0; g < group_values.size(); ++g) {
    // First failure (in group order) wins, matching BoundGroupBy.
    if (!ranges[g].ok()) return ranges[g].status();
    out.push_back(GroupRange{group_values[g], *ranges[g]});
  }
  return out;
}

void ShardedBoundSolver::CountQueries(
    std::span<const RouteInfo> routes,
    const PcBoundSolver::SolveStats& solve) const {
  std::array<uint64_t, std::size(kFanoutLabels)> by_fanout{};
  for (const RouteInfo& r : routes) ++by_fanout[std::min<uint32_t>(r.shards, 2)];
  for (size_t f = 0; f < by_fanout.size(); ++f) {
    if (by_fanout[f] != 0) queries_by_fanout_[f]->Increment(by_fanout[f]);
  }
  for (size_t f = 0; f < std::size(kSolveFields); ++f) {
    const size_t n = solve.*kSolveFields[f].second;
    if (n != 0) solve_counters_[f]->Increment(n);
  }
}

ShardedBoundSolver::ServeStats ShardedBoundSolver::stats() const {
  ServeStats s;
  s.no_shard_queries = queries_by_fanout_[0]->value();
  s.single_shard_queries = queries_by_fanout_[1]->value();
  s.multi_shard_queries = queries_by_fanout_[2]->value();
  s.queries =
      s.no_shard_queries + s.single_shard_queries + s.multi_shard_queries;
  s.union_solvers_built = union_solvers_built_->value();
  for (size_t f = 0; f < std::size(kSolveFields); ++f) {
    s.solve.*kSolveFields[f].second = solve_counters_[f]->value();
  }
  return s;
}

}  // namespace pcx
