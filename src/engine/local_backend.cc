#include "engine/local_backend.h"

#include <utility>

namespace pcx {

LocalBackend::LocalBackend(PredicateConstraintSet pcs,
                           std::vector<AttrDomain> domains)
    : LocalBackend(std::move(pcs), std::move(domains), Options{}) {}

LocalBackend::LocalBackend(PredicateConstraintSet pcs,
                           std::vector<AttrDomain> domains, Options options)
    : options_(options),
      solver_(std::move(pcs), std::move(domains), options.solver) {}

size_t LocalBackend::num_attrs() const {
  return solver_.constraints().num_attrs();
}

void LocalBackend::Record(size_t queries,
                          const PcBoundSolver::SolveStats& solve) {
  MutexLock lock(mu_);
  queries_ += queries;
  total_ += solve;
}

StatusOr<ResultRange> LocalBackend::Bound(const AggQuery& query) {
  PcBoundSolver::SolveStats stats;
  StatusOr<ResultRange> result = solver_.BoundWithStats(query, stats);
  Record(1, stats);
  return result;
}

std::vector<StatusOr<ResultRange>> LocalBackend::BoundBatch(
    std::span<const AggQuery> queries) {
  MutexLock batch_lock(batch_mu_);
  std::vector<PcBoundSolver::SolveStats> per_query;
  std::vector<StatusOr<ResultRange>> results =
      solver_.BoundBatch(queries, options_.num_threads, &per_query);
  PcBoundSolver::SolveStats sum;
  for (const auto& s : per_query) sum += s;
  Record(queries.size(), sum);
  return results;
}

StatusOr<std::vector<GroupRange>> LocalBackend::BoundGroupBy(
    const AggQuery& query, size_t group_attr,
    const std::vector<double>& group_values) {
  // pcx::BoundGroupBy runs through solver_.BoundBatch, which leaves the
  // fan-out's summed counters in last_stats(); fold them into the
  // backend totals along with one query per group.
  MutexLock batch_lock(batch_mu_);
  StatusOr<std::vector<GroupRange>> groups = pcx::BoundGroupBy(
      solver_, query, group_attr, group_values, options_.num_threads);
  Record(group_values.size(), groups.ok() ? solver_.last_stats()
                                          : PcBoundSolver::SolveStats{});
  return groups;
}

StatusOr<EngineStats> LocalBackend::Stats() {
  MutexLock lock(mu_);
  EngineStats out;
  out.num_shards = 1;
  out.num_pcs = solver_.constraints().size();
  out.num_attrs = solver_.constraints().num_attrs();
  out.queries = queries_;
  out.num_cells = total_.num_cells;
  out.sat_calls = total_.sat_calls;
  out.sat_cache_hits = total_.sat_cache_hits;
  out.milp_nodes = total_.milp_nodes;
  out.lp_solves = total_.lp_solves;
  out.lp_pivots = total_.lp_pivots;
  return out;
}

}  // namespace pcx
