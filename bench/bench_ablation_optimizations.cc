// Ablation studies for the solver's design choices (DESIGN.md §4):
//  (a) approximate early stopping (paper Optimization 4): solver-call
//      savings vs bound looseness at different cut depths K;
//  (b) predicate pushdown (Optimization 1): decomposition cost with and
//      without the query region restriction;
//  (c) MIN/MAX cell-occupancy checking: tightness gained per extra
//      feasibility solve (our extension over the paper's "assume all
//      cells are feasible" simplification);
//  (d) the k-clique generalization of the edge-cover bound (paper §5.1:
//      "we can perpetuate this logic to the 4-clique counting query,
//      5-clique, and so on");
//  (e) warm-started dual simplex across the branch-and-bound tree:
//      lp_pivots / wall-clock with and without carrying the parent
//      basis (the PR 2 solver overhaul; feeds BENCH_pr*.json), and LP
//      solves per AVG query under Dinkelbach's ratio iteration.
//
// Exits nonzero if a section (e) query fails, warm and cold solves
// disagree on a bound, or an AVG query takes more than
// kMaxLpSolvesPerAvg LP solves. All three are deterministic.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "join/edge_cover.h"
#include "join/join_bound.h"
#include "pc/bound_solver.h"
#include "workload/datasets.h"
#include "workload/missing.h"
#include "workload/pc_gen.h"

namespace pcx {
namespace {

PredicateConstraintSet OverlappingPcs(size_t n, uint64_t seed) {
  Rng rng(seed);
  PredicateConstraintSet pcs;
  for (size_t i = 0; i < n; ++i) {
    Predicate pred(2);
    const double x = rng.Uniform(0.0, 6.0);
    const double y = rng.Uniform(0.0, 6.0);
    pred.AddRange(0, x, x + rng.Uniform(2.0, 5.0));
    pred.AddRange(1, y, y + rng.Uniform(2.0, 5.0));
    Box values(2);
    values.Constrain(1, Interval::Closed(0.0, 100.0));
    pcs.Add(PredicateConstraint(pred, values, {0.0, 10.0}));
  }
  return pcs;
}

void EarlyStoppingAblation() {
  std::printf("--- (a) approximate early stopping (Optimization 4) ---\n");
  std::printf("%-10s %-12s %-10s %-14s %-12s\n", "depth K", "sat-calls",
              "cells", "SUM upper", "time-ms");
  const auto pcs = OverlappingPcs(14, 3);
  for (size_t depth : std::vector<size_t>{2, 4, 6, 8, 10, 14, SIZE_MAX}) {
    PcBoundSolver::Options options;
    options.decomposition.early_stop_depth = depth;
    PcBoundSolver solver(pcs, {}, options);
    bench::Stopwatch sw;
    const auto range = solver.Bound(AggQuery::Sum(1));
    const double ms = sw.ElapsedMs();
    if (!range.ok()) continue;
    std::printf("%-10s %-12zu %-10zu %-14.0f %-12.2f\n",
                depth == SIZE_MAX ? "exact" : std::to_string(depth).c_str(),
                solver.last_stats().sat_calls,
                solver.last_stats().num_cells, range->hi, ms);
  }
  std::printf("Expected: smaller K => fewer solver calls, more admitted\n"
              "cells, and a looser (but still valid) bound.\n\n");
}

void PushdownAblation() {
  std::printf("--- (b) predicate pushdown (Optimization 1) ---\n");
  workload::IntelWirelessOptions opts;
  opts.num_devices = 30;
  opts.num_epochs = 120;
  const Table full = workload::MakeIntelWireless(opts);
  auto split = workload::SplitTopValueCorrelated(full, 2, 0.3);
  Rng rng(5);
  const auto pcs = workload::MakeRandPCs(split.missing, {0, 1}, 2, 30, &rng);
  Predicate selective(full.num_columns());
  selective.AddRange(0, 3.0, 8.0).AddRange(1, 5.0, 15.0);

  std::printf("%-12s %-12s %-10s\n", "pushdown", "sat-calls", "cells");
  {
    const auto with = DecomposeCells(pcs, selective);
    std::printf("%-12s %-12zu %-10zu\n", "on", with.sat_calls,
                with.cells.size());
  }
  {
    const auto without = DecomposeCells(pcs, std::nullopt);
    std::printf("%-12s %-12zu %-10zu\n", "off", without.sat_calls,
                without.cells.size());
  }
  std::printf("Expected: pushdown restricts the decomposition to the\n"
              "query region and skips the bulk of the constraints.\n\n");
}

void OccupancyAblation() {
  std::printf("--- (c) MIN/MAX cell-occupancy checking ---\n");
  // Construct sets where frequency interactions block high-value cells.
  Rng rng(11);
  size_t tighter = 0, total = 0;
  double total_ratio = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    PredicateConstraintSet pcs;
    // A mandatory low-value region plus a capped global budget.
    Predicate low(2);
    low.AddRange(0, 0.0, 10.0);
    Box low_values(2);
    low_values.Constrain(1, Interval::Closed(0.0, rng.Uniform(3.0, 8.0)));
    const double mandatory = std::floor(rng.Uniform(1.0, 4.0));
    pcs.Add(PredicateConstraint(low, low_values, {mandatory, mandatory}));
    Predicate all(2);
    all.AddRange(0, 0.0, 50.0);
    Box all_values(2);
    all_values.Constrain(1, Interval::Closed(0.0, rng.Uniform(50.0, 150.0)));
    pcs.Add(PredicateConstraint(all, all_values,
                                {0.0, mandatory + std::floor(rng.Uniform(0.0, 2.0))}));

    PcBoundSolver::Options strict;
    strict.check_cell_occupancy = true;
    PcBoundSolver::Options loose;
    loose.check_cell_occupancy = false;
    PcBoundSolver a(pcs, {}, strict), b(pcs, {}, loose);
    const auto ra = a.Bound(AggQuery::Max(1));
    const auto rb = b.Bound(AggQuery::Max(1));
    if (!ra.ok() || !rb.ok()) continue;
    ++total;
    if (ra->hi < rb->hi - 1e-9) ++tighter;
    if (ra->hi > 0) total_ratio += rb->hi / ra->hi;
  }
  std::printf("occupancy check tightened MAX upper bound in %zu/%zu "
              "random instances (avg looseness without check: %.2fx)\n\n",
              tighter, total, total == 0 ? 0.0 : total_ratio / total);
}

void CliqueBounds() {
  std::printf("--- (d) k-clique counting bounds (paper §5.1) ---\n");
  std::printf("%-8s %-16s %-16s %-12s\n", "clique", "edge-cover",
              "Cartesian", "exponent");
  const double n = 1000.0;
  const double log_n = std::log(n);
  for (size_t k : {3, 4, 5, 6}) {
    const JoinHypergraph graph = JoinHypergraph::Clique(k);
    const size_t edges = graph.num_relations();
    const auto cover = MinimizeFractionalEdgeCover(
        graph, std::vector<double>(edges, log_n));
    if (!cover.ok()) continue;
    const double bound = std::exp(cover->log_bound);
    const double cartesian = std::pow(n, static_cast<double>(edges));
    std::printf("%-8zu %-16.4g %-16.4g N^%-10.2f\n", k, bound, cartesian,
                cover->log_bound / log_n);
  }
  std::printf("Expected: the AGM exponent k/2 (1.5, 2, 2.5, 3) versus the\n"
              "Cartesian exponent C(k,2); the gap grows exponentially,\n"
              "exactly the §5.1 observation about clique queries.\n");
}

/// Dinkelbach takes a handful of MILP solves per AVG end; the
/// bisection it replaced took about 40 per end.
constexpr size_t kMaxLpSolvesPerAvg = 15;

/// Returns false if a query failed, warm and cold solves disagree on a
/// bound's bytes, or an AVG query took more than kMaxLpSolvesPerAvg LP
/// solves.
bool WarmStartAblation(bench::JsonEmitter& json) {
  std::printf("\n--- (e) warm-started simplex across branch-and-bound ---\n");
  std::printf("%-12s %-12s %-12s %-14s %-12s\n", "warm-start", "lp-solves",
              "lp-pivots", "milp-nodes", "time-ms");
  // MIN/MAX/AVG over overlapping PCs: the MILP-heavy path (occupancy
  // checks + the AVG ratio iteration), several LP relaxations per query.
  const auto pcs = OverlappingPcs(12, 9);
  std::vector<AggQuery> queries;
  for (int q = 0; q < 6; ++q) {
    Predicate where(2);
    where.AddRange(0, 0.5 * q, 0.5 * q + 6.0);
    queries.push_back(AggQuery::Max(1, where));
    queries.push_back(AggQuery::Min(1, where));
    queries.push_back(AggQuery::Avg(1, where));
  }
  bool pass = true;
  size_t avg_queries = 0, avg_lp_solves = 0, avg_lp_solves_max = 0;
  std::vector<StatusOr<ResultRange>> cold;
  for (const bool warm : {false, true}) {
    PcBoundSolver::Options options;
    options.milp.use_warm_start = warm;
    PcBoundSolver solver(pcs, {}, options);
    std::vector<PcBoundSolver::SolveStats> per_query;
    bench::Stopwatch sw;
    const auto results =
        solver.BoundBatch(queries, /*num_threads=*/1, &per_query);
    const double ms = sw.ElapsedMs();
    size_t ok = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) ++ok;
      if (queries[i].agg != AggFunc::kAvg) continue;
      ++avg_queries;
      avg_lp_solves += per_query[i].lp_solves;
      avg_lp_solves_max = std::max(avg_lp_solves_max, per_query[i].lp_solves);
    }
    pass = pass && ok == results.size();
    if (!warm) {
      cold = results;
    } else {
      // The warm basis changes the pivot path, never the bounds.
      for (size_t i = 0; i < results.size() && pass; ++i) {
        pass = std::memcmp(&results[i]->lo, &cold[i]->lo, sizeof(double)) ==
                   0 &&
               std::memcmp(&results[i]->hi, &cold[i]->hi, sizeof(double)) == 0;
      }
    }
    const PcBoundSolver::SolveStats& stats = solver.last_stats();
    std::printf("%-12s %-12zu %-12zu %-14zu %-12.1f\n", warm ? "on" : "off",
                stats.lp_solves, stats.lp_pivots, stats.milp_nodes, ms);
    json.Add()
        .Str("section", "warm_start")
        .Str("warm_start", warm ? "on" : "off")
        .Num("queries_ok", static_cast<double>(ok))
        .Num("lp_solves", static_cast<double>(stats.lp_solves))
        .Num("lp_pivots", static_cast<double>(stats.lp_pivots))
        .Num("milp_nodes", static_cast<double>(stats.milp_nodes))
        .Num("time_ms", ms);
  }
  const double per_avg =
      static_cast<double>(avg_lp_solves) / static_cast<double>(avg_queries);
  std::printf("LP solves per AVG query: %.1f mean, %zu max (limit %zu)\n",
              per_avg, avg_lp_solves_max, kMaxLpSolvesPerAvg);
  pass = pass && avg_lp_solves_max <= kMaxLpSolvesPerAvg;
  std::printf("Expected: identical bounds; lp_pivots only a few percent\n"
              "smaller when children start from the parent basis, since\n"
              "Dinkelbach's iteration leaves only a few solves per query\n"
              "to chain (the 60-step AVG bisection it replaced saved about\n"
              "32%%); every query answers, with at most %zu LP solves per AVG.\n",
              kMaxLpSolvesPerAvg);
  return pass;
}

}  // namespace
}  // namespace pcx

int main() {
  auto json = pcx::bench::JsonEmitter::FromEnv("ablation_optimizations");
  std::printf("=== Ablation studies ===\n\n");
  pcx::EarlyStoppingAblation();
  pcx::PushdownAblation();
  pcx::OccupancyAblation();
  pcx::CliqueBounds();
  if (!pcx::WarmStartAblation(json)) {
    std::printf("FAIL: section (e) self-check\n");
    return 1;
  }
  return 0;
}
