#include "pc/bound_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/check.h"
#include "common/thread_pool.h"

namespace pcx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Steps of Dinkelbach's AVG ratio iteration before it gives up and
/// falls back to the bisection; it converges superlinearly and takes
/// a handful of steps in practice.
constexpr int kAvgDinkelbachIterations = 64;

/// Halvings of the fallback AVG bisection (it also stops at a 1e-9
/// bracket).
constexpr int kAvgSearchIterations = 60;

/// True when the query predicate region contains the whole predicate
/// box of `pc` — only then do the PC's mandatory rows (kappa.lo) have to
/// fall inside the query region.
bool QueryCoversConstraint(const std::optional<Predicate>& where,
                           const PredicateConstraint& pc) {
  if (!where.has_value()) return true;
  return where->box().Covers(pc.predicate().box());
}

}  // namespace

PcBoundSolver::PcBoundSolver(PredicateConstraintSet pcs,
                             std::vector<AttrDomain> domains)
    : PcBoundSolver(std::move(pcs), std::move(domains), Options{}) {}

PcBoundSolver::PcBoundSolver(PredicateConstraintSet pcs,
                             std::vector<AttrDomain> domains, Options options)
    : pcs_(std::move(pcs)),
      domains_(std::move(domains)),
      options_(options) {
  predicates_disjoint_ =
      options_.auto_disjoint_fast_path &&
      (options_.assume_predicates_disjoint ||
       pcs_.PredicatesDisjoint(domains_));
  if (options_.use_route_index && !pcs_.empty() && pcs_.num_attrs() > 0) {
    std::vector<Box> boxes;
    boxes.reserve(pcs_.size());
    for (size_t j = 0; j < pcs_.size(); ++j) {
      boxes.push_back(pcs_.at(j).predicate().box());
    }
    route_index_ = std::make_unique<const route::RouteIndex>(std::move(boxes),
                                                             domains_);
  }
  if (options_.persistent_sat_cache) {
    persistent_checker_ = std::make_unique<IntervalSatChecker>(domains_);
  }
}

std::optional<std::vector<uint32_t>> PcBoundSolver::RelevantFor(
    const AggQuery& query) const {
  // Without a WHERE the decomposition root is the universe and nothing
  // can be pruned; without an index there is nothing to prune with.
  if (route_index_ == nullptr || !query.where.has_value()) {
    return std::nullopt;
  }
  std::vector<uint32_t> relevant;
  route_index_->CollectIntersecting(query.where->box(), &relevant);
  return relevant;
}

StatusOr<std::vector<PcBoundSolver::CellBound>> PcBoundSolver::BuildCells(
    const AggQuery& query, size_t attr, SolveStats& stats) const {
  DecompositionResult decomp;
  // Route-index prefilter: hand the DFS only the PCs whose predicate
  // box intersects the WHERE box. Bit-identical (see DecomposeCells) —
  // the omitted PCs are exactly those the geometric fast path would
  // skip at every node anyway.
  const std::optional<std::vector<uint32_t>> relevant = RelevantFor(query);
  const std::vector<uint32_t>* relevant_ptr =
      relevant.has_value() ? &*relevant : nullptr;
  if (persistent_checker_ != nullptr) {
    // Serialized: the memoizing checker is single-threaded scratch
    // state. Verdicts are canonical, so sharing it across queries only
    // changes sat_cache_hits, never a bound.
    MutexLock lock(sat_mu_);
    decomp = DecomposeCellsWith(*persistent_checker_, pcs_, query.where,
                                options_.decomposition, relevant_ptr);
  } else {
    decomp = DecomposeCells(pcs_, query.where, options_.decomposition,
                            domains_, relevant_ptr);
  }
  stats.num_cells += decomp.cells.size();
  stats.sat_calls += decomp.sat_calls;
  stats.sat_cache_hits += decomp.sat_cache_hits;

  std::vector<CellBound> out;
  out.reserve(decomp.cells.size());
  for (Cell& cell : decomp.cells) {
    // The attribute values of a row in this cell are constrained by the
    // value boxes of every covering PC and by the cell's own region
    // (its positive box already includes the query pushdown).
    Box combined = cell.positive;
    for (size_t j : cell.covering) {
      combined.IntersectWith(pcs_.at(j).values());
    }
    if (combined.IsEmpty(domains_)) continue;  // no row can live here
    CellBound cb;
    cb.val_lo = combined.dim(attr).lo;
    cb.val_hi = combined.dim(attr).hi;
    cb.covering = std::move(cell.covering);
    out.push_back(std::move(cb));
  }
  return out;
}

LpModel PcBoundSolver::BuildAllocationModel(
    const std::vector<CellBound>& cells, const std::optional<Predicate>& where,
    double extra_min_rows) const {
  LpModel model;
  model.set_sense(OptSense::kMaximize);
  CoveringSet used;  // the PCs covering at least one cell
  for (const CellBound& cell : cells) used |= cell.covering;
  model.Reserve(cells.size(), used.Count() + 1);
  for (size_t i = 0; i < cells.size(); ++i) {
    model.AddVariable(0.0, 0.0, kInf, /*integer=*/true);
  }
  // One ranged frequency row per PC that covers at least one cell
  // (paper Eq. 2): kappa.lo <= sum_{i covered by j} x_i <= kappa.hi.
  // A frequency *lower* bound applies to all of the PC's rows; when
  // the query region only intersects part of the predicate those rows
  // may legitimately live outside the region, so the bound cannot be
  // imposed on the in-region allocation.
  for (size_t j = 0; j < pcs_.size(); ++j) {
    const FrequencyConstraint& k = pcs_.at(j).frequency();
    if (!used.Test(j)) {
      // No cell of this PC survived. If rows are mandatory the whole
      // set is unsatisfiable; encode with an impossible empty row on
      // x_0 or, if there are no variables at all, let the caller
      // handle it.
      if (k.lo > 0.0 && !cells.empty() &&
          QueryCoversConstraint(where, pcs_.at(j))) {
        LinearConstraint impossible;
        impossible.terms.push_back({0, 0.0});
        impossible.lo = k.lo;
        impossible.hi = kInf;
        model.AddConstraint(std::move(impossible));
      }
      continue;
    }
    LinearConstraint row;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].covering.Test(j)) {
        row.terms.push_back({i, 1.0});
      }
    }
    row.hi = k.hi;
    row.lo = QueryCoversConstraint(where, pcs_.at(j)) ? k.lo : 0.0;
    model.AddConstraint(std::move(row));
  }
  if (extra_min_rows > 0.0) {
    LinearConstraint row;
    for (size_t i = 0; i < cells.size(); ++i) row.terms.push_back({i, 1.0});
    row.lo = extra_min_rows;
    model.AddConstraint(std::move(row));
  }
  return model;
}

StatusOr<double> PcBoundSolver::MaximizeAllocation(
    LpModel& model, const std::vector<double>& objective, SolveStats& stats,
    SimplexSolver::WarmStart* warm, std::vector<double>* argmax) const {
  model.SetObjective(objective);
  BranchAndBoundSolver solver(options_.milp);
  const Solution sol = solver.Solve(model, warm);
  stats.milp_nodes += solver.last_num_nodes();
  stats.lp_pivots += solver.last_lp_pivots();
  ++stats.lp_solves;
  switch (sol.status) {
    case SolveStatus::kOptimal:
      if (argmax != nullptr) *argmax = sol.x;
      return sol.objective;
    case SolveStatus::kUnbounded:
      return kInf;
    case SolveStatus::kInfeasible:
      return Status::Infeasible(
          "predicate-constraint set admits no valid missing-row instance "
          "for this query");
    case SolveStatus::kIterationLimit:
      return Status::ResourceExhausted("MILP node/iteration limit reached");
  }
  return Status::Internal("unreachable");
}

StatusOr<bool> PcBoundSolver::EmptyInstancePossible(
    const AggQuery& query) const {
  // The zero allocation trivially satisfies every upper bound; it
  // violates only a kept frequency lower bound.
  for (size_t j = 0; j < pcs_.size(); ++j) {
    if (pcs_.at(j).frequency().lo > 0.0 &&
        QueryCoversConstraint(query.where, pcs_.at(j))) {
      return false;
    }
  }
  return true;
}

StatusOr<ResultRange> PcBoundSolver::BoundAvg(const AggQuery& query,
                                              SolveStats& stats) const {
  PCX_ASSIGN_OR_RETURN(std::vector<CellBound> cells,
                       BuildCells(query, query.attr, stats));
  ResultRange out;
  PCX_ASSIGN_OR_RETURN(out.empty_instance_possible,
                       EmptyInstancePossible(query));
  if (cells.empty()) {
    out.defined = false;
    return out;
  }

  // max AVG = max over allocations x with sum x >= 1 of
  // sum v_i x_i / sum x_i (paper §4.2). Dinkelbach's iteration solves
  // F(r) = max sum (v_i - r) x_i at r_0 = r_lo and then at the ratio of
  // each argmax; r rises every step and stops once F(r) <= 0. Every
  // solve shares the rows under a shifted objective, so the iteration
  // (and the negated lower pass) chains through one warm-start context
  // over one model: negating the values leaves the rows as they are.
  LpModel model =
      BuildAllocationModel(cells, query.where, /*extra_min_rows=*/1.0);
  SimplexSolver::WarmStart warm;
  auto upper_avg = [&](auto value_of) -> StatusOr<double> {
    double r_lo = kInf, r_hi = -kInf;
    for (const CellBound& c : cells) {
      r_lo = std::min(r_lo, c.val_lo);
      r_hi = std::max(r_hi, value_of(c));
    }
    if (r_hi == kInf) return kInf;
    if (r_lo == -kInf) r_lo = std::min(r_hi, -1e18);
    std::vector<double> obj(cells.size());
    auto solve_at = [&](double r, std::vector<double>* argmax) {
      for (size_t i = 0; i < cells.size(); ++i) {
        obj[i] = value_of(cells[i]) - r;
      }
      return MaximizeAllocation(model, obj, stats, &warm, argmax);
    };

    const SimplexSolver::WarmStart entry_warm = warm;
    std::vector<double> x;
    double r = r_lo;
    for (int it = 0; it < kAvgDinkelbachIterations; ++it) {
      StatusOr<double> f = solve_at(r, &x);
      if (!f.ok() && f.status().code() == StatusCode::kInfeasible) {
        return Status::Infeasible("no instance with a matching row");
      }
      if (!f.ok() || *f == kInf) break;  // node limit or unbounded F
      double rows = 0.0, total = 0.0;
      for (size_t i = 0; i < cells.size(); ++i) {
        rows += x[i];
        total += value_of(cells[i]) * x[i];
      }
      const double next = total / rows;
      if (*f <= 1e-12 * std::max(1.0, std::fabs(r)) || !(next > r)) {
        // Any allocation with sum x >= 1 has ratio
        // <= r + F(r) / sum x <= r + max(F(r), 0); one ulp up absorbs
        // the rounding of the sum.
        return std::nextafter(r + std::max(*f, 0.0), kInf);
      }
      r = next;
    }

    // Fallback: the bisection on feasible(r) = (F(r) >= 0), from the
    // entry basis, exactly as it ran before the ratio iteration. It
    // tolerates an unbounded F and reports a node limit as an error.
    warm = entry_warm;
    auto feasible = [&](double ratio) -> StatusOr<bool> {
      PCX_ASSIGN_OR_RETURN(const double f, solve_at(ratio, nullptr));
      return f >= -1e-9;
    };
    PCX_ASSIGN_OR_RETURN(const bool any, feasible(r_lo));
    if (!any) return Status::Infeasible("no instance with a matching row");
    // Invariant: r_lo is feasible, and `hi` is r_hi or a ratio found
    // infeasible, so the optimum lies in [lo, hi]. The bracket's
    // infeasible end is the sound upper bound; `lo` may sit below the
    // optimum by the final bracket width (about 0.9 when the search
    // starts from -1e18).
    double lo = r_lo, hi = r_hi;
    for (int it = 0; it < kAvgSearchIterations && hi - lo > 1e-9; ++it) {
      const double mid = lo + (hi - lo) / 2.0;
      PCX_ASSIGN_OR_RETURN(const bool f, feasible(mid));
      if (f) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return hi;
  };

  // Upper end on the values; lower end by negation symmetry:
  // min AVG(v) = -max AVG(-v).
  auto hi_res = upper_avg([](const CellBound& c) { return c.val_hi; });
  if (!hi_res.ok()) {
    if (hi_res.status().code() == StatusCode::kInfeasible) {
      out.defined = false;
      return out;
    }
    return hi_res.status();
  }
  out.hi = *hi_res;

  NegateValues(cells);  // the lambda captures `cells` by reference
  auto lo_res = upper_avg([](const CellBound& c) { return c.val_hi; });
  if (!lo_res.ok()) return lo_res.status();
  out.lo = -*lo_res;
  return out;
}

void PcBoundSolver::NegateValues(std::vector<CellBound>& cells) {
  for (CellBound& c : cells) {
    const double lo = c.val_lo;
    c.val_lo = -c.val_hi;
    c.val_hi = -lo;
  }
}

StatusOr<ResultRange> PcBoundSolver::BoundMax(const AggQuery& query,
                                              bool negate,
                                              SolveStats& stats) const {
  PCX_ASSIGN_OR_RETURN(std::vector<CellBound> cells,
                       BuildCells(query, query.attr, stats));
  if (negate) NegateValues(cells);
  ResultRange out;
  PCX_ASSIGN_OR_RETURN(out.empty_instance_possible,
                       EmptyInstancePossible(query));
  if (cells.empty()) {
    out.defined = false;
    return out;
  }

  // Can cell i receive at least one row in a valid allocation? The scan
  // re-solves the same rows with a moving unit objective — chained
  // through one warm-start context.
  LpModel model;
  if (options_.check_cell_occupancy) {
    model = BuildAllocationModel(cells, query.where);
  }
  SimplexSolver::WarmStart warm;
  std::vector<double> obj(cells.size(), 0.0);
  auto occupiable = [&](size_t i) -> StatusOr<bool> {
    if (!options_.check_cell_occupancy) return true;
    obj[i] = 1.0;
    auto opt = MaximizeAllocation(model, obj, stats, &warm);
    obj[i] = 0.0;
    if (!opt.ok()) {
      if (opt.status().code() == StatusCode::kInfeasible) return false;
      return opt.status();
    }
    return *opt >= 1.0 - 1e-9;
  };

  // Upper end: largest value bound among occupiable cells (paper §4.2).
  std::vector<size_t> order(cells.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return cells[a].val_hi > cells[b].val_hi;
  });
  bool found = false;
  for (size_t i : order) {
    PCX_ASSIGN_OR_RETURN(const bool occ, occupiable(i));
    if (occ) {
      out.hi = cells[i].val_hi;
      found = true;
      break;
    }
  }
  if (!found) {
    out.defined = false;
    return out;
  }

  // Lower end: the smallest value the MAX could take over instances with
  // at least one matching row — the least threshold t such that a valid
  // allocation uses only cells whose value interval reaches below t.
  std::vector<double> thresholds;
  for (const CellBound& c : cells) thresholds.push_back(c.val_lo);
  std::sort(thresholds.begin(), thresholds.end());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());
  out.lo = out.hi;
  for (double t : thresholds) {
    std::vector<CellBound> allowed;
    for (const CellBound& c : cells) {
      if (c.val_lo <= t) allowed.push_back(c);
    }
    LpModel allowed_model =
        BuildAllocationModel(allowed, query.where, /*extra_min_rows=*/1.0);
    const std::vector<double> zero(allowed.size(), 0.0);
    auto feas = MaximizeAllocation(allowed_model, zero, stats);
    if (feas.ok()) {
      out.lo = t;
      break;
    }
    if (feas.status().code() != StatusCode::kInfeasible) {
      return feas.status();
    }
  }
  return out;
}

StatusOr<double> PcBoundSolver::DisjointUpper(
    const AggQuery& query, const std::optional<std::vector<uint32_t>>& relevant,
    bool count, bool negate) const {
  // A j missing from `relevant` is exactly one with pred ∩ WHERE empty
  // under the domains, which the loop body would `continue` past before
  // touching the total or the infeasibility check — same result, fewer
  // IntersectionEmpty probes.
  const size_t limit = relevant.has_value() ? relevant->size() : pcs_.size();
  double total = 0.0;
  for (size_t jj = 0; jj < limit; ++jj) {
    const size_t j = relevant.has_value() ? (*relevant)[jj] : jj;
    const PredicateConstraint& pc = pcs_.at(j);
    Box region = pc.predicate().box();
    if (query.where.has_value()) {
      region.IntersectWith(query.where->box());
    }
    if (region.IsEmpty(domains_)) continue;
    region.IntersectWith(pc.values());
    const Box& combined = region;
    const double k_hi = pc.frequency().hi;
    const double k_lo =
        QueryCoversConstraint(query.where, pc) ? pc.frequency().lo : 0.0;
    if (combined.IsEmpty(domains_)) {
      if (k_lo > 0.0) {
        return Status::Infeasible("mandatory rows with empty value range");
      }
      continue;
    }
    if (count) {
      total += k_hi;
      continue;
    }
    // Negated, the per-row bound is -lo: max SUM(-v) over the same box.
    const double u = negate ? -combined.dim(query.attr).lo
                            : combined.dim(query.attr).hi;
    if (u == kInf && k_hi > 0.0) return kInf;
    // Allocate the maximum count at positive per-row values, otherwise
    // only the mandatory rows.
    total += u > 0.0 ? u * k_hi : u * k_lo;
  }
  return total;
}

StatusOr<ResultRange> PcBoundSolver::BoundImpl(const AggQuery& query,
                                               SolveStats& stats) const {
  if (query.agg != AggFunc::kCount) {
    if (!pcs_.empty() && query.attr >= pcs_.num_attrs()) {
      return Status::InvalidArgument("aggregate attribute out of range");
    }
  }
  if (pcs_.empty()) {
    // No constraints on missing rows: nothing is known to be missing.
    ResultRange r;
    r.empty_instance_possible = true;
    r.defined = query.agg == AggFunc::kCount || query.agg == AggFunc::kSum;
    return r;
  }

  switch (query.agg) {
    case AggFunc::kSum: {
      if (predicates_disjoint_) {
        stats.used_disjoint_fast_path = true;
        const std::optional<std::vector<uint32_t>> relevant =
            RelevantFor(query);
        PCX_ASSIGN_OR_RETURN(const double hi,
                             DisjointUpper(query, relevant, /*count=*/false,
                                           /*negate=*/false));
        // min SUM(v) = -max SUM(-v) over the same PCs.
        PCX_ASSIGN_OR_RETURN(const double neg_hi,
                             DisjointUpper(query, relevant, /*count=*/false,
                                           /*negate=*/true));
        ResultRange r;
        r.hi = hi;
        r.lo = -neg_hi;
        PCX_ASSIGN_OR_RETURN(r.empty_instance_possible,
                             EmptyInstancePossible(query));
        return r;
      }
      PCX_ASSIGN_OR_RETURN(std::vector<CellBound> cells,
                           BuildCells(query, query.attr, stats));
      ResultRange r;
      PCX_ASSIGN_OR_RETURN(r.empty_instance_possible,
                           EmptyInstancePossible(query));
      if (cells.empty()) return r;  // [0, 0]
      // min sum(val_lo * x) = -max sum(-val_lo * x).
      std::vector<double> obj_hi(cells.size()), neg_lo(cells.size());
      for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].val_hi == kInf) {
          r.hi = kInf;
        }
        if (cells[i].val_lo == -kInf) {
          r.lo = -kInf;
        }
        obj_hi[i] = std::min(cells[i].val_hi, 1e300);
        neg_lo[i] = -std::max(cells[i].val_lo, -1e300);
      }
      // The upper and lower solves share rows; chain them warm.
      LpModel model = BuildAllocationModel(cells, query.where);
      SimplexSolver::WarmStart warm;
      if (r.hi != kInf) {
        PCX_ASSIGN_OR_RETURN(r.hi,
                             MaximizeAllocation(model, obj_hi, stats, &warm));
      }
      if (r.lo != -kInf) {
        PCX_ASSIGN_OR_RETURN(const double m,
                             MaximizeAllocation(model, neg_lo, stats, &warm));
        r.lo = -m;
      }
      return r;
    }
    case AggFunc::kCount: {
      if (predicates_disjoint_) {
        stats.used_disjoint_fast_path = true;
        PCX_ASSIGN_OR_RETURN(const double hi,
                             DisjointUpper(query, RelevantFor(query),
                                           /*count=*/true, /*negate=*/false));
        double lo = 0.0;
        for (size_t j = 0; j < pcs_.size(); ++j) {
          const PredicateConstraint& pc = pcs_.at(j);
          if (QueryCoversConstraint(query.where, pc)) {
            lo += pc.frequency().lo;
          }
        }
        ResultRange r;
        r.hi = hi;
        r.lo = lo;
        r.empty_instance_possible = lo == 0.0;
        return r;
      }
      PCX_ASSIGN_OR_RETURN(std::vector<CellBound> cells,
                           BuildCells(query, query.attr, stats));
      ResultRange r;
      PCX_ASSIGN_OR_RETURN(r.empty_instance_possible,
                           EmptyInstancePossible(query));
      if (cells.empty()) return r;
      LpModel model = BuildAllocationModel(cells, query.where);
      SimplexSolver::WarmStart warm;
      std::vector<double> obj(cells.size(), 1.0);
      PCX_ASSIGN_OR_RETURN(r.hi, MaximizeAllocation(model, obj, stats, &warm));
      std::fill(obj.begin(), obj.end(), -1.0);
      PCX_ASSIGN_OR_RETURN(const double m,
                           MaximizeAllocation(model, obj, stats, &warm));
      r.lo = -m;
      return r;
    }
    case AggFunc::kAvg:
      return BoundAvg(query, stats);
    case AggFunc::kMax:
      return BoundMax(query, /*negate=*/false, stats);
    case AggFunc::kMin: {
      // MIN over v is -MAX over -v: the same cells, values negated.
      PCX_ASSIGN_OR_RETURN(ResultRange m,
                           BoundMax(query, /*negate=*/true, stats));
      ResultRange r = m;
      r.lo = -m.hi;
      r.hi = -m.lo;
      return r;
    }
  }
  return Status::Internal("unreachable aggregate");
}

StatusOr<ResultRange> PcBoundSolver::Bound(const AggQuery& query) const {
  SolveStats stats;
  auto result = BoundImpl(query, stats);
  stats_ = stats;
  return result;
}

StatusOr<ResultRange> PcBoundSolver::BoundWithStats(const AggQuery& query,
                                                    SolveStats& stats) const {
  return BoundImpl(query, stats);
}

std::vector<StatusOr<ResultRange>> PcBoundSolver::BoundBatch(
    std::span<const AggQuery> queries, size_t num_threads,
    std::vector<SolveStats>* per_query_stats) const {
  std::vector<std::optional<StatusOr<ResultRange>>> slots(queries.size());
  std::vector<SolveStats> stats(queries.size());

  // Each worker touches only its own slot; the solver itself is read
  // shared but never written (BoundImpl threads stats explicitly), so
  // any schedule produces the same bytes as a sequential loop.
  auto run_one = [&](size_t i) {
    slots[i].emplace(BoundImpl(queries[i], stats[i]));
  };
  if (num_threads == 1 || queries.size() <= 1) {
    for (size_t i = 0; i < queries.size(); ++i) run_one(i);
  } else {
    ThreadPool pool(num_threads);
    pool.ParallelFor(queries.size(), run_one);
  }

  SolveStats total;
  for (const SolveStats& s : stats) total += s;
  stats_ = total;
  if (per_query_stats != nullptr) *per_query_stats = std::move(stats);

  std::vector<StatusOr<ResultRange>> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(*std::move(slot));
  return out;
}

}  // namespace pcx
