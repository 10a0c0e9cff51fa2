#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/check.h"

namespace pcx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint32_t kNoColumn = UINT32_MAX;

/// One normalized row a'y (cmp) rhs with cmp in {<=, >=, ==}.
enum class RowType { kLe, kGe, kEq };

/// Full-tableau simplex working state, stored row-major in one flat
/// array of num_rows x num_cols.
struct Tableau {
  // col layout: structural vars, slack/surplus vars, artificial vars.
  std::vector<double> a;
  std::vector<double> b;       // rhs per row, kept >= 0
  std::vector<double> obj;     // reduced-cost row
  double obj_value = 0.0;      // objective of current basis
  std::vector<size_t> basis;   // basic variable per row
  size_t num_rows = 0;
  size_t num_structural = 0;
  size_t first_artificial = 0;  // columns >= this are artificial
  size_t num_cols = 0;

  /// Sizes the tableau to rows x cols, all zero.
  void Reset(size_t rows, size_t cols) {
    num_rows = rows;
    num_cols = cols;
    a.assign(rows * cols, 0.0);
    b.assign(rows, 0.0);
    basis.assign(rows, SIZE_MAX);
  }
  double* row(size_t r) {
    PCX_DCHECK(r < num_rows);
    return a.data() + r * num_cols;
  }
  double& at(size_t r, size_t c) {
    PCX_DCHECK(r < num_rows && c < num_cols);
    return a[r * num_cols + c];
  }
};

/// Per-thread scratch of one solve. Every buffer keeps its capacity
/// from solve to solve, so once a thread has solved a model of a given
/// size, later solves of that size allocate only Solution::x.
struct Workspace {
  // The model's rows over the shifted variables y = x - lo, before
  // rhs normalization: row r's coefficients are
  // row_a[r * n .. (r + 1) * n).
  std::vector<double> row_a;
  std::vector<double> row_b;
  std::vector<RowType> row_type;
  std::vector<uint32_t> row_id;  // semantic id (see WarmStart)
  std::vector<double> shift;     // lo per variable
  std::vector<double> c;         // maximized objective over y

  Tableau t;
  std::vector<uint32_t> slack_owner;  // row id owning slack column n + k
  std::vector<size_t> needs_artificial;
  // Warm path only, indexed by semantic row id.
  std::vector<size_t> row_by_id;
  std::vector<uint32_t> warm_by_row;
  std::vector<size_t> slack_col;  // per row: its slack column
  std::vector<size_t> desired;    // per row: the column to install
  std::vector<bool> claimed;
  std::vector<bool> installed;
};

Workspace& ThreadWorkspace() {
  thread_local Workspace workspace;
  return workspace;
}

/// Materializes the model's rows over the shifted variables into the
/// workspace. Row ids follow the WarmStart convention so a basis
/// extracted from one model can be re-installed on a bound-edited
/// sibling.
void BuildRows(const LpModel& model, Workspace* ws) {
  const size_t n = model.num_variables();
  ws->row_a.clear();
  ws->row_b.clear();
  ws->row_type.clear();
  ws->row_id.clear();
  auto add_row = [&](double b, RowType type, size_t id) {
    ws->row_b.push_back(b);
    ws->row_type.push_back(type);
    ws->row_id.push_back(static_cast<uint32_t>(id));
  };
  const auto& constraints = model.constraints();
  for (size_t j = 0; j < constraints.size(); ++j) {
    const auto& cons = constraints[j];
    const size_t start = ws->row_a.size();
    ws->row_a.resize(start + n, 0.0);
    double base = 0.0;
    for (const auto& [v, coef] : cons.terms) {
      ws->row_a[start + v] += coef;
      base += coef * ws->shift[v];
    }
    if (cons.lo == cons.hi) {
      add_row(cons.lo - base, RowType::kEq, 2 * j);
      continue;
    }
    bool have_row = false;
    if (cons.hi < kInf) {
      add_row(cons.hi - base, RowType::kLe, 2 * j);
      have_row = true;
    }
    if (cons.lo > -kInf) {
      if (have_row) {  // the >= side repeats the <= side's coefficients
        ws->row_a.resize(start + 2 * n);
        std::copy_n(ws->row_a.begin() + static_cast<ptrdiff_t>(start), n,
                    ws->row_a.begin() + static_cast<ptrdiff_t>(start + n));
      }
      add_row(cons.lo - base, RowType::kGe, 2 * j + 1);
      have_row = true;
    }
    if (!have_row) ws->row_a.resize(start);  // a free row constrains nothing
  }
  // Finite upper bounds become rows (lower bounds are the shift).
  for (size_t i = 0; i < n; ++i) {
    if (model.var_hi()[i] < kInf) {
      const size_t start = ws->row_a.size();
      ws->row_a.resize(start + n, 0.0);
      ws->row_a[start + i] = 1.0;
      add_row(model.var_hi()[i] - ws->shift[i], RowType::kLe,
              2 * constraints.size() + i);
    }
  }
}

void Pivot(Tableau* t, size_t row, size_t col) {
  double* prow = t->row(row);
  const double p = prow[col];
  PCX_DCHECK(std::fabs(p) > 1e-12);
  const double inv = 1.0 / p;
  for (size_t c = 0; c < t->num_cols; ++c) prow[c] *= inv;
  t->b[row] *= inv;
  for (size_t r = 0; r < t->num_rows; ++r) {
    if (r == row) continue;
    double* ar = t->row(r);
    const double f = ar[col];
    if (f == 0.0) continue;
    for (size_t c = 0; c < t->num_cols; ++c) ar[c] -= f * prow[c];
    ar[col] = 0.0;  // avoid drift
    t->b[r] -= f * t->b[row];
    if (t->b[r] < 0.0 && t->b[r] > -1e-11) t->b[r] = 0.0;
  }
  const double f = t->obj[col];
  if (f != 0.0) {
    for (size_t c = 0; c < t->num_cols; ++c) t->obj[c] -= f * prow[c];
    t->obj[col] = 0.0;
    t->obj_value -= f * t->b[row];
  }
  t->basis[row] = col;
}

/// Subtracts each basic column's multiple of its row from the objective
/// row, so basic columns have zero reduced cost.
void Canonicalize(Tableau* t) {
  for (size_t r = 0; r < t->num_rows; ++r) {
    const size_t bcol = t->basis[r];
    const double f = t->obj[bcol];
    if (f != 0.0) {
      const double* ar = t->row(r);
      for (size_t c = 0; c < t->num_cols; ++c) t->obj[c] -= f * ar[c];
      t->obj[bcol] = 0.0;
      t->obj_value -= f * t->b[r];
    }
  }
}

/// Runs simplex iterations maximizing the current objective row. Only
/// columns below `col_limit` may enter the basis (the artificials are a
/// suffix, barred in phase 2). Each pivot taken is added to `*pivots`.
SolveStatus Iterate(Tableau* t, size_t col_limit,
                    const SimplexSolver::Options& opts, size_t* pivots) {
  const size_t bland_threshold =
      static_cast<size_t>(opts.max_iterations) / 2;
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    // Entering column: most positive reduced cost (Dantzig), switching
    // to Bland's rule (lowest index) if we run long enough that cycling
    // is conceivable.
    size_t enter = t->num_cols;
    const bool bland = static_cast<size_t>(iter) > bland_threshold;
    double best = opts.eps;
    for (size_t c = 0; c < col_limit; ++c) {
      if (t->obj[c] > best) {
        enter = c;
        if (bland) break;
        best = t->obj[c];
      }
    }
    if (enter == t->num_cols) return SolveStatus::kOptimal;

    // Leaving row: min ratio test; Bland tie-break on basis index.
    size_t leave = t->num_rows;
    double best_ratio = kInf;
    for (size_t r = 0; r < t->num_rows; ++r) {
      const double coef = t->at(r, enter);
      if (coef > opts.eps) {
        const double ratio = t->b[r] / coef;
        if (ratio < best_ratio - opts.eps ||
            (ratio < best_ratio + opts.eps && leave != t->num_rows &&
             t->basis[r] < t->basis[leave])) {
          best_ratio = ratio;
          leave = r;
        }
      }
    }
    if (leave == t->num_rows) return SolveStatus::kUnbounded;
    Pivot(t, leave, enter);
    ++*pivots;
  }
  return SolveStatus::kIterationLimit;
}

/// Writes the tableau's final basis into `warm` using semantic ids.
/// `slack_owner[k]` is the row id owning slack column num_structural + k.
/// A basis still containing an artificial is not portable; the warm
/// start is cleared instead.
void ExtractWarmStart(const Tableau& t, const std::vector<uint32_t>& row_ids,
                      const std::vector<uint32_t>& slack_owner,
                      SimplexSolver::WarmStart* warm) {
  warm->Clear();
  for (size_t r = 0; r < t.num_rows; ++r) {
    const size_t bcol = t.basis[r];
    uint32_t semantic;
    if (bcol < t.num_structural) {
      semantic = static_cast<uint32_t>(bcol);
    } else if (bcol < t.first_artificial) {
      semantic = static_cast<uint32_t>(t.num_structural) +
                 slack_owner[bcol - t.num_structural];
    } else {
      warm->Clear();
      return;
    }
    warm->basis.push_back({row_ids[r], semantic});
  }
}

/// Attempts the warm-started path: install the carried basis with
/// Gauss-Jordan pivots, restore primal feasibility with dual simplex,
/// then polish with the primal. Returns nullopt whenever anything —
/// basis mismatch, numerical drift, a failed verification — suggests
/// the cold path should decide instead. kInfeasible/kUnbounded returns
/// are exact conclusions, not fallbacks.
std::optional<Solution> TryWarmSolve(const LpModel& model, Workspace* ws,
                                     const SimplexSolver::Options& options,
                                     SimplexSolver::WarmStart* warm) {
  const size_t n = model.num_variables();
  const size_t m = ws->row_b.size();
  const std::vector<uint32_t>& row_ids = ws->row_id;

  size_t num_slack = 0;
  for (RowType type : ws->row_type) {
    if (type != RowType::kEq) ++num_slack;
  }
  Tableau& t = ws->t;
  t.num_structural = n;
  t.first_artificial = n + num_slack;  // no artificials on the warm path
  t.Reset(m, t.first_artificial);

  // Semantic row ids are dense: below 2 * constraints + variables.
  const size_t id_limit = 2 * model.num_constraints() + n;
  ws->slack_owner.resize(num_slack);
  ws->slack_col.assign(m, SIZE_MAX);
  ws->row_by_id.assign(id_limit, SIZE_MAX);
  size_t next_slack = n;
  for (size_t r = 0; r < m; ++r) {
    ws->row_by_id[row_ids[r]] = r;
    double* ar = t.row(r);
    std::copy_n(ws->row_a.begin() + static_cast<ptrdiff_t>(r * n), n, ar);
    t.b[r] = ws->row_b[r];
    if (ws->row_type[r] != RowType::kEq) {
      ar[next_slack] = ws->row_type[r] == RowType::kLe ? 1.0 : -1.0;
      ws->slack_owner[next_slack - n] = row_ids[r];
      ws->slack_col[r] = next_slack;
      ++next_slack;
    }
  }

  // Resolve the carried basis to concrete columns. Rows the warm start
  // does not know (a variable bound that just became finite) default to
  // their own slack — exactly the "extend the basis block-diagonally"
  // step that keeps the parent's reduced costs dual feasible. Only the
  // first entry per row id counts; ids this model does not have are
  // never looked up.
  ws->warm_by_row.assign(id_limit, kNoColumn);
  for (const auto& [row_id, col] : warm->basis) {
    if (row_id < id_limit && ws->warm_by_row[row_id] == kNoColumn) {
      ws->warm_by_row[row_id] = col;
    }
  }
  ws->desired.assign(m, SIZE_MAX);
  ws->claimed.assign(t.num_cols, false);
  for (size_t r = 0; r < m; ++r) {
    size_t col;
    const uint32_t semantic = ws->warm_by_row[row_ids[r]];
    if (semantic != kNoColumn) {
      if (semantic < n) {
        col = semantic;
      } else {
        const size_t owner_id = semantic - n;
        if (owner_id >= id_limit || ws->row_by_id[owner_id] == SIZE_MAX) {
          return std::nullopt;
        }
        col = ws->slack_col[ws->row_by_id[owner_id]];
        if (col == SIZE_MAX) return std::nullopt;
      }
    } else {
      col = ws->slack_col[r];  // new row: its slack joins the basis
      if (col == SIZE_MAX) return std::nullopt;
    }
    if (ws->claimed[col]) return std::nullopt;
    ws->claimed[col] = true;
    ws->desired[r] = col;
  }

  // Phase-2 objective first, so the install pivots canonicalize the
  // reduced costs as they go.
  t.obj.assign(t.num_cols, 0.0);
  std::copy_n(ws->c.begin(), n, t.obj.begin());
  t.obj_value = 0.0;

  Solution out;
  out.warm_used = true;

  // Gauss-Jordan basis install: pivot each desired column into its row,
  // in whatever order keeps the pivot elements well-conditioned. Each
  // install is a full-tableau elimination — the same work as a simplex
  // pivot — so it counts toward Solution::pivots to keep the
  // warm-vs-cold lp_pivots comparison honest.
  ws->installed.assign(m, false);
  for (size_t remaining = m; remaining > 0;) {
    size_t progress = 0;
    for (size_t r = 0; r < m; ++r) {
      if (ws->installed[r]) continue;
      if (std::fabs(t.at(r, ws->desired[r])) > 1e-7) {
        Pivot(&t, r, ws->desired[r]);
        ++out.pivots;
        ws->installed[r] = true;
        ++progress;
      }
    }
    if (progress == 0) return std::nullopt;  // singular / drifted basis
    remaining -= progress;
  }

  bool primal_infeasible = false;
  for (size_t r = 0; r < m; ++r) {
    if (t.b[r] < -options.feas_tol) {
      primal_infeasible = true;
      break;
    }
  }
  if (primal_infeasible) {
    // The dual simplex needs dual-feasible reduced costs to preserve.
    for (size_t col = 0; col < t.num_cols; ++col) {
      if (t.obj[col] > 1e-7) return std::nullopt;
    }
    for (int iter = 0;; ++iter) {
      if (iter >= options.max_iterations) return std::nullopt;
      // Leaving row: most negative rhs.
      size_t leave = m;
      double most_negative = -options.feas_tol;
      for (size_t r = 0; r < m; ++r) {
        if (t.b[r] < most_negative) {
          most_negative = t.b[r];
          leave = r;
        }
      }
      if (leave == m) break;  // primal feasible again
      // Entering column: dual ratio test over negative row entries.
      // Only a strictly better ratio replaces the incumbent, so ties
      // keep the lowest column index (Bland-style) by construction.
      size_t enter = t.num_cols;
      double best_ratio = kInf;
      const double* lrow = t.row(leave);
      for (size_t col = 0; col < t.num_cols; ++col) {
        const double coef = lrow[col];
        if (coef < -options.eps) {
          const double ratio = t.obj[col] / coef;  // >= 0: both <= 0
          if (ratio < best_ratio - options.eps) {
            best_ratio = ratio;
            enter = col;
          }
        }
      }
      if (enter == t.num_cols) {
        // b[leave] < 0 with an all-nonnegative row: no feasible point.
        out.status = SolveStatus::kInfeasible;
        return out;
      }
      Pivot(&t, leave, enter);
      ++out.pivots;
    }
    for (size_t r = 0; r < m; ++r) {
      if (t.b[r] < 0.0) t.b[r] = 0.0;  // clamp feas_tol-sized residue
    }
  }

  const SolveStatus p2 = Iterate(&t, t.num_cols, options, &out.pivots);
  if (p2 == SolveStatus::kUnbounded) {
    out.status = SolveStatus::kUnbounded;
    return out;
  }
  if (p2 == SolveStatus::kIterationLimit) return std::nullopt;

  out.status = SolveStatus::kOptimal;
  out.x.assign(n, 0.0);
  for (size_t r = 0; r < m; ++r) {
    if (t.basis[r] < n) out.x[t.basis[r]] = t.b[r];
  }

  // Cheap certificate against numerical drift: the recovered point must
  // satisfy the original rows; otherwise discard the warm attempt.
  for (size_t r = 0; r < m; ++r) {
    const double* a = ws->row_a.data() + r * n;
    const double b = ws->row_b[r];
    double lhs = 0.0;
    for (size_t i = 0; i < n; ++i) lhs += a[i] * out.x[i];
    const double tol = 1e-6 * std::max(1.0, std::fabs(b));
    const RowType type = ws->row_type[r];
    const bool ok = type == RowType::kLe   ? lhs <= b + tol
                    : type == RowType::kGe ? lhs >= b - tol
                                           : std::fabs(lhs - b) <= tol;
    if (!ok) return std::nullopt;
  }
  for (size_t i = 0; i < n; ++i) {
    if (out.x[i] < -1e-9) return std::nullopt;
    out.x[i] += ws->shift[i];
  }
  double z = 0.0;
  for (size_t i = 0; i < n; ++i) z += model.objective()[i] * out.x[i];
  out.objective = z;

  ExtractWarmStart(t, row_ids, ws->slack_owner, warm);
  return out;
}

/// Cold two-phase solve over the workspace's rows; fills `warm` (when
/// given) with the final basis.
Solution ColdSolve(const LpModel& model, double c0, Workspace* ws,
                   const SimplexSolver::Options& options,
                   SimplexSolver::WarmStart* warm) {
  const size_t n = model.num_variables();
  const bool maximize = model.sense() == OptSense::kMaximize;
  const size_t m = ws->row_b.size();

  // Column layout: n structural + one slack/surplus per inequality row
  // + one artificial per row that is >= or == once its rhs is made
  // nonnegative.
  size_t num_slack = 0;
  ws->needs_artificial.clear();
  for (size_t r = 0; r < m; ++r) {
    RowType type = ws->row_type[r];
    if (type != RowType::kEq) ++num_slack;
    if (ws->row_b[r] < 0.0 && type != RowType::kEq) {
      type = type == RowType::kLe ? RowType::kGe : RowType::kLe;
    }
    if (type != RowType::kLe) ws->needs_artificial.push_back(r);
  }
  const size_t num_art = ws->needs_artificial.size();
  Tableau& t = ws->t;
  t.num_structural = n;
  t.first_artificial = n + num_slack;
  t.Reset(m, t.first_artificial + num_art);

  ws->slack_owner.resize(num_slack);
  size_t slack_idx = n;
  for (size_t r = 0; r < m; ++r) {
    double* ar = t.row(r);
    const double* src = ws->row_a.data() + r * n;
    RowType type = ws->row_type[r];
    if (ws->row_b[r] < 0.0) {  // normalize rhs >= 0
      for (size_t c = 0; c < n; ++c) ar[c] = -src[c];
      t.b[r] = -ws->row_b[r];
      if (type == RowType::kLe) {
        type = RowType::kGe;
      } else if (type == RowType::kGe) {
        type = RowType::kLe;
      }
    } else {
      std::copy_n(src, n, ar);
      t.b[r] = ws->row_b[r];
    }
    if (type == RowType::kLe) {
      ar[slack_idx] = 1.0;
      t.basis[r] = slack_idx;  // slack starts basic
      ws->slack_owner[slack_idx - n] = ws->row_id[r];
      ++slack_idx;
    } else if (type == RowType::kGe) {
      ar[slack_idx] = -1.0;  // surplus
      ws->slack_owner[slack_idx - n] = ws->row_id[r];
      ++slack_idx;
    }
  }
  PCX_CHECK_EQ(slack_idx, n + num_slack);
  for (size_t k = 0; k < num_art; ++k) {
    const size_t r = ws->needs_artificial[k];
    const size_t col = t.first_artificial + k;
    t.at(r, col) = 1.0;
    t.basis[r] = col;
  }

  Solution out;
  // ---- Phase 1: maximize -sum(artificials). ----
  if (num_art > 0) {
    t.obj.assign(t.num_cols, 0.0);
    t.obj_value = 0.0;
    for (size_t k = 0; k < num_art; ++k) t.obj[t.first_artificial + k] = -1.0;
    Canonicalize(&t);
    const SolveStatus p1 = Iterate(&t, t.num_cols, options, &out.pivots);
    if (p1 == SolveStatus::kIterationLimit) {
      out.status = SolveStatus::kIterationLimit;
      return out;
    }
    // Current phase-1 objective (max of -sum(artificials)) is
    // -obj_value; it must be ~0 for feasibility.
    if (t.obj_value > options.feas_tol) {
      out.status = SolveStatus::kInfeasible;
      return out;
    }
    // Pivot any artificial still in the basis out (value must be ~0).
    for (size_t r = 0; r < m; ++r) {
      if (t.basis[r] >= t.first_artificial) {
        const double* ar = t.row(r);
        size_t enter = t.num_cols;
        for (size_t cc = 0; cc < t.first_artificial; ++cc) {
          if (std::fabs(ar[cc]) > options.eps) {
            enter = cc;
            break;
          }
        }
        if (enter != t.num_cols) Pivot(&t, r, enter);
        // else: redundant row; the artificial stays basic at value 0 and
        // is barred from increasing because its column can't re-enter.
      }
    }
  }

  // ---- Phase 2: maximize the real objective; artificials may not
  // re-enter. ----
  t.obj.assign(t.num_cols, 0.0);
  std::copy_n(ws->c.begin(), n, t.obj.begin());
  t.obj_value = 0.0;
  Canonicalize(&t);
  const SolveStatus p2 =
      Iterate(&t, t.first_artificial, options, &out.pivots);
  if (p2 == SolveStatus::kUnbounded) {
    out.status = SolveStatus::kUnbounded;
    return out;
  }
  if (p2 == SolveStatus::kIterationLimit) {
    out.status = SolveStatus::kIterationLimit;
    return out;
  }

  out.status = SolveStatus::kOptimal;
  out.x.assign(n, 0.0);
  for (size_t r = 0; r < m; ++r) {
    if (t.basis[r] < n) out.x[t.basis[r]] = t.b[r];
  }
  for (size_t i = 0; i < n; ++i) out.x[i] += ws->shift[i];
  // -obj_value is z in canonical form bookkeeping: after canonicalizing,
  // obj_value accumulated -(c_B' b). The optimum of the shifted problem
  // is -obj_value; undo the shift constant and the minimize negation.
  double z = -t.obj_value + c0;
  out.objective = maximize ? z : -z;
  if (warm != nullptr) ExtractWarmStart(t, ws->row_id, ws->slack_owner, warm);
  return out;
}

}  // namespace

Solution SimplexSolver::Solve(const LpModel& model) const {
  return Solve(model, nullptr);
}

Solution SimplexSolver::Solve(const LpModel& model, WarmStart* warm) const {
  const size_t n = model.num_variables();
  const bool maximize = model.sense() == OptSense::kMaximize;
  Workspace& ws = ThreadWorkspace();

  // Shift variables so that y_i = x_i - lo_i >= 0.
  ws.shift.resize(n);
  for (size_t i = 0; i < n; ++i) {
    PCX_CHECK(model.var_lo()[i] > -kInf)
        << "SimplexSolver requires finite variable lower bounds";
    ws.shift[i] = model.var_lo()[i];
  }

  // Objective over shifted variables (constant folded back at the end).
  ws.c.resize(n);
  double c0 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ws.c[i] = maximize ? model.objective()[i] : -model.objective()[i];
    c0 += ws.c[i] * ws.shift[i];
  }

  BuildRows(model, &ws);

  if (warm != nullptr && warm->valid()) {
    auto result = TryWarmSolve(model, &ws, options_, warm);
    if (result.has_value()) {
      if (result->status != SolveStatus::kOptimal) warm->Clear();
      return *std::move(result);
    }
  }
  if (warm != nullptr) warm->Clear();
  return ColdSolve(model, c0, &ws, options_, warm);
}

}  // namespace pcx
