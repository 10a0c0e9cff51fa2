#ifndef PCX_ENGINE_LOCAL_BACKEND_H_
#define PCX_ENGINE_LOCAL_BACKEND_H_

#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/backend.h"
#include "pc/bound_solver.h"

namespace pcx {

/// The in-process backend: one unsharded PcBoundSolver. This is the
/// reference implementation every other backend is defined against —
/// ShardedBackend and RemoteBackend answers are bit-identical to it by
/// construction (union routing, round-trippable number formatting).
class LocalBackend : public BoundBackend {
 public:
  struct Options {
    PcBoundSolver::Options solver;
    /// Fan-out width for BoundBatch / BoundGroupBy (0 = hardware
    /// concurrency, 1 = sequential).
    size_t num_threads = 0;
  };

  LocalBackend(PredicateConstraintSet pcs, std::vector<AttrDomain> domains);
  LocalBackend(PredicateConstraintSet pcs, std::vector<AttrDomain> domains,
               Options options);

  std::string name() const override { return "local"; }
  size_t num_attrs() const override;
  StatusOr<ResultRange> Bound(const AggQuery& query) override;
  std::vector<StatusOr<ResultRange>> BoundBatch(
      std::span<const AggQuery> queries) override;
  StatusOr<std::vector<GroupRange>> BoundGroupBy(
      const AggQuery& query, size_t group_attr,
      const std::vector<double>& group_values) override;
  StatusOr<EngineStats> Stats() override;
  /// A local set is never versioned: always epoch 0.
  StatusOr<uint64_t> Epoch() override { return 0; }

  const PcBoundSolver& solver() const { return solver_; }

 private:
  void Record(size_t queries, const PcBoundSolver::SolveStats& solve);

  Options options_;
  PcBoundSolver solver_;
  /// Serializes BoundBatch/BoundGroupBy: PcBoundSolver::BoundBatch
  /// (which both run through) writes the solver's last_stats(), so
  /// concurrent batch submissions would race on it. Bound() uses the
  /// mutation-free BoundWithStats and needs no serialization.
  Mutex batch_mu_;
  mutable Mutex mu_;  ///< guards the cumulative counters below
  size_t queries_ GUARDED_BY(mu_) = 0;
  PcBoundSolver::SolveStats total_ GUARDED_BY(mu_);
};

}  // namespace pcx

#endif  // PCX_ENGINE_LOCAL_BACKEND_H_
