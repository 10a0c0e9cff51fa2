#ifndef PCX_BASELINES_PC_ESTIMATOR_H_
#define PCX_BASELINES_PC_ESTIMATOR_H_

#include <memory>
#include <string>
#include <utility>

#include "baselines/estimator.h"
#include "engine/local_backend.h"
#include "engine/sharded_backend.h"

namespace pcx {

/// Adapts the engine's LocalBackend to the MissingDataEstimator
/// interface so the experiment harness can run PCs (Corr-PC, Rand-PC,
/// Overlapping-PC...) side by side with the statistical baselines.
/// Estimates go through the same BoundBackend API that serves every
/// other execution substrate, so harness numbers measured here are the
/// numbers a sharded or remote deployment would report.
class PcEstimator : public MissingDataEstimator {
 public:
  PcEstimator(PredicateConstraintSet pcs, std::vector<AttrDomain> domains,
              std::string name)
      : backend_(std::make_shared<LocalBackend>(std::move(pcs),
                                                std::move(domains))),
        name_(std::move(name)) {}

  PcEstimator(PredicateConstraintSet pcs, std::vector<AttrDomain> domains,
              PcBoundSolver::Options options, std::string name)
      : backend_(std::make_shared<LocalBackend>(
            std::move(pcs), std::move(domains),
            LocalBackend::Options{options, 0})),
        name_(std::move(name)) {}

  StatusOr<ResultRange> Estimate(const AggQuery& query) const override {
    return backend_->Bound(query);
  }
  std::vector<StatusOr<ResultRange>> EstimateBatch(
      std::span<const AggQuery> queries) const override {
    return backend_->BoundBatch(queries);
  }
  std::string name() const override { return name_; }

  const PcBoundSolver& solver() const { return backend_->solver(); }
  const std::shared_ptr<LocalBackend>& backend() const { return backend_; }

 private:
  std::shared_ptr<LocalBackend> backend_;
  std::string name_;
};

/// The sharded-serving counterpart: same estimator interface, answers
/// routed through a ShardedBackend. Since sharded answers are
/// bit-identical to the unsharded solver's, its eval-harness report
/// (failure rate, tightness) must match PcEstimator's exactly — running
/// both is a whole-workload consistency check, and the sharded mode of
/// the Fig. 8 sweep measures what partitioning buys per query.
class ShardedPcEstimator : public MissingDataEstimator {
 public:
  ShardedPcEstimator(PredicateConstraintSet pcs,
                     std::vector<AttrDomain> domains,
                     ShardedBoundSolver::Options options, std::string name)
      : backend_(std::make_shared<ShardedBackend>(
            std::move(pcs), std::move(domains), options)),
        name_(std::move(name)) {}

  StatusOr<ResultRange> Estimate(const AggQuery& query) const override {
    return backend_->Bound(query);
  }
  std::vector<StatusOr<ResultRange>> EstimateBatch(
      std::span<const AggQuery> queries) const override {
    return backend_->BoundBatch(queries);
  }
  std::string name() const override { return name_; }

  const ShardedBoundSolver& solver() const { return backend_->solver(); }
  const std::shared_ptr<ShardedBackend>& backend() const { return backend_; }

 private:
  std::shared_ptr<ShardedBackend> backend_;
  std::string name_;
};

}  // namespace pcx

#endif  // PCX_BASELINES_PC_ESTIMATOR_H_
