#include "join/join_bound.h"

#include <cmath>

#include "common/check.h"
#include "join/edge_cover.h"

namespace pcx {
namespace {

Status ValidateInput(const JoinBoundInput& input) {
  if (input.count_upper.size() != input.graph.num_relations()) {
    return Status::InvalidArgument("one COUNT bound per relation required");
  }
  for (double c : input.count_upper) {
    if (c < 0.0) return Status::InvalidArgument("negative COUNT bound");
  }
  if (input.agg_relation.has_value()) {
    if (*input.agg_relation >= input.graph.num_relations()) {
      return Status::InvalidArgument("agg_relation out of range");
    }
    if (input.sum_upper < 0.0) {
      return Status::InvalidArgument(
          "SUM bound must be non-negative (paper (**) assumes a "
          "non-negative weight function)");
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<double> NaiveJoinBound(const JoinBoundInput& input) {
  PCX_RETURN_IF_ERROR(ValidateInput(input));
  double bound = input.agg_relation.has_value() ? input.sum_upper : 1.0;
  for (size_t i = 0; i < input.graph.num_relations(); ++i) {
    if (input.agg_relation.has_value() && i == *input.agg_relation) continue;
    bound *= input.count_upper[i];
  }
  return bound;
}

StatusOr<double> EdgeCoverJoinBound(const JoinBoundInput& input) {
  PCX_RETURN_IF_ERROR(ValidateInput(input));
  const size_t r = input.graph.num_relations();
  // An empty relation (or zero SUM mass on the aggregate relation)
  // annihilates the join bound.
  for (size_t i = 0; i < r; ++i) {
    const bool is_agg =
        input.agg_relation.has_value() && i == *input.agg_relation;
    if (!is_agg && input.count_upper[i] == 0.0) return 0.0;
  }
  if (input.agg_relation.has_value() && input.sum_upper == 0.0) return 0.0;

  std::vector<double> log_sizes(r);
  for (size_t i = 0; i < r; ++i) {
    const bool is_agg =
        input.agg_relation.has_value() && i == *input.agg_relation;
    log_sizes[i] = std::log(is_agg ? input.sum_upper : input.count_upper[i]);
  }
  PCX_ASSIGN_OR_RETURN(
      const EdgeCoverResult cover,
      MinimizeFractionalEdgeCover(input.graph, log_sizes,
                                  input.agg_relation));
  return std::exp(cover.log_bound);
}

StatusOr<double> BoundNaturalJoin(
    const JoinHypergraph& graph,
    const std::vector<const PredicateConstraintSet*>& per_relation_pcs,
    std::optional<size_t> agg_relation, std::optional<size_t> agg_attr) {
  if (per_relation_pcs.size() != graph.num_relations()) {
    return Status::InvalidArgument("one PC set per relation required");
  }
  if (agg_relation.has_value() != agg_attr.has_value()) {
    return Status::InvalidArgument(
        "agg_relation and agg_attr must be set together");
  }
  JoinBoundInput input;
  input.graph = graph;
  input.count_upper.resize(per_relation_pcs.size());
  for (size_t i = 0; i < per_relation_pcs.size(); ++i) {
    PcBoundSolver solver(*per_relation_pcs[i]);
    PCX_ASSIGN_OR_RETURN(const ResultRange count,
                         solver.Bound(AggQuery::Count()));
    input.count_upper[i] = count.hi;
    if (agg_relation.has_value() && i == *agg_relation) {
      PCX_ASSIGN_OR_RETURN(const ResultRange sum,
                           solver.Bound(AggQuery::Sum(*agg_attr)));
      input.sum_upper = sum.hi;
    }
  }
  input.agg_relation = agg_relation;
  return EdgeCoverJoinBound(input);
}

}  // namespace pcx
