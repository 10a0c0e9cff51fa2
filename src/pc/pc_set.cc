#include "pc/pc_set.h"

#include <sstream>

#include "common/check.h"
#include "route/pair_sweep.h"

namespace pcx {

PredicateConstraintSet::PredicateConstraintSet(
    std::vector<PredicateConstraint> pcs)
    : pcs_(std::move(pcs)) {
  for (size_t i = 1; i < pcs_.size(); ++i) {
    PCX_CHECK_EQ(pcs_[i].num_attrs(), pcs_[0].num_attrs())
        << "all PCs in a set must share a schema";
  }
}

void PredicateConstraintSet::Add(PredicateConstraint pc) {
  if (!pcs_.empty()) {
    PCX_CHECK_EQ(pc.num_attrs(), pcs_[0].num_attrs());
  }
  pcs_.push_back(std::move(pc));
}

size_t PredicateConstraintSet::num_attrs() const {
  return pcs_.empty() ? 0 : pcs_[0].num_attrs();
}

bool PredicateConstraintSet::SatisfiedBy(const Table& table) const {
  for (const auto& pc : pcs_) {
    if (!pc.SatisfiedBy(table)) return false;
  }
  return true;
}

bool PredicateConstraintSet::IsClosedOver(
    const Box& domain, const std::vector<AttrDomain>& domains) const {
  IntervalSatChecker checker(domains);
  CellExpr uncovered;
  uncovered.positive = domain;
  for (const auto& pc : pcs_) {
    uncovered.negated.push_back(pc.predicate().box());
  }
  return !checker.IsSatisfiable(uncovered);
}

bool PredicateConstraintSet::PredicatesDisjoint(
    const std::vector<AttrDomain>& domains) const {
  std::vector<const Box*> boxes(pcs_.size());
  for (size_t i = 0; i < pcs_.size(); ++i) {
    boxes[i] = &pcs_[i].predicate().box();
  }
  bool disjoint = true;
  route::ForEachIntersectingPair(boxes, domains, [&](size_t, size_t) {
    disjoint = false;
    return false;  // the first overlapping pair settles it
  });
  return disjoint;
}

std::string PredicateConstraintSet::ToString() const {
  std::ostringstream os;
  os << "{\n";
  for (const auto& pc : pcs_) os << "  " << pc.ToString() << "\n";
  os << "}";
  return os.str();
}

}  // namespace pcx
