#ifndef PCX_PC_PC_SET_H_
#define PCX_PC_PC_SET_H_

#include <string>
#include <vector>

#include "pc/predicate_constraint.h"
#include "predicate/sat.h"

namespace pcx {

/// A predicate-constraint set S = {π_1, ..., π_n} (paper §3.2): the
/// user's complete description of the missing rows.
class PredicateConstraintSet {
 public:
  PredicateConstraintSet() = default;
  explicit PredicateConstraintSet(std::vector<PredicateConstraint> pcs);

  void Add(PredicateConstraint pc);

  size_t size() const { return pcs_.size(); }
  bool empty() const { return pcs_.empty(); }
  const PredicateConstraint& at(size_t i) const { return pcs_[i]; }
  const std::vector<PredicateConstraint>& constraints() const { return pcs_; }

  size_t num_attrs() const;

  /// R |= S: the table satisfies every constraint.
  bool SatisfiedBy(const Table& table) const;

  /// Closure over a domain (paper Definition 3.2): every point of
  /// `domain` satisfies at least one predicate; i.e. the domain box
  /// minus the union of predicate boxes is empty. Exact via the SAT
  /// checker.
  bool IsClosedOver(const Box& domain,
                    const std::vector<AttrDomain>& domains = {}) const;

  /// True if all predicates are pairwise disjoint — the fast-path case
  /// of paper §4.2 (partitioned PCs, Fig. 8).
  bool PredicatesDisjoint(const std::vector<AttrDomain>& domains = {}) const;

  std::string ToString() const;

 private:
  std::vector<PredicateConstraint> pcs_;
};

}  // namespace pcx

#endif  // PCX_PC_PC_SET_H_
