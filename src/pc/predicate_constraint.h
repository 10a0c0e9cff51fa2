#ifndef PCX_PC_PREDICATE_CONSTRAINT_H_
#define PCX_PC_PREDICATE_CONSTRAINT_H_

#include <string>

#include "common/statusor.h"
#include "predicate/box.h"
#include "predicate/predicate.h"
#include "relation/table.h"

namespace pcx {

/// Frequency constraint κ = (k_lo, k_hi): at least k_lo and at most k_hi
/// missing rows satisfy the predicate (paper §3.1).
struct FrequencyConstraint {
  double lo = 0.0;
  double hi = 0.0;

  static FrequencyConstraint AtMost(double hi) { return {0.0, hi}; }
  static FrequencyConstraint Exactly(double k) { return {k, k}; }
  static FrequencyConstraint Between(double lo, double hi) {
    return {lo, hi};
  }
};

/// A predicate-constraint π = (ψ, ν, κ) (paper Definition 3.1):
///   "for all missing rows satisfying ψ, the attribute values are
///    bounded by ν, and the number of such rows is within κ."
/// ψ is a conjunctive Predicate, ν a Box of per-attribute value ranges,
/// κ a FrequencyConstraint.
class PredicateConstraint {
 public:
  PredicateConstraint() = default;
  PredicateConstraint(Predicate predicate, Box values,
                      FrequencyConstraint frequency);

  const Predicate& predicate() const { return predicate_; }
  const Box& values() const { return values_; }
  const FrequencyConstraint& frequency() const { return frequency_; }

  size_t num_attrs() const { return predicate_.num_attrs(); }

  /// Checks R |= π on a concrete relation: every row matching ψ has all
  /// attribute values inside ν, and the number of matching rows lies in
  /// [κ.lo, κ.hi]. This is the paper's "efficiently testable on
  /// historical data" property.
  bool SatisfiedBy(const Table& table) const;

  /// Value upper/lower bound of attribute `attr` imposed by ν.
  double ValueUpper(size_t attr) const { return values_.dim(attr).hi; }
  double ValueLower(size_t attr) const { return values_.dim(attr).lo; }

  std::string ToString() const;

 private:
  Predicate predicate_;
  Box values_;
  FrequencyConstraint frequency_;
};

/// Convenience builder: PC over `schema` with predicate ψ, a value range
/// on one aggregate attribute, and a frequency range. All other
/// attributes' values are unconstrained.
StatusOr<PredicateConstraint> MakeSingleAttributeConstraint(
    const Schema& schema, Predicate predicate, const std::string& value_attr,
    double value_lo, double value_hi, double freq_lo, double freq_hi);

}  // namespace pcx

#endif  // PCX_PC_PREDICATE_CONSTRAINT_H_
