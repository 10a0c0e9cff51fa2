#include "pc/predicate_constraint.h"

#include <sstream>

#include "common/check.h"

namespace pcx {

PredicateConstraint::PredicateConstraint(Predicate predicate, Box values,
                                         FrequencyConstraint frequency)
    : predicate_(std::move(predicate)),
      values_(std::move(values)),
      frequency_(frequency) {
  PCX_CHECK_EQ(predicate_.num_attrs(), values_.num_attrs());
  PCX_CHECK_GE(frequency_.lo, 0.0);
  PCX_CHECK_LE(frequency_.lo, frequency_.hi);
}

bool PredicateConstraint::SatisfiedBy(const Table& table) const {
  size_t matches = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!predicate_.MatchesRow(table, r)) continue;
    ++matches;
    for (size_t c = 0; c < values_.num_attrs(); ++c) {
      if (values_.dim(c).is_unbounded()) continue;
      if (!values_.dim(c).Contains(table.At(r, c))) return false;
    }
  }
  const double m = static_cast<double>(matches);
  return m >= frequency_.lo && m <= frequency_.hi;
}

std::string PredicateConstraint::ToString() const {
  std::ostringstream os;
  os << predicate_.ToString() << " => values " << values_.ToString()
     << ", freq [" << frequency_.lo << ", " << frequency_.hi << "]";
  return os.str();
}

StatusOr<PredicateConstraint> MakeSingleAttributeConstraint(
    const Schema& schema, Predicate predicate, const std::string& value_attr,
    double value_lo, double value_hi, double freq_lo, double freq_hi) {
  PCX_ASSIGN_OR_RETURN(const size_t col, schema.ColumnIndex(value_attr));
  if (freq_lo < 0 || freq_lo > freq_hi) {
    return Status::InvalidArgument("invalid frequency range");
  }
  if (value_lo > value_hi) {
    return Status::InvalidArgument("invalid value range");
  }
  Box values(schema.num_columns());
  values.Constrain(col, Interval::Closed(value_lo, value_hi));
  return PredicateConstraint(std::move(predicate), std::move(values),
                             FrequencyConstraint::Between(freq_lo, freq_hi));
}

}  // namespace pcx
