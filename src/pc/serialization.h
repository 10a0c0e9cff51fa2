#ifndef PCX_PC_SERIALIZATION_H_
#define PCX_PC_SERIALIZATION_H_

#include <string>

#include "common/statusor.h"
#include "pc/pc_set.h"

namespace pcx {

/// Text serialization of predicate-constraint sets. The paper's central
/// methodological point is that constraints are *artifacts*: "they can
/// be checked, versioned, and tested just like any other analysis code"
/// (§1). This module gives them a stable, diff-friendly format:
///
///   pcset v1 attrs=2
///   # free-form comments
///   pc pred={0:[0,24)} values={1:[0.99,129.99]} freq=[50,100]
///   pc pred={} values={1:[0,149.99]} freq=[0,1200]
///
/// `pred={}` is the TRUE predicate. Interval brackets encode strictness
/// ('[' / ']' closed, '(' / ')' open); "inf"/"-inf" are accepted.
std::string SerializePcSet(const PredicateConstraintSet& pcs);

/// Parses the format produced by SerializePcSet. Returns
/// InvalidArgument with a line number on malformed input.
StatusOr<PredicateConstraintSet> ParsePcSet(const std::string& text);

/// Serializes one constraint's body — "pred={...} values={...}
/// freq=[lo,hi]" without the leading "pc " — the unit a pcset record,
/// a delta-log APPEND record, and the wire APPEND verb all share. The
/// box literals are whitespace-free, so the body tokenizes cleanly in
/// the line protocol.
std::string SerializePcBody(const PredicateConstraint& pc);

/// Parses a SerializePcBody body (a leading "pc " is tolerated) against
/// a fixed attribute count.
StatusOr<PredicateConstraint> ParsePcBody(const std::string& body,
                                          size_t num_attrs);

/// Serializes one interval ("[0, 24)").
std::string SerializeInterval(const Interval& iv);

/// Parses one interval.
StatusOr<Interval> ParseInterval(const std::string& text);

/// Serializes a box as "{attr:interval,...}" keeping only bounded
/// dimensions ("{}" is the universe). The format is whitespace-free, so
/// a box travels as one token of the pcx_serve line protocol.
std::string SerializeBox(const Box& box);

/// Parses the SerializeBox format against a fixed attribute count.
StatusOr<Box> ParseBox(const std::string& text, size_t num_attrs);

/// Round-trippable double formatting ("inf"/"-inf" for the infinities).
std::string FormatNumber(double v);

/// Parses FormatNumber output (also accepts "+inf"). NaN in any
/// spelling is INVALID_ARGUMENT.
StatusOr<double> ParseNumber(const std::string& s);

}  // namespace pcx

#endif  // PCX_PC_SERIALIZATION_H_
