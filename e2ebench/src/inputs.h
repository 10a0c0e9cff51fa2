#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pc/query.h"
#include "predicate/predicate.h"
#include "relation/aggregate.h"

namespace e2e {

enum class OpKind { kRead, kAppend, kRetire };

/// One request of a workload panel.
struct Op {
  OpKind kind = OpKind::kRead;
  std::string line;     ///< the request line, without newline
  std::string expect;   ///< served reads: the reference RANGE line
  pcx::AggQuery query;  ///< reads: the request as the server parses it
  /// overlap reads: the true aggregate of the missing rows in the WHERE
  pcx::AggregateResult truth;
};

/// Everything a workload run needs, generated from the seed alone and
/// written under one directory before any timed phase.
struct Inputs {
  std::string workload;
  std::string snapshot_path;  ///< 8-shard range snapshot of the set
  std::string pcset_path;     ///< overlap: the set for "local:" engines
  std::string reports_path;   ///< overlap: WHERE boxes and true aggregates
  std::string int_attrs;      ///< integer attribute indices, "0,1"
  std::vector<pcx::AttrDomain> domains;
  size_t num_attrs = 0;
  size_t num_pcs = 0;
  uint64_t epoch = 0;
  /// fanin: reads. mutate: APPEND, RETIRE, read per cycle.
  /// overlap: five reads (SUM, COUNT, MIN, MAX, AVG) per report.
  std::vector<Op> panel;
};

/// Solver pool width of every served workload (pcx_serve
/// --serve-threads and --threads): client, event loop and pool then
/// fit a 4-core machine.
inline constexpr size_t kPoolWidth = 2;

/// The aggregated column of every read: Intel's `light`.
inline constexpr size_t kAggAttr = 2;

/// The aggregates of one overlap report, in panel order.
inline constexpr pcx::AggFunc kReportAggs[] = {
    pcx::AggFunc::kSum, pcx::AggFunc::kCount, pcx::AggFunc::kMin,
    pcx::AggFunc::kMax, pcx::AggFunc::kAvg};
inline constexpr size_t kReportSize = 5;

bool IsWorkload(const std::string& name);

/// Generates the inputs of `workload` for `seed` into `dir` (created by
/// the caller). Aborts the process when a reference answer cannot be
/// computed: a workload must have no failing operation.
Inputs Generate(const std::string& workload, uint64_t seed,
                const std::string& dir);

/// One overlap report as the in-process runner reads it back.
struct Report {
  pcx::Predicate where;
  pcx::AggregateResult truth[kReportSize];
};

/// Reads the reports file Generate writes for overlap.
bool LoadReports(const std::string& path, size_t num_attrs,
                 std::vector<Report>* out, std::string* error);

}  // namespace e2e

#endif  // E2EBENCH_INPUTS_H_
