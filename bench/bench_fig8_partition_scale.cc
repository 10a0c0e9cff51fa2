// Reproduces paper Figure 8: per-query solve time for *partitioned*
// (pairwise-disjoint) predicate-constraints of increasing size. The
// greedy fast path skips cell decomposition entirely, so the cost is
// linear in the partition size (the paper reports ~50 ms at 2000 PCs).
// Queries go through PcBoundSolver::BoundBatch — the thread-pooled path
// the eval harness uses — so the sweep also exercises the batch fan-out.
//
// Set PCX_BENCH_JSON=<path> to also write the sweep as JSON (see
// bench/bench_json.h); BENCH_pr*.json files are produced this way.

#include <cstdio>
#include <cstdlib>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "pc/bound_solver.h"
#include "workload/datasets.h"
#include "workload/missing.h"
#include "workload/pc_gen.h"
#include "workload/query_gen.h"

namespace pcx {
namespace {

void Run(size_t queries_per_size) {
  workload::IntelWirelessOptions opts;
  opts.num_devices = 54;
  opts.num_epochs = 400;
  const Table full = workload::MakeIntelWireless(opts);
  const size_t device = 0, time = 1, light = 2;
  auto split = workload::SplitTopValueCorrelated(full, light, 0.4);
  const auto domains = DomainsFromSchema(full.schema());

  auto json = bench::JsonEmitter::FromEnv("fig8_partition_scale");
  std::printf("=== Figure 8: solve time per query vs partition size "
              "(disjoint PCs, greedy path, batched) ===\n");
  std::printf("%-14s %-16s %-18s\n", "partition", "avg-time-ms",
              "used-greedy-path");
  for (size_t size : {50, 100, 500, 1000, 2000}) {
    const auto pcs = workload::MakeCorrPCs(split.missing, {device, time},
                                           light, size);
    PcBoundSolver solver(pcs, domains);
    workload::QueryGenOptions qopts;
    qopts.count = queries_per_size;
    qopts.seed = size;
    const auto queries = workload::MakeRandomRangeQueries(
        full, {device, time}, AggFunc::kSum, light, qopts);
    bench::Stopwatch sw;
    // num_threads=1 keeps avg-time-ms a true *per-query solve time*
    // (the Fig. 8 metric) on any machine; parallel speedup is a
    // property of the batch API, measured elsewhere, not of the solver.
    const auto results = solver.BoundBatch(queries, /*num_threads=*/1);
    size_t solved = 0;
    for (const auto& r : results) {
      if (r.ok()) ++solved;
    }
    const double total_ms = sw.ElapsedMs();
    const double avg_ms = total_ms / static_cast<double>(solved);

    std::printf("%-14zu %-16.3f %-18s\n", pcs.size(), avg_ms,
                solver.last_stats().used_disjoint_fast_path ? "yes" : "no");
    json.Add()
        .Num("partition_size", static_cast<double>(pcs.size()))
        .Num("queries", static_cast<double>(queries.size()))
        .Num("solved", static_cast<double>(solved))
        .Num("total_ms", total_ms)
        .Num("avg_ms", avg_ms)
        .Str("used_greedy_path",
             solver.last_stats().used_disjoint_fast_path ? "yes" : "no");
  }
  std::printf("\nShape check (paper Fig. 8): time grows roughly linearly "
              "with the partition size and stays in the ms range.\n");
}

}  // namespace
}  // namespace pcx

int main(int argc, char** argv) {
  const size_t queries = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 50;
  pcx::Run(queries);
  return 0;
}
