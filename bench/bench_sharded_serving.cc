// Sharded-serving scaling on the paper's Fig. 8 workload: partitioned
// (pairwise-disjoint) Corr-PC sets of 2000 constraints, random SUM
// range queries.
//
// Three sections:
//   serving  — per-query solve time vs shard count (1/2/4/8). Routing
//              turns the O(n) whole-set scan into O(n/K) on the shard
//              that owns the query region, but avg time falls well
//              short of linearly in K: BENCH_pr3.json records 1.45x at
//              2 shards, 1.54x at 4 and 1.63x at 8, as the share of
//              queries spanning shards grows from 19 to 144 of 400.
//   spanning — shard-spanning queries at K=8, answered by union
//              routing (a memoized solver over the touched shards):
//              the cost of the queries routing cannot keep local.
//   snapshot — write/load round-trip of the 2000-PC snapshot, the
//              serving ops cost of shipping a constraint version.
//
// Set PCX_BENCH_JSON=<path> to emit BENCH_pr3.json.

#include <cstdio>
#include <cstdlib>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "pc/bound_solver.h"
#include "serve/sharded_solver.h"
#include "serve/snapshot.h"
#include "workload/datasets.h"
#include "workload/missing.h"
#include "workload/pc_gen.h"
#include "workload/query_gen.h"

namespace pcx {
namespace {

void Run(size_t num_queries) {
  workload::IntelWirelessOptions opts;
  opts.num_devices = 54;
  opts.num_epochs = 400;
  const Table full = workload::MakeIntelWireless(opts);
  const size_t device = 0, time_attr = 1, light = 2;
  auto split = workload::SplitTopValueCorrelated(full, light, 0.4);
  const auto domains = DomainsFromSchema(full.schema());
  const auto pcs =
      workload::MakeCorrPCs(split.missing, {device, time_attr}, light, 2000);

  // Selective queries (narrow boxes around data points): the serving
  // scenario where a query touches the one shard owning its region.
  workload::QueryGenOptions qopts;
  qopts.count = num_queries;
  qopts.seed = 71;
  qopts.width_fraction = 0.05;
  const auto queries = workload::MakeRandomRangeQueries(
      full, {device, time_attr}, AggFunc::kSum, light, qopts);

  auto json = bench::JsonEmitter::FromEnv("sharded_serving");

  // --- Section 1: per-query serve time vs shard count. -------------
  std::printf("=== Sharded serving: %zu PCs (Fig. 8 workload), %zu SUM "
              "queries ===\n",
              pcs.size(), queries.size());
  std::printf("%-8s %-12s %-12s %-14s %-14s %-12s\n", "shards", "avg-ms",
              "speedup", "single-shard", "multi-shard", "imbalance");
  double base_avg_ms = 0.0;
  for (size_t shards : {1, 2, 4, 8}) {
    ShardedBoundSolver::Options sopts;
    sopts.partition = {shards, PartitionStrategy::kAttributeRange};
    // num_threads=1: measure the per-query routing + solve cost itself,
    // not pool parallelism (the Fig. 8 metric).
    sopts.num_threads = 1;
    const ShardedBoundSolver solver(pcs, domains, sopts);
    bench::Stopwatch sw;
    const auto results = solver.BoundBatch(queries);
    const double total_ms = sw.ElapsedMs();
    size_t solved = 0;
    for (const auto& r : results) solved += r.ok() ? 1 : 0;
    const double avg_ms = total_ms / static_cast<double>(solved);
    if (shards == 1) base_avg_ms = avg_ms;
    const auto stats = solver.stats();
    const double imbalance = solver.partition().ImbalanceRatio();
    std::printf("%-8zu %-12.4f %-12.2f %-14zu %-14zu %-12.3f\n", shards,
                avg_ms, base_avg_ms / avg_ms, stats.single_shard_queries,
                stats.multi_shard_queries, imbalance);
    json.Add()
        .Str("section", "serving")
        .Num("shards", static_cast<double>(shards))
        .Num("pcs", static_cast<double>(pcs.size()))
        .Num("queries", static_cast<double>(queries.size()))
        .Num("solved", static_cast<double>(solved))
        .Num("total_ms", total_ms)
        .Num("avg_ms", avg_ms)
        .Num("speedup_vs_1shard", base_avg_ms / avg_ms)
        .Num("single_shard_queries",
             static_cast<double>(stats.single_shard_queries))
        .Num("multi_shard_queries",
             static_cast<double>(stats.multi_shard_queries))
        .Num("imbalance", imbalance);
  }

  // --- Section 2: union routing on shard-spanning queries. ---------
  // Wide device ranges so every query touches several shards.
  workload::QueryGenOptions wide_opts;
  wide_opts.count = num_queries / 2;
  wide_opts.seed = 72;
  wide_opts.attrs_per_query = 1;
  const auto spanning = workload::MakeRandomRangeQueries(
      full, {time_attr}, AggFunc::kSum, light, wide_opts);
  {
    ShardedBoundSolver::Options sopts;
    sopts.partition = {8, PartitionStrategy::kAttributeRange};
    sopts.num_threads = 1;
    const ShardedBoundSolver solver(pcs, domains, sopts);
    bench::Stopwatch sw;
    const auto results = solver.BoundBatch(spanning);
    const double total_ms = sw.ElapsedMs();
    size_t solved = 0;
    for (const auto& r : results) solved += r.ok() ? 1 : 0;
    const double avg_ms = total_ms / static_cast<double>(solved);
    const auto stats = solver.stats();
    std::printf("\n=== Union routing at 8 shards (%zu spanning queries) "
                "===\n",
                spanning.size());
    std::printf("%-12s %-14s %-14s\n", "avg-ms", "multi-shard",
                "union-solvers");
    std::printf("%-12.4f %-14zu %-14zu\n", avg_ms, stats.multi_shard_queries,
                stats.union_solvers_built);
    json.Add()
        .Str("section", "spanning")
        .Str("mode", "union_routing")
        .Num("shards", 8)
        .Num("queries", static_cast<double>(spanning.size()))
        .Num("solved", static_cast<double>(solved))
        .Num("avg_ms", avg_ms)
        .Num("multi_shard_queries",
             static_cast<double>(stats.multi_shard_queries))
        .Num("union_solvers_built",
             static_cast<double>(stats.union_solvers_built));
  }

  // --- Section 3: snapshot write / load. ---------------------------
  {
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                             "/bench_sharded_serving.pcxsnap";
    const Partition partition = PartitionPcSet(
        pcs, domains, {8, PartitionStrategy::kAttributeRange});
    bench::Stopwatch sw_write;
    const Snapshot snap = MakeSnapshot(pcs, domains, partition, 1);
    const Status written = WriteSnapshot(snap, path);
    const double write_ms = sw_write.ElapsedMs();
    bench::Stopwatch sw_load;
    const auto loaded = LoadSnapshot(path);
    const double load_ms = sw_load.ElapsedMs();
    std::printf("\n=== Snapshot round-trip (8 shards, %zu PCs) ===\n",
                pcs.size());
    std::printf("write %.2f ms, load+verify %.2f ms, ok=%s\n", write_ms,
                load_ms,
                written.ok() && loaded.ok() ? "yes" : "NO");
    json.Add()
        .Str("section", "snapshot")
        .Num("pcs", static_cast<double>(pcs.size()))
        .Num("shards", 8)
        .Num("write_ms", write_ms)
        .Num("load_ms", load_ms)
        .Str("ok", written.ok() && loaded.ok() ? "yes" : "no");
    std::remove(path.c_str());
  }

  std::printf("\nShape check: avg serve time falls with the shard count, "
              "sublinearly (BENCH_pr3.json: 1.63x at 8 shards), as more "
              "queries span shards.\n");
}

}  // namespace
}  // namespace pcx

int main(int argc, char** argv) {
  const size_t queries = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 200;
  pcx::Run(queries);
  return 0;
}
