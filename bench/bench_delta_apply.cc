// Incremental delta apply vs full reload on the Fig. 8 serving
// workload: a 2000-constraint Corr-PC set at 8 shards, mutated by
// batches of 1 / 16 / 256 records (the delta-log shapes a primary
// journals and a replica tails), in two shapes:
//
//   append  each record revises an existing grid cell — a clone of a
//           live constraint, the natural live-update shape for a tiling
//           constraint set, since the Corr-PC grid covers the whole
//           predicate space and any new constraint lands in some cell;
//   retire  each record retires one of those clones again, the second
//           half of the server's APPEND/RETIRE cycle. Every retire
//           splits a two-member overlap component (clone + live twin).
//
// ApplyDeltas routes each append by a hull-gated overlap scan and
// maintains the overlap components in a union-find; a retire out of a
// multi-member component re-splits only that component with the
// overlap sweep (route::ForEachIntersectingPair). The full reload it
// replaces repartitions from scratch — one overlap sweep over the whole
// set — and rebuilds every shard solver. Timings are the median of 5
// repetitions.
//
// Every batch is self-checked: the incremental solver must answer a
// probe workload bit-identically to the from-scratch rebuild before
// its timing is reported; a violation exits 1.
//
// Set PCX_BENCH_JSON=<path> to emit BENCH_pr7.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "serve/delta_log.h"
#include "serve/sharded_solver.h"
#include "workload/datasets.h"
#include "workload/missing.h"
#include "workload/pc_gen.h"
#include "workload/query_gen.h"

namespace pcx {
namespace {

int Run() {
  workload::IntelWirelessOptions opts;
  opts.num_devices = 54;
  opts.num_epochs = 400;
  const Table full = workload::MakeIntelWireless(opts);
  const size_t device = 0, time_attr = 1, light = 2;
  auto split = workload::SplitTopValueCorrelated(full, light, 0.4);
  const auto domains = DomainsFromSchema(full.schema());
  const auto pcs =
      workload::MakeCorrPCs(split.missing, {device, time_attr}, light, 2000);

  workload::QueryGenOptions qopts;
  qopts.count = 64;
  qopts.seed = 71;
  qopts.width_fraction = 0.05;
  const auto queries = workload::MakeRandomRangeQueries(
      full, {device, time_attr}, AggFunc::kSum, light, qopts);

  ShardedBoundSolver::Options sopts;
  sopts.partition = {8, PartitionStrategy::kAttributeRange};
  sopts.num_threads = 1;
  // The serving configuration (BoundServer sets this too).
  sopts.solver.persistent_sat_cache = true;
  const auto base =
      std::make_shared<const ShardedBoundSolver>(pcs, domains, sopts);

  auto json = bench::JsonEmitter::FromEnv("delta_apply");
  std::printf("=== Incremental delta apply: %zu PCs, %zu shards ===\n",
              pcs.size(), base->num_shards());
  std::printf("%-8s %-8s %-16s %-12s %-10s\n", "op", "delta",
              "incremental-ms", "reload-ms", "speedup");

  // Median wall time of 5 runs of `fn`.
  const auto median_ms = [](const auto& fn) {
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      bench::Stopwatch sw;
      fn();
      ms.push_back(sw.ElapsedMs());
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
  };

  // Times one batch both ways and checks the answers agree. Returns
  // the incremental successor, or null on an ApplyDeltas error or a
  // bit-identity violation.
  const auto run_row = [&](const char* op, const ShardedBoundSolver& from,
                           const std::vector<DeltaRecord>& records,
                           const PredicateConstraintSet& flat)
      -> std::shared_ptr<const ShardedBoundSolver> {
    StatusOr<std::shared_ptr<const ShardedBoundSolver>> next =
        Status::Internal("not run");
    const double incremental_ms =
        median_ms([&] { next = from.ApplyDeltas(records); });
    if (!next.ok()) {
      std::fprintf(stderr, "ApplyDeltas failed: %s\n",
                   next.status().ToString().c_str());
      return nullptr;
    }
    const double reload_ms = median_ms(
        [&] { const ShardedBoundSolver rebuilt(flat, domains, sopts); });
    const ShardedBoundSolver rebuilt(flat, domains, sopts);

    // Bit-identity self-check: a fast wrong answer is worthless.
    const auto got = (*next)->BoundBatch(queries);
    const auto want = rebuilt.BoundBatch(queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      const bool same =
          got[i].ok() == want[i].ok() &&
          (!got[i].ok() ||
           (got[i]->lo == want[i]->lo && got[i]->hi == want[i]->hi &&
            got[i]->defined == want[i]->defined &&
            got[i]->empty_instance_possible ==
                want[i]->empty_instance_possible));
      if (!same) {
        std::fprintf(stderr,
                     "BIT-IDENTITY VIOLATION at %s delta=%zu query %zu\n",
                     op, records.size(), i);
        return nullptr;
      }
    }

    std::printf("%-8s %-8zu %-16.2f %-12.2f %-10.1fx\n", op, records.size(),
                incremental_ms, reload_ms, reload_ms / incremental_ms);
    json.Add()
        .Str("section", "delta_apply")
        .Str("op", op)
        .Num("num_pcs", static_cast<double>(pcs.size()))
        .Num("shards", 8)
        .Num("delta", static_cast<double>(records.size()))
        .Num("incremental_ms", incremental_ms)
        .Num("reload_ms", reload_ms)
        .Num("speedup", reload_ms / incremental_ms);
    return *std::move(next);
  };

  for (const size_t delta : {size_t{1}, size_t{16}, size_t{256}}) {
    // Revise scattered cells: clone live constraints sampled across
    // the grid (stride 37 spreads them over every shard at delta=256).
    std::vector<DeltaRecord> appends;
    PredicateConstraintSet flat = pcs;
    for (size_t i = 0; i < delta; ++i) {
      DeltaRecord rec;
      rec.epoch = base->epoch() + 1 + i;
      rec.op = DeltaOp::kAppend;
      rec.pc = pcs.at((i * 37) % pcs.size());
      flat.Add(rec.pc);
      appends.push_back(std::move(rec));
    }
    const auto appended = run_row("append", *base, appends, flat);
    if (appended == nullptr) return 1;

    // Retire the clones again, in append order: each one sits at global
    // index pcs.size() once its predecessors are gone.
    std::vector<DeltaRecord> retires;
    for (size_t i = 0; i < delta; ++i) {
      DeltaRecord rec;
      rec.epoch = appended->epoch() + 1 + i;
      rec.op = DeltaOp::kRetire;
      rec.retire_index = pcs.size();
      retires.push_back(std::move(rec));
    }
    if (run_row("retire", *appended, retires, pcs) == nullptr) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pcx

int main() { return pcx::Run(); }
