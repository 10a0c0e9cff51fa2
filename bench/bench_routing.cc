// Routing-dispatch scaling: the compiled RouteIndex vs the O(n) linear
// oracle it replaces, on the public ShardedBoundSolver::RouteMask
// surface (hull stab + member confirmation, exactly what every BOUND
// pays before any solving starts).
//
// Sweep: shards {4, 16, 64} x constraints {1k, 10k} plus 64 x 20k,
// narrow shard-local COUNT queries (the serving fast path). For every
// query the two masks are cross-checked bit for bit — a mismatch makes
// the bench exit nonzero, so the CI release job doubles as a routing
// equivalence check at scale. Each implementation's time is the median
// of 5 interleaved repetitions, so one slow stretch on a shared host
// cannot sink the >= 2x self-check on its own.
//
// Set PCX_BENCH_JSON=<path> to emit BENCH_pr9.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "route/shard_mask.h"
#include "serve/sharded_solver.h"

namespace pcx {
namespace {

/// n disjoint singleton constraints laid out contiguously on attribute
/// 0 — the partitioned serving shape (Fig. 8): every shard hull is a
/// contiguous range, every narrow query lands on one shard.
PredicateConstraintSet DisjointSet(size_t n) {
  PredicateConstraintSet pcs;
  for (size_t i = 0; i < n; ++i) {
    const double base = 100.0 * static_cast<double>(i);
    Predicate pred(2);
    pred.AddRange(0, base, base + 50.0);
    Box values(2);
    values.Constrain(1, Interval::Closed(0.0, 10.0));
    pcs.Add(PredicateConstraint(pred, values, {0, 3}));
  }
  return pcs;
}

std::vector<AggQuery> NarrowQueries(size_t n, size_t count, Rng& rng) {
  std::vector<AggQuery> queries;
  const double span = 100.0 * static_cast<double>(n);
  for (size_t i = 0; i < count; ++i) {
    const double lo = rng.Uniform(0.0, span - 120.0);
    Predicate where(2);
    where.AddRange(0, lo, lo + rng.Uniform(10.0, 120.0));
    queries.push_back(AggQuery::Count(where));
  }
  return queries;
}

struct Timing {
  double linear_ns = 0;
  double index_ns = 0;
};

/// Times both RouteMask implementations over the query panel,
/// cross-checking every mask pair. Returns false on a mismatch.
bool Measure(const ShardedBoundSolver& solver,
             const std::vector<AggQuery>& queries, size_t reps, Timing* out) {
  std::vector<ShardMask> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expected[i] = solver.RouteMaskLinear(queries[i]);
    if (solver.RouteMask(queries[i]) != expected[i]) {
      std::fprintf(stderr,
                   "FAIL: mask mismatch at query %zu (shards=%zu pcs=%zu)\n",
                   i, solver.num_shards(), solver.constraints().size());
      return false;
    }
  }
  ShardMask sink = 0;  // defeat dead-code elimination
  const double per_query = 1e6 / static_cast<double>(reps * queries.size());
  std::vector<double> linear_ns, index_ns;
  for (int sample = 0; sample < 5; ++sample) {
    bench::Stopwatch lin;
    for (size_t r = 0; r < reps; ++r) {
      for (const AggQuery& q : queries) sink ^= solver.RouteMaskLinear(q);
    }
    linear_ns.push_back(lin.ElapsedMs() * per_query);
    bench::Stopwatch idx;
    for (size_t r = 0; r < reps; ++r) {
      for (const AggQuery& q : queries) sink ^= solver.RouteMask(q);
    }
    index_ns.push_back(idx.ElapsedMs() * per_query);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  out->linear_ns = median(linear_ns);
  out->index_ns = median(index_ns);
  if (sink == ShardMask{0xdeadbeef}) std::printf("(unlikely)\n");
  return true;
}

int Run() {
  auto json = bench::JsonEmitter::FromEnv("routing");
  std::printf("%8s %8s %12s %12s %9s\n", "shards", "pcs", "linear-ns/q",
              "index-ns/q", "speedup");

  struct Config {
    size_t shards;
    size_t pcs;
  };
  const Config configs[] = {{4, 1000},  {16, 1000},  {64, 1000},
                            {4, 10000}, {16, 10000}, {64, 10000},
                            {64, 20000}};
  bool key_config_fast = false;
  double ns_64_10k = 0, ns_64_20k = 0;
  for (const Config& cfg : configs) {
    const PredicateConstraintSet pcs = DisjointSet(cfg.pcs);
    ShardedBoundSolver::Options opts;
    opts.partition = {cfg.shards, PartitionStrategy::kAttributeRange};
    const ShardedBoundSolver solver(pcs, {}, opts);

    Rng rng(9000 + cfg.shards);
    const auto queries = NarrowQueries(cfg.pcs, 500, rng);
    Timing t;
    if (!Measure(solver, queries, /*reps=*/8, &t)) return 1;
    const double speedup = t.linear_ns / t.index_ns;
    std::printf("%8zu %8zu %12.0f %12.0f %8.1fx\n", cfg.shards, cfg.pcs,
                t.linear_ns, t.index_ns, speedup);
    json.Add()
        .Num("shards", static_cast<double>(cfg.shards))
        .Num("pcs", static_cast<double>(cfg.pcs))
        .Num("linear_ns_per_query", t.linear_ns)
        .Num("index_ns_per_query", t.index_ns)
        .Num("speedup", speedup);
    if (cfg.shards == 64 && cfg.pcs == 10000) {
      ns_64_10k = t.index_ns;
      key_config_fast = speedup >= 2.0;
    }
    if (cfg.shards == 64 && cfg.pcs == 20000) ns_64_20k = t.index_ns;
  }

  // Self-checks beyond mask equality: the acceptance bar (>= 2x at
  // 64 shards x 10k PCs) and sublinear scaling (doubling n must not
  // double the indexed dispatch time).
  if (!key_config_fast) {
    std::fprintf(stderr, "FAIL: index < 2x linear at 64 shards x 10k PCs\n");
    return 1;
  }
  const double scale = ns_64_20k / ns_64_10k;
  std::printf("\n64-shard index dispatch 10k -> 20k PCs: %.2fx time "
              "(sublinear < 2x)\n", scale);
  if (scale >= 2.0) {
    std::fprintf(stderr, "FAIL: indexed dispatch scaled linearly with n\n");
    return 1;
  }
  std::printf("self-check OK: masks bit-identical, >=2x at 64x10k, "
              "sublinear in n\n");
  return 0;
}

}  // namespace
}  // namespace pcx

int main() { return pcx::Run(); }
