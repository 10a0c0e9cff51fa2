#include "serve/sharded_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "baselines/pc_estimator.h"
#include "common/metrics.h"
#include "common/random.h"
#include "eval/harness.h"
#include "pc/group_by.h"
#include "serve/delta_log.h"
#include "workload/datasets.h"
#include "workload/missing.h"
#include "workload/pc_gen.h"
#include "workload/query_gen.h"

namespace pcx {
namespace {

bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Randomized PC set over 2 attributes: `clusters` overlap components,
/// each a cluster of 1..4 mutually overlapping boxes placed far from
/// the other clusters, with value ranges on attribute 1 and occasional
/// mandatory frequencies. `integral` snaps every endpoint to integers.
PredicateConstraintSet RandomSet(Rng& rng, size_t clusters, bool integral) {
  PredicateConstraintSet pcs;
  for (size_t c = 0; c < clusters; ++c) {
    const double base = 1000.0 * static_cast<double>(c);
    const size_t members = static_cast<size_t>(rng.UniformInt(1, 4));
    for (size_t m = 0; m < members; ++m) {
      double p_lo = base + rng.Uniform(0.0, 40.0);
      double p_hi = p_lo + rng.Uniform(10.0, 60.0);  // wide: overlaps
      double v_lo = rng.Uniform(-20.0, 10.0);
      double v_hi = v_lo + rng.Uniform(0.0, 30.0);
      double k_lo = rng.UniformInt(0, 2) == 0
                        ? static_cast<double>(rng.UniformInt(1, 3))
                        : 0.0;
      double k_hi = k_lo + static_cast<double>(rng.UniformInt(1, 8));
      if (integral) {
        p_lo = std::floor(p_lo);
        p_hi = std::floor(p_hi) + 1.0;
        v_lo = std::floor(v_lo);
        v_hi = std::floor(v_hi) + 1.0;
      }
      Predicate pred(2);
      pred.AddRange(0, p_lo, p_hi);
      Box values(2);
      values.Constrain(1, Interval::Closed(v_lo, v_hi));
      pcs.Add(PredicateConstraint(pred, values, {k_lo, k_hi}));
    }
  }
  return pcs;
}

/// Query panel: every aggregate x {no WHERE, narrow single-cluster
/// WHERE, wide multi-cluster WHERE, WHERE outside every predicate}.
std::vector<AggQuery> QueryPanel(size_t clusters, Rng& rng) {
  std::vector<AggQuery> queries;
  std::vector<std::optional<Predicate>> wheres;
  wheres.push_back(std::nullopt);
  {
    const double base = 1000.0 * static_cast<double>(rng.UniformInt(
                                     0, static_cast<int64_t>(clusters) - 1));
    Predicate narrow(2);
    narrow.AddRange(0, base, base + rng.Uniform(20.0, 80.0));
    wheres.push_back(narrow);
  }
  {
    Predicate wide(2);
    wide.AddRange(0, 0.0, 1000.0 * static_cast<double>(clusters));
    wheres.push_back(wide);
  }
  {
    Predicate outside(2);
    outside.AddRange(0, -500.0, -400.0);
    wheres.push_back(outside);
  }
  for (const auto& where : wheres) {
    for (AggFunc agg : {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                        AggFunc::kMin, AggFunc::kMax}) {
      queries.push_back(AggQuery{agg, 1, where});
    }
  }
  return queries;
}

void ExpectSameAnswer(const StatusOr<ResultRange>& expected,
                      const StatusOr<ResultRange>& actual,
                      const std::string& context) {
  ASSERT_EQ(expected.ok(), actual.ok())
      << context << ": " << (expected.ok() ? actual : expected).status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().code(), actual.status().code()) << context;
    return;
  }
  EXPECT_TRUE(BitIdentical(expected->lo, actual->lo))
      << context << ": lo " << expected->lo << " vs " << actual->lo;
  EXPECT_TRUE(BitIdentical(expected->hi, actual->hi))
      << context << ": hi " << expected->hi << " vs " << actual->hi;
  EXPECT_EQ(expected->defined, actual->defined) << context;
  EXPECT_EQ(expected->empty_instance_possible,
            actual->empty_instance_possible)
      << context;
}

TEST(ShardedSolverTest, BitIdenticalToUnshardedOnRandomSets) {
  Rng rng(1234);
  for (int trial = 0; trial < 6; ++trial) {
    const size_t clusters = static_cast<size_t>(rng.UniformInt(2, 4));
    const PredicateConstraintSet pcs =
        RandomSet(rng, clusters, /*integral=*/trial % 2 == 0);
    const PcBoundSolver reference(pcs, {});
    const auto queries = QueryPanel(clusters, rng);

    for (size_t k : {1u, 2u, 3u, 8u}) {
      for (PartitionStrategy strategy : {PartitionStrategy::kRoundRobin,
                                         PartitionStrategy::kAttributeRange}) {
        ShardedBoundSolver::Options opts;
        opts.partition = {k, strategy};
        const ShardedBoundSolver sharded(pcs, {}, opts);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          const std::string context =
              "trial " + std::to_string(trial) + " k=" + std::to_string(k) +
              " strategy=" + std::to_string(static_cast<int>(strategy)) +
              " query " + std::to_string(qi);
          ExpectSameAnswer(reference.Bound(queries[qi]),
                           sharded.Bound(queries[qi]), context);
        }
      }
    }
  }
}

TEST(ShardedSolverTest, BoundBatchMatchesUnshardedSequential) {
  Rng rng(99);
  const PredicateConstraintSet pcs = RandomSet(rng, 4, /*integral=*/false);
  const PcBoundSolver reference(pcs, {});
  const auto queries = QueryPanel(4, rng);

  ShardedBoundSolver::Options opts;
  opts.partition = {4, PartitionStrategy::kAttributeRange};
  for (size_t threads : {1u, 4u}) {
    opts.num_threads = threads;
    const ShardedBoundSolver sharded(pcs, {}, opts);
    std::vector<PcBoundSolver::SolveStats> stats;
    const auto batch = sharded.BoundBatch(queries, &stats);
    ASSERT_EQ(batch.size(), queries.size());
    ASSERT_EQ(stats.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameAnswer(reference.Bound(queries[i]), batch[i],
                       "threads=" + std::to_string(threads) + " query " +
                           std::to_string(i));
    }
    const auto serve = sharded.stats();
    EXPECT_EQ(serve.queries, queries.size());
  }
}

TEST(ShardedSolverTest, GroupByMatchesUnsharded) {
  Rng rng(512);
  const PredicateConstraintSet pcs = RandomSet(rng, 3, /*integral=*/true);
  const PcBoundSolver reference(pcs, {});
  ShardedBoundSolver::Options opts;
  opts.partition = {3, PartitionStrategy::kAttributeRange};
  const ShardedBoundSolver sharded(pcs, {}, opts);

  // Group on the predicate attribute: values hit different clusters.
  std::vector<double> groups;
  for (size_t c = 0; c < 3; ++c) {
    groups.push_back(1000.0 * static_cast<double>(c) + 10.0);
    groups.push_back(1000.0 * static_cast<double>(c) + 30.0);
  }
  for (AggFunc agg : {AggFunc::kCount, AggFunc::kSum, AggFunc::kMax}) {
    const AggQuery q{agg, 1, std::nullopt};
    const auto expected = BoundGroupBy(reference, q, 0, groups, 1);
    const auto actual = sharded.BoundGroupBy(q, 0, groups);
    ASSERT_EQ(expected.ok(), actual.ok());
    if (!expected.ok()) continue;
    ASSERT_EQ(expected->size(), actual->size());
    for (size_t g = 0; g < expected->size(); ++g) {
      EXPECT_EQ((*expected)[g].group_value, (*actual)[g].group_value);
      ExpectSameAnswer((*expected)[g].range, (*actual)[g].range,
                       "group " + std::to_string(g));
    }
  }

  // Error parity.
  const AggQuery q{AggFunc::kCount, 0, std::nullopt};
  const auto bad_expected = BoundGroupBy(reference, q, 99, groups, 1);
  const auto bad_actual = sharded.BoundGroupBy(q, 99, groups);
  ASSERT_FALSE(bad_expected.ok());
  ASSERT_FALSE(bad_actual.ok());
  EXPECT_EQ(bad_expected.status().code(), bad_actual.status().code());
}

TEST(ShardedSolverTest, RoutingStatsAndUnionMemoization) {
  Rng rng(31);
  const PredicateConstraintSet pcs = RandomSet(rng, 4, /*integral=*/true);
  ShardedBoundSolver::Options opts;
  opts.partition = {4, PartitionStrategy::kAttributeRange};
  const ShardedBoundSolver sharded(pcs, {}, opts);

  Predicate narrow(2);
  narrow.AddRange(0, 0.0, 50.0);
  ASSERT_TRUE(sharded.Bound(AggQuery::Count(narrow)).ok());
  auto s1 = sharded.stats();
  EXPECT_EQ(s1.single_shard_queries, 1u);
  EXPECT_EQ(s1.union_solvers_built, 0u);

  Predicate wide(2);
  wide.AddRange(0, 0.0, 4000.0);
  ASSERT_TRUE(sharded.Bound(AggQuery::Count(wide)).ok());
  auto s2 = sharded.stats();
  EXPECT_EQ(s2.multi_shard_queries, 1u);
  EXPECT_EQ(s2.union_solvers_built, 1u);

  // Same span again: the union solver is memoized, not rebuilt.
  ASSERT_TRUE(sharded.Bound(AggQuery::Sum(1, wide)).ok());
  auto s3 = sharded.stats();
  EXPECT_EQ(s3.union_solvers_built, 1u);

  Predicate outside(2);
  outside.AddRange(0, -900.0, -800.0);
  ASSERT_TRUE(sharded.Bound(AggQuery::Count(outside)).ok());
  EXPECT_EQ(sharded.stats().no_shard_queries, 1u);
}

TEST(ShardedSolverTest, StatsAreRegistryViewsSharedAcrossApplyDeltas) {
  Rng rng(31);
  const PredicateConstraintSet pcs = RandomSet(rng, 4, /*integral=*/true);
  ShardedBoundSolver::Options opts;
  opts.partition = {4, PartitionStrategy::kAttributeRange};

  // Without Options::metrics a solver counts into a registry it owns:
  // its ApplyDeltas successors add to the same counters, an unrelated
  // solver does not.
  const auto base = std::make_shared<const ShardedBoundSolver>(
      pcs, std::vector<AttrDomain>{}, opts);
  const ShardedBoundSolver unrelated(pcs, {}, opts);
  ASSERT_TRUE(base->Bound(AggQuery::Count()).ok());
  DeltaRecord retire;
  retire.epoch = base->epoch() + 1;
  retire.op = DeltaOp::kRetire;
  retire.retire_index = 0;
  const auto next = base->ApplyDeltas(std::span<const DeltaRecord>(&retire, 1));
  ASSERT_TRUE(next.ok()) << next.status();
  ASSERT_TRUE((*next)->Bound(AggQuery::Count()).ok());
  // A query rejected before routing is counted under no shard.
  EXPECT_FALSE((*next)->Bound(AggQuery::Sum(17)).ok());
  EXPECT_EQ((*next)->stats().queries, 3u);
  EXPECT_EQ((*next)->stats().no_shard_queries, 1u);
  EXPECT_EQ(base->stats().queries, 3u);
  EXPECT_EQ(unrelated.stats().queries, 0u);

  // A caller's registry holds the series stats() reads.
  MetricsRegistry registry;
  opts.metrics = &registry;
  const ShardedBoundSolver shared(pcs, {}, opts);
  std::vector<PcBoundSolver::SolveStats> per_query;
  const std::vector<AggQuery> queries = QueryPanel(4, rng);
  shared.BoundBatch(queries, &per_query);
  PcBoundSolver::SolveStats total;
  for (const PcBoundSolver::SolveStats& q : per_query) total += q;
  const ShardedBoundSolver::ServeStats s = shared.stats();
  EXPECT_EQ(s.queries, queries.size());
  EXPECT_EQ(registry.GetCounter("pcx_bound_queries_total", {{"fanout", "single"}})
                .value(),
            s.single_shard_queries);
  EXPECT_EQ(s.solve.num_cells, total.num_cells);
  EXPECT_EQ(s.solve.sat_calls, total.sat_calls);
  EXPECT_EQ(registry.GetCounter("pcx_sat_calls_total").value(),
            total.sat_calls);
  EXPECT_EQ(s.solve.milp_nodes, total.milp_nodes);
  EXPECT_EQ(s.solve.lp_pivots, total.lp_pivots);
}

TEST(ShardedSolverTest, PersistentSatCacheAmortizesRepeatQueries) {
  Rng rng(8);
  const PredicateConstraintSet pcs = RandomSet(rng, 2, /*integral=*/false);

  // Direct solver check: a repeated query is answered entirely from the
  // memo cache, with identical bounds.
  PcBoundSolver::Options popts;
  popts.persistent_sat_cache = true;
  const PcBoundSolver cached(pcs, {}, popts);
  const PcBoundSolver plain(pcs, {});

  Predicate where(2);
  where.AddRange(0, 0.0, 1200.0);
  const AggQuery q = AggQuery::Sum(1, where);

  const auto first = cached.Bound(q);
  const auto first_stats = cached.last_stats();
  const auto second = cached.Bound(q);
  const auto second_stats = cached.last_stats();
  const auto baseline = plain.Bound(q);

  ASSERT_TRUE(first.ok() && second.ok() && baseline.ok());
  EXPECT_TRUE(BitIdentical(first->lo, baseline->lo));
  EXPECT_TRUE(BitIdentical(first->hi, baseline->hi));
  EXPECT_TRUE(BitIdentical(second->lo, baseline->lo));
  EXPECT_TRUE(BitIdentical(second->hi, baseline->hi));
  EXPECT_EQ(second_stats.sat_calls, first_stats.sat_calls);
  // The repeat run answers every *memoizable* decision from the cache
  // (trivially-UNSAT shortcuts never reach it, so hits < calls).
  EXPECT_GT(second_stats.sat_cache_hits, first_stats.sat_cache_hits);
  EXPECT_GT(second_stats.sat_cache_hits, 0u);

  // Sharded: the per-shard solvers inherit the flag; repeat queries
  // raise the cumulative hit counter.
  ShardedBoundSolver::Options opts;
  opts.partition = {2, PartitionStrategy::kAttributeRange};
  opts.solver.persistent_sat_cache = true;
  const ShardedBoundSolver sharded(pcs, {}, opts);
  ASSERT_TRUE(sharded.Bound(q).ok());
  const size_t hits_after_one = sharded.stats().solve.sat_cache_hits;
  ASSERT_TRUE(sharded.Bound(q).ok());
  const size_t hits_after_two = sharded.stats().solve.sat_cache_hits;
  EXPECT_GT(hits_after_two, hits_after_one);
}

TEST(ShardedSolverTest, ErrorParityForBadAttribute) {
  Rng rng(5);
  const PredicateConstraintSet pcs = RandomSet(rng, 2, /*integral=*/true);
  const PcBoundSolver reference(pcs, {});
  ShardedBoundSolver::Options opts;
  opts.partition = {2, PartitionStrategy::kRoundRobin};
  const ShardedBoundSolver sharded(pcs, {}, opts);

  // Out-of-range aggregate attribute fails identically even when the
  // WHERE region misses every shard.
  Predicate outside(2);
  outside.AddRange(0, -100.0, -50.0);
  const AggQuery bad{AggFunc::kSum, 17, outside};
  const auto expected = reference.Bound(bad);
  const auto actual = sharded.Bound(bad);
  ASSERT_FALSE(expected.ok());
  ASSERT_FALSE(actual.ok());
  EXPECT_EQ(expected.status().code(), actual.status().code());
  EXPECT_EQ(expected.status().message(), actual.status().message());
}

TEST(ShardedSolverTest, EvalHarnessReportsMatchUnshardedEstimator) {
  // The eval harness's sharded mode: ShardedPcEstimator must report the
  // exact same failure rate and tightness as PcEstimator on a real
  // workload (a whole-pipeline bit-identity check on the Fig. 8 Corr-PC
  // setting, in miniature).
  workload::IntelWirelessOptions opts;
  opts.num_devices = 8;
  opts.num_epochs = 60;
  const Table full = workload::MakeIntelWireless(opts);
  auto split = workload::SplitTopValueCorrelated(full, 2, 0.35);
  const auto domains = DomainsFromSchema(full.schema());
  const auto pcs = workload::MakeCorrPCs(split.missing, {0, 1}, 2, 30);

  workload::QueryGenOptions qopts;
  qopts.count = 40;
  qopts.seed = 5;
  const auto queries =
      workload::MakeRandomRangeQueries(full, {0, 1}, AggFunc::kSum, 2, qopts);

  const PcEstimator unsharded(pcs, domains, "Corr-PC");
  ShardedBoundSolver::Options sopts;
  sopts.partition = {4, PartitionStrategy::kAttributeRange};
  const ShardedPcEstimator sharded(pcs, domains, sopts, "Corr-PC-sharded");

  const auto a = eval::EvaluateEstimator(unsharded, queries, split.missing);
  const auto b = eval::EvaluateEstimator(sharded, queries, split.missing);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.skipped, b.skipped);
  ASSERT_EQ(a.over_rates.size(), b.over_rates.size());
  for (size_t i = 0; i < a.over_rates.size(); ++i) {
    EXPECT_TRUE(BitIdentical(a.over_rates[i], b.over_rates[i])) << i;
  }
}

TEST(ShardedSolverTest, SnapshotConstructorPreservesAnswersAndEpoch) {
  Rng rng(640);
  const PredicateConstraintSet pcs = RandomSet(rng, 3, /*integral=*/false);
  const std::vector<AttrDomain> domains = {AttrDomain::kContinuous,
                                           AttrDomain::kContinuous};
  const Partition partition = PartitionPcSet(
      pcs, domains, {3, PartitionStrategy::kAttributeRange});
  const Snapshot snap = MakeSnapshot(pcs, domains, partition, 11);

  const PcBoundSolver reference(pcs, domains);
  const ShardedBoundSolver sharded(snap);
  EXPECT_EQ(sharded.epoch(), 11u);
  EXPECT_EQ(sharded.num_shards(), 3u);

  Rng qrng(641);
  for (const AggQuery& q : QueryPanel(3, qrng)) {
    ExpectSameAnswer(reference.Bound(q), sharded.Bound(q), "snapshot ctor");
  }
}

/// One constraint over attribute 0 (integer) of a 2-attribute schema.
PredicateConstraint SpanPc(double lo, double hi) {
  Predicate pred(2);
  pred.AddRange(0, lo, hi);
  Box values(2);
  values.Constrain(1, Interval::Closed(0.0, 10.0));
  return PredicateConstraint(pred, values, {0, 3});
}

/// Checks the incrementally maintained overlap metadata against a
/// fresh partition of the same set: component ids, count and largest
/// size exactly; estimated costs as OverlapComponents attributes them
/// to the solver's own layout (the shard of a component's smallest
/// member), with the same total a fresh partition reports.
void ExpectFreshComponents(const ShardedBoundSolver& solver,
                           const std::string& context) {
  const PredicateConstraintSet& flat = solver.constraints();
  const Partition& got = solver.partition();
  const Partition fresh = PartitionPcSet(
      flat, solver.domains(), {solver.num_shards(),
                               PartitionStrategy::kAttributeRange});
  EXPECT_EQ(got.component_of, fresh.component_of) << context;
  EXPECT_EQ(got.num_components, fresh.num_components) << context;
  EXPECT_EQ(got.largest_component, fresh.largest_component) << context;

  std::vector<size_t> shard_of(flat.size(), 0);
  for (size_t s = 0; s < got.shards.size(); ++s) {
    for (size_t i : got.shards[s]) shard_of[i] = s;
  }
  std::vector<double> want_cost(got.shards.size(), 0.0);
  for (const std::vector<size_t>& comp :
       OverlapComponents(flat, solver.domains())) {
    want_cost[shard_of[comp.front()]] += EstimateComponentCost(comp.size());
  }
  EXPECT_EQ(got.estimated_cost, want_cost) << context;
  double got_total = 0.0, fresh_total = 0.0;
  for (double c : got.estimated_cost) got_total += c;
  for (double c : fresh.estimated_cost) fresh_total += c;
  EXPECT_EQ(got_total, fresh_total) << context;
}

TEST(ShardedSolverTest, ApplyDeltasKeepsComponentsExact) {
  const std::vector<AttrDomain> domains = {AttrDomain::kInteger,
                                           AttrDomain::kContinuous};
  for (const uint64_t seed : {3u, 19u, 56u, 90u}) {
    Rng rng(seed);
    // Chains of touching spans ([a, a+2], [a+2, a+4], ...) spaced apart,
    // plus singletons: retiring a chain's middle splits it.
    PredicateConstraintSet base;
    for (int c = 0; c < 6; ++c) {
      const double at = 100.0 * c;
      const int len = static_cast<int>(rng.UniformInt(1, 5));
      for (int m = 0; m < len; ++m) {
        base.Add(SpanPc(at + 2 * m, at + 2 * m + 2));
      }
    }
    ShardedBoundSolver::Options options;
    options.partition.num_shards = 4;
    auto solver =
        std::make_shared<const ShardedBoundSolver>(base, domains, options);
    ExpectFreshComponents(*solver, "seed " + std::to_string(seed) + " base");

    uint64_t epoch = solver->epoch();
    for (int round = 0; round < 30; ++round) {
      const std::string context =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      size_t size = solver->constraints().size();
      std::vector<DeltaRecord> records;
      const size_t batch = static_cast<size_t>(rng.UniformInt(1, 4));
      for (size_t r = 0; r < batch; ++r) {
        DeltaRecord rec;
        rec.epoch = ++epoch;
        const int64_t kind = rng.UniformInt(0, 9);
        if (kind < 4 || size == 0) {
          rec.op = DeltaOp::kAppend;
          const double at = 100.0 * static_cast<double>(rng.UniformInt(0, 6));
          if (kind == 0) {
            // Bridge: spans into the next chain's region.
            rec.pc = SpanPc(at + 4, at + 104);
          } else if (kind == 1) {
            // Open integer gap (at, at+1): an empty predicate.
            rec.pc = PredicateConstraint(
                Predicate(2).AddInterval(0, Interval{at, at + 1, true, true}),
                Box(2), {0, 1});
          } else {
            const double lo = at + static_cast<double>(rng.UniformInt(0, 12));
            rec.pc = SpanPc(lo, lo + static_cast<double>(rng.UniformInt(0, 3)));
          }
          ++size;
        } else if (kind < 9) {
          rec.op = DeltaOp::kRetire;
          if (kind == 8 && !solver->partition().component_of.empty()) {
            // Retire the smallest member (the union-find root) of the
            // first multi-member component, when there is one.
            const Partition& p = solver->partition();
            std::vector<size_t> members(p.num_components, 0);
            for (size_t c : p.component_of) ++members[c];
            size_t pick = 0;
            for (size_t i = 0; i < p.component_of.size(); ++i) {
              if (members[p.component_of[i]] > 1) {
                pick = i;
                break;
              }
            }
            rec.retire_index = std::min(pick, size - 1);
          } else {
            rec.retire_index = static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(size) - 1));
          }
          --size;
        } else {
          rec.op = DeltaOp::kCheckpoint;
        }
        records.push_back(std::move(rec));
      }
      auto next = solver->ApplyDeltas(records);
      ASSERT_TRUE(next.ok()) << context << ": " << next.status();
      solver = std::move(*next);
      ASSERT_EQ(solver->constraints().size(), size) << context;
      ExpectFreshComponents(*solver, context);
    }
  }
}

}  // namespace
}  // namespace pcx
