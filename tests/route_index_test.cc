// Routing-equivalence tests: the compiled RouteIndex and every layer
// built on it must be *bit-identical* to the linear verification
// oracle — on corner-case geometry (-0.0, strict endpoints, point
// intervals, empty and unbounded boxes), on randomized sharded
// corpora, across delta-log mutation sequences, and over the wire.
#include "route/route_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "pc/serialization.h"
#include "route/shard_mask.h"
#include "serve/server.h"
#include "serve/sharded_solver.h"
#include "serve/snapshot.h"
#include "test_paths.h"

namespace pcx {
namespace {

bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// RouteIndex unit level: CollectIntersecting / AnyIntersects vs the
// brute-force IntersectionEmpty scan it must reproduce exactly.
// ---------------------------------------------------------------------------

std::vector<uint32_t> BruteIntersecting(const std::vector<Box>& boxes,
                                        const Box& query,
                                        const std::vector<AttrDomain>& domains) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < boxes.size(); ++i) {
    if (!boxes[i].IntersectionEmpty(query, domains)) out.push_back(i);
  }
  return out;
}

void ExpectIndexMatchesBrute(const std::vector<Box>& boxes,
                             const std::vector<AttrDomain>& domains,
                             const std::vector<Box>& queries,
                             const std::string& context) {
  const route::RouteIndex index(boxes, domains);
  EXPECT_EQ(index.size(), boxes.size());
  std::vector<uint32_t> got;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto want = BruteIntersecting(boxes, queries[qi], domains);
    index.CollectIntersecting(queries[qi], &got);
    EXPECT_EQ(got, want) << context << " query " << qi;
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()))
        << context << " query " << qi;
    EXPECT_EQ(index.AnyIntersects(queries[qi]), !want.empty())
        << context << " query " << qi;
  }
}

TEST(RouteIndexTest, CornerCaseEndpointsMatchBruteForce) {
  const std::vector<AttrDomain> domains = {AttrDomain::kContinuous,
                                           AttrDomain::kInteger};
  std::vector<Box> boxes;
  {  // Plain closed box.
    Box b(2);
    b.Constrain(0, Interval::Closed(0.0, 10.0));
    b.Constrain(1, Interval::Closed(0.0, 5.0));
    boxes.push_back(b);
  }
  {  // hi endpoint is -0.0: must abut a [0.0, ...) query.
    Box b(2);
    b.Constrain(0, Interval::Closed(-10.0, -0.0));
    boxes.push_back(b);
  }
  {  // Point interval.
    Box b(2);
    b.Constrain(0, Interval::Point(10.0));
    boxes.push_back(b);
  }
  {  // Strict-open on both sides: (0, 1) on a continuous attribute.
    Box b(2);
    b.Constrain(0, Interval{0.0, 1.0, true, true});
    boxes.push_back(b);
  }
  {  // Open integer interval (3, 4): no integer inside — empty box.
    Box b(2);
    b.Constrain(1, Interval{3.0, 4.0, true, true});
    boxes.push_back(b);
  }
  {  // Inverted bounds: empty, must never be reported.
    Box b(2);
    b.Constrain(0, Interval::Closed(5.0, 3.0));
    boxes.push_back(b);
  }
  {  // Unbounded on attribute 0, half-open on 1.
    Box b(2);
    b.Constrain(1, Interval::AtLeast(4.0));
    boxes.push_back(b);
  }
  boxes.push_back(Box(2));  // The universe box intersects everything sane.

  std::vector<Box> queries;
  {  // lo endpoint +0.0 against the -0.0 hi above.
    Box q(2);
    q.Constrain(0, Interval::Closed(0.0, 2.0));
    queries.push_back(q);
  }
  {  // Point query at -0.0.
    Box q(2);
    q.Constrain(0, Interval::Point(-0.0));
    queries.push_back(q);
  }
  {  // Strictly right of the point box: x > 10.
    Box q(2);
    q.Constrain(0, Interval::GreaterThan(10.0));
    queries.push_back(q);
  }
  {  // Open (3,4) integer query: empty under the domain.
    Box q(2);
    q.Constrain(1, Interval{3.0, 4.0, true, true});
    queries.push_back(q);
  }
  {  // Inverted query box.
    Box q(2);
    q.Constrain(0, Interval::Closed(1.0, -1.0));
    queries.push_back(q);
  }
  queries.push_back(Box(2));  // Universe query.
  {  // Touches only via a shared closed endpoint.
    Box q(2);
    q.Constrain(0, Interval::Closed(10.0, 20.0));
    queries.push_back(q);
  }
  ExpectIndexMatchesBrute(boxes, domains, queries, "corner cases");
}

Box RandomBox(Rng& rng, size_t num_attrs) {
  Box b(static_cast<size_t>(num_attrs));
  for (size_t d = 0; d < num_attrs; ++d) {
    switch (rng.UniformInt(0, 6)) {
      case 0:
        break;  // unbounded on this attribute
      case 1:
        b.Constrain(d, Interval::Point(std::floor(rng.Uniform(-5.0, 5.0))));
        break;
      case 2:
        b.Constrain(d, Interval::AtLeast(rng.Uniform(-50.0, 50.0)));
        break;
      case 3:
        b.Constrain(d, Interval::AtMost(rng.Uniform(-50.0, 50.0)));
        break;
      case 4: {  // strict on a random side
        const double lo = rng.Uniform(-50.0, 50.0);
        b.Constrain(d, Interval{lo, lo + rng.Uniform(0.0, 30.0),
                                rng.UniformInt(0, 1) == 0,
                                rng.UniformInt(0, 1) == 0});
        break;
      }
      case 5: {  // occasionally inverted (empty)
        const double lo = rng.Uniform(-50.0, 50.0);
        b.Constrain(d, Interval::Closed(lo, lo - 1.0));
        break;
      }
      default: {
        const double lo = rng.Uniform(-50.0, 50.0);
        b.Constrain(d, Interval::Closed(lo, lo + rng.Uniform(0.0, 40.0)));
        break;
      }
    }
  }
  return b;
}

TEST(RouteIndexTest, RandomizedBoxesMatchBruteForce) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t num_attrs = static_cast<size_t>(rng.UniformInt(1, 4));
    std::vector<AttrDomain> domains;
    for (size_t d = 0; d < num_attrs; ++d) {
      domains.push_back(rng.UniformInt(0, 1) == 0 ? AttrDomain::kContinuous
                                                  : AttrDomain::kInteger);
    }
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 60));
    std::vector<Box> boxes;
    for (size_t i = 0; i < n; ++i) boxes.push_back(RandomBox(rng, num_attrs));
    std::vector<Box> queries;
    for (size_t i = 0; i < 25; ++i) queries.push_back(RandomBox(rng, num_attrs));
    ExpectIndexMatchesBrute(boxes, domains, queries,
                            "trial " + std::to_string(trial));
  }
}

TEST(RouteIndexTest, StatsDescribeCompiledShape) {
  std::vector<Box> boxes;
  for (int i = 0; i < 8; ++i) {
    Box b(2);
    b.Constrain(0, Interval::Closed(10.0 * i, 10.0 * i + 5.0));
    boxes.push_back(b);
  }
  const route::RouteIndex index(
      boxes, {AttrDomain::kContinuous, AttrDomain::kContinuous});
  const auto& s = index.stats();
  EXPECT_EQ(s.num_boxes, 8u);
  EXPECT_EQ(s.num_lanes, 1u);  // only attribute 0 is ever bounded
  EXPECT_EQ(s.num_entries, 16u);  // by_hi + by_lo
  EXPECT_GT(s.depth, 0u);
  EXPECT_LE(s.depth, 4u);  // ceil(log2(8)) + 1
}

// ---------------------------------------------------------------------------
// Sharded level: RouteMask vs the RouteMaskLinear reference on random
// corpora, and solves through the same routing.
// ---------------------------------------------------------------------------

/// Clustered random corpus mirroring sharded_solver_test's: `clusters`
/// overlap components on attribute 0, values on attribute 1.
PredicateConstraintSet RandomClusteredSet(Rng& rng, size_t clusters) {
  PredicateConstraintSet pcs;
  for (size_t c = 0; c < clusters; ++c) {
    const double base = 1000.0 * static_cast<double>(c);
    const size_t members = static_cast<size_t>(rng.UniformInt(1, 4));
    for (size_t m = 0; m < members; ++m) {
      const double p_lo = base + rng.Uniform(0.0, 40.0);
      const double p_hi = p_lo + rng.Uniform(10.0, 60.0);
      Predicate pred(2);
      pred.AddRange(0, p_lo, p_hi);
      Box values(2);
      values.Constrain(1, Interval::Closed(-10.0, 10.0));
      pcs.Add(PredicateConstraint(pred, values, {0, 5}));
    }
  }
  return pcs;
}

/// WHERE panel stressing the router: none, narrow, wide, outside,
/// point, -0.0 point, strict-open, exact hull-endpoint touch.
std::vector<AggQuery> RoutingQueryPanel(size_t clusters, Rng& rng) {
  std::vector<AggQuery> queries;
  queries.push_back(AggQuery::Count());
  const double base = 1000.0 * static_cast<double>(rng.UniformInt(
                                   0, static_cast<int64_t>(clusters) - 1));
  {
    Predicate narrow(2);
    narrow.AddRange(0, base, base + 30.0);
    queries.push_back(AggQuery::Count(narrow));
  }
  {
    Predicate wide(2);
    wide.AddRange(0, -10.0, 1000.0 * static_cast<double>(clusters));
    queries.push_back(AggQuery::Sum(1, wide));
  }
  {
    Predicate outside(2);
    outside.AddRange(0, -500.0, -400.0);
    queries.push_back(AggQuery::Count(outside));
  }
  {
    Predicate point(2);
    point.AddInterval(0, Interval::Point(base + 20.0));
    queries.push_back(AggQuery::Count(point));
  }
  {
    Predicate neg_zero(2);
    neg_zero.AddInterval(0, Interval::Point(-0.0));
    queries.push_back(AggQuery::Count(neg_zero));
  }
  {
    Predicate open(2);
    open.AddInterval(0, Interval{base, base + 50.0, true, true});
    queries.push_back(AggQuery::Count(open));
  }
  {
    Predicate inverted(2);
    inverted.AddInterval(0, Interval::Closed(base, base - 1.0));
    queries.push_back(AggQuery::Count(inverted));
  }
  return queries;
}

TEST(ShardedRoutingTest, IndexedMaskBitIdenticalToLinearOracle) {
  Rng rng(777);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t clusters = static_cast<size_t>(rng.UniformInt(2, 6));
    const PredicateConstraintSet pcs = RandomClusteredSet(rng, clusters);
    const auto queries = RoutingQueryPanel(clusters, rng);
    for (size_t k : {1u, 2u, 3u, 8u}) {
      for (PartitionStrategy strategy : {PartitionStrategy::kRoundRobin,
                                         PartitionStrategy::kAttributeRange}) {
        ShardedBoundSolver::Options opts;
        opts.partition = {k, strategy};
        const ShardedBoundSolver sharded(pcs, {}, opts);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          const ShardMask indexed = sharded.RouteMask(queries[qi]);
          const ShardMask linear = sharded.RouteMaskLinear(queries[qi]);
          EXPECT_EQ(indexed, linear)
              << "trial " << trial << " k=" << k << " strategy="
              << static_cast<int>(strategy) << " query " << qi;
          // The solve path routes through the same mask.
          EXPECT_TRUE(sharded.Bound(queries[qi]).ok()) << qi;
        }
      }
    }
  }
}

TEST(ShardedRoutingTest, IndexModeAnswersBitIdenticalToLinearMode) {
  Rng rng(31337);
  const PredicateConstraintSet pcs = RandomClusteredSet(rng, 4);
  // No member index: shards confirm a hull hit with the linear member
  // scan, and the solvers scan every constraint.
  ShardedBoundSolver::Options linear_opts;
  linear_opts.partition = {4, PartitionStrategy::kAttributeRange};
  linear_opts.solver.use_route_index = false;
  ShardedBoundSolver::Options index_opts;
  index_opts.partition = linear_opts.partition;
  const ShardedBoundSolver linear(pcs, {}, linear_opts);
  const ShardedBoundSolver indexed(pcs, {}, index_opts);

  Rng qrng(31338);
  for (int round = 0; round < 3; ++round) {
    for (const AggQuery& q : RoutingQueryPanel(4, qrng)) {
      const auto a = linear.Bound(q);
      const auto b = indexed.Bound(q);
      ASSERT_EQ(a.ok(), b.ok());
      if (!a.ok()) continue;
      EXPECT_TRUE(BitIdentical(a->lo, b->lo)) << a->lo << " vs " << b->lo;
      EXPECT_TRUE(BitIdentical(a->hi, b->hi)) << a->hi << " vs " << b->hi;
      EXPECT_EQ(a->defined, b->defined);
      EXPECT_EQ(a->empty_instance_possible, b->empty_instance_possible);
    }
  }
  EXPECT_GT(indexed.stats().queries, 0u);
  EXPECT_GT(indexed.RouteIndexTotals().num_entries, 0u);
}

// ---------------------------------------------------------------------------
// Delta-log sequences: every ApplyDeltas successor keeps the compiled
// index equivalent to the oracle (touched lanes rebuilt, untouched
// shard indexes reused).
// ---------------------------------------------------------------------------

DeltaRecord AppendRecord(uint64_t epoch, double p_lo, double p_hi) {
  Predicate pred(2);
  pred.AddRange(0, p_lo, p_hi);
  Box values(2);
  values.Constrain(1, Interval::Closed(-10.0, 10.0));
  DeltaRecord rec;
  rec.epoch = epoch;
  rec.op = DeltaOp::kAppend;
  rec.pc = PredicateConstraint(pred, values, {0, 5});
  return rec;
}

DeltaRecord RetireRecord(uint64_t epoch, size_t index) {
  DeltaRecord rec;
  rec.epoch = epoch;
  rec.op = DeltaOp::kRetire;
  rec.retire_index = index;
  return rec;
}

DeltaRecord CheckpointRecord(uint64_t epoch) {
  DeltaRecord rec;
  rec.epoch = epoch;
  rec.op = DeltaOp::kCheckpoint;
  return rec;
}

TEST(ShardedRoutingTest, DeltaSequencesKeepIndexEquivalentToOracle) {
  Rng rng(2024);
  for (int trial = 0; trial < 4; ++trial) {
    const size_t clusters = 3;
    ShardedBoundSolver::Options opts;
    opts.partition = {3, PartitionStrategy::kAttributeRange};
    auto solver = std::make_shared<const ShardedBoundSolver>(
        RandomClusteredSet(rng, clusters), std::vector<AttrDomain>{}, opts);

    for (int step = 0; step < 6; ++step) {
      const uint64_t next = solver->epoch() + 1;
      std::vector<DeltaRecord> records;
      switch (rng.UniformInt(0, 3)) {
        case 0: {  // in-cluster append
          const double base =
              1000.0 * static_cast<double>(rng.UniformInt(0, 2));
          records.push_back(AppendRecord(next, base + 5.0, base + 45.0));
          break;
        }
        case 1:  // bridge append spanning two clusters (merges shards)
          records.push_back(AppendRecord(next, 20.0, 1030.0));
          break;
        case 2: {  // retire a random survivor
          if (solver->constraints().size() == 0) continue;
          records.push_back(RetireRecord(
              next, static_cast<size_t>(rng.UniformInt(
                        0, static_cast<int64_t>(
                               solver->constraints().size()) -
                               1))));
          break;
        }
        default:  // checkpoint: from-scratch re-partition + recompile
          records.push_back(CheckpointRecord(next));
          break;
      }
      auto applied = solver->ApplyDeltas(records);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      solver = *applied;

      Rng qrng(static_cast<uint64_t>(trial) * 100 + step);
      for (const AggQuery& q : RoutingQueryPanel(clusters, qrng)) {
        EXPECT_EQ(solver->RouteMask(q), solver->RouteMaskLinear(q))
            << "trial " << trial << " step " << step;
        EXPECT_TRUE(solver->Bound(q).ok());
      }
      // The successor must also agree with a from-scratch build over
      // the same surviving set.
      const ShardedBoundSolver fresh(solver->constraints(), {}, opts);
      Rng qrng2(static_cast<uint64_t>(trial) * 100 + step);
      for (const AggQuery& q : RoutingQueryPanel(clusters, qrng2)) {
        EXPECT_EQ(fresh.RouteMask(q), fresh.RouteMaskLinear(q));
        const auto a = fresh.Bound(q);
        const auto b = solver->Bound(q);
        ASSERT_EQ(a.ok(), b.ok());
        if (!a.ok()) continue;
        EXPECT_TRUE(BitIdentical(a->lo, b->lo));
        EXPECT_TRUE(BitIdentical(a->hi, b->hi));
      }
    }
  }
}

/// The global PC indices a mask selects under a solver's layout — the
/// routing outcome that is comparable across different partitions.
std::vector<size_t> SelectedPcs(const ShardedBoundSolver& solver,
                                ShardMask mask) {
  std::vector<size_t> out;
  for (size_t s = 0; s < solver.num_shards(); ++s) {
    if ((mask & ShardBit(s)) == 0) continue;
    const auto& idx = solver.partition().shards[s];
    out.insert(out.end(), idx.begin(), idx.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ShardedRoutingTest, CheckpointTightensHullsLeftStaleByRetire) {
  // Two far-apart clusters on two shards. A bridge append merges them;
  // retiring the bridge leaves the merged shard's hull stale, so a
  // cluster-local query keeps selecting *both* clusters' constraints.
  // CHECKPOINT re-partitions from scratch: the mask must shrink back to
  // exactly the from-scratch routing outcome.
  PredicateConstraintSet pcs;
  for (double base : {0.0, 1000.0}) {
    for (int m = 0; m < 2; ++m) {
      Predicate pred(2);
      pred.AddRange(0, base + 10.0 * m, base + 10.0 * m + 25.0);
      Box values(2);
      values.Constrain(1, Interval::Closed(0.0, 10.0));
      pcs.Add(PredicateConstraint(pred, values, {0, 3}));
    }
  }
  ShardedBoundSolver::Options opts;
  opts.partition = {2, PartitionStrategy::kAttributeRange};
  const ShardedBoundSolver base(pcs, {}, opts);
  EXPECT_EQ(base.num_shards(), 2u);

  // Bridge spans both clusters, then retire it (global index 4).
  auto merged = base.ApplyDeltas(std::vector<DeltaRecord>{
      AppendRecord(1, 20.0, 1015.0), RetireRecord(2, 4)});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ((*merged)->constraints().size(), 4u);

  Predicate local(2);
  local.AddRange(0, 0.0, 50.0);  // hits cluster A only
  const AggQuery q = AggQuery::Count(local);

  const ShardedBoundSolver fresh((*merged)->constraints(), {}, opts);
  const auto fresh_sel = SelectedPcs(fresh, fresh.RouteMask(q));
  EXPECT_EQ(fresh_sel.size(), 2u);  // cluster A's two constraints

  // Pre-checkpoint: the merged shard drags cluster B along.
  const auto stale_sel = SelectedPcs(**merged, (*merged)->RouteMask(q));
  EXPECT_GT(stale_sel.size(), fresh_sel.size());
  EXPECT_EQ((*merged)->RouteMask(q), (*merged)->RouteMaskLinear(q));

  // Post-checkpoint: bit-for-bit the from-scratch mask and selection.
  auto ckpt = (*merged)->ApplyDeltas(
      std::vector<DeltaRecord>{CheckpointRecord(3)});
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ((*ckpt)->num_shards(), 2u);
  EXPECT_EQ((*ckpt)->RouteMask(q), fresh.RouteMask(q));
  EXPECT_EQ((*ckpt)->RouteMask(q), (*ckpt)->RouteMaskLinear(q));
  EXPECT_EQ(SelectedPcs(**ckpt, (*ckpt)->RouteMask(q)), fresh_sel);
  // And the answers are unchanged throughout.
  const auto a = fresh.Bound(q);
  const auto b = (*ckpt)->Bound(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(BitIdentical(a->lo, b->lo));
  EXPECT_TRUE(BitIdentical(a->hi, b->hi));
}

// ---------------------------------------------------------------------------
// Transport level: a server whose shards carry member indexes answers
// byte-identical replies to one whose shards scan their members, and
// the index shows up in STATS and METRICS.
// ---------------------------------------------------------------------------

std::string WriteRoutingSnapshot() {
  Rng rng(606);
  const PredicateConstraintSet pcs = RandomClusteredSet(rng, 3);
  const std::vector<AttrDomain> domains = {AttrDomain::kContinuous,
                                           AttrDomain::kContinuous};
  const Partition p =
      PartitionPcSet(pcs, domains, {3, PartitionStrategy::kAttributeRange});
  const Snapshot snap = MakeSnapshot(pcs, domains, p, 7);
  const std::string path = TestTempPath("route_index_test.pcxsnap");
  PCX_CHECK(WriteSnapshot(snap, path).ok());
  return path;
}

std::string Reply(BoundServer& server, const std::string& line) {
  std::ostringstream out;
  server.HandleLine(line, out);
  return out.str();
}

TEST(RoutingTransportTest, ServerRepliesByteIdenticalAcrossRouteModes) {
  const std::string path = WriteRoutingSnapshot();
  BoundServer::Options linear_opts;
  linear_opts.solver.solver.use_route_index = false;
  BoundServer linear(linear_opts);
  BoundServer indexed(BoundServer::Options{});
  ASSERT_EQ(Reply(linear, "LOAD " + path).rfind("OK ", 0), 0u);
  ASSERT_EQ(Reply(indexed, "LOAD " + path).rfind("OK ", 0), 0u);

  const std::vector<std::string> lines = {
      "BOUND COUNT 0",
      "BOUND COUNT 0 {0:[0,60]}",
      "BOUND SUM 1 {0:[0,2500]}",
      "BOUND MAX 1 {0:[1000,1040]}",
      "BOUND COUNT 0 {0:[-900,-800]}",
      "BOUND AVG 1 {0:[10,1020]}",
      "GROUPBY COUNT 0 0 20,1020,2020,5000",
  };
  for (const std::string& line : lines) {
    const std::string want = Reply(linear, line);
    EXPECT_EQ(Reply(indexed, line), want) << line;
  }

  const std::string stats = Reply(indexed, "STATS");
  EXPECT_NE(stats.find(" route_nodes="), std::string::npos) << stats;
  EXPECT_NE(stats.find(" route_depth="), std::string::npos) << stats;

  const std::string metrics = indexed.metrics().Exposition();
  EXPECT_NE(metrics.find("pcx_route_index_nodes"), std::string::npos);
  EXPECT_NE(metrics.find("pcx_route_fanout"), std::string::npos);
}

}  // namespace
}  // namespace pcx
