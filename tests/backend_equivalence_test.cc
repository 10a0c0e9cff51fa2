// The acceptance suite of the engine redesign: ONE query corpus runs
// through Local, Sharded (resharded to 2/4/8 at open, and served as
// stored with 2) and Remote (a real in-process TCP server) backends,
// every engine constructed through Engine::Open(uri), and every answer
// must be bit-identical to the reference PcBoundSolver — including the
// MIN -0.0 corner, typed (not string-matched) error codes and the
// epoch. This is the "same epoch ⇒ same bits" guarantee the replica
// story builds on, asserted across every execution substrate at once.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <optional>
#include <thread>

#include "common/random.h"
#include "engine/engine.h"
#include "pc/bound_solver.h"
#include "pc/group_by.h"
#include "pc/serialization.h"
#include "serve/event_loop.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "test_paths.h"

namespace pcx {
namespace {

/// Randomized PC set over 2 attributes: `clusters` overlap components,
/// each a cluster of 1..4 mutually overlapping boxes placed far apart,
/// with value ranges on attribute 1 and occasional mandatory
/// frequencies. Mirrors the sharded-solver equivalence tests.
PredicateConstraintSet RandomSet(Rng& rng, size_t clusters) {
  PredicateConstraintSet pcs;
  for (size_t c = 0; c < clusters; ++c) {
    const double base = 1000.0 * static_cast<double>(c);
    const size_t members = static_cast<size_t>(rng.UniformInt(1, 4));
    for (size_t m = 0; m < members; ++m) {
      const double p_lo = base + rng.Uniform(0.0, 40.0);
      const double p_hi = p_lo + rng.Uniform(10.0, 60.0);
      const double v_lo = rng.Uniform(-20.0, 10.0);
      const double v_hi = v_lo + rng.Uniform(0.0, 30.0);
      const double k_lo = rng.UniformInt(0, 2) == 0
                              ? static_cast<double>(rng.UniformInt(1, 3))
                              : 0.0;
      const double k_hi = k_lo + static_cast<double>(rng.UniformInt(1, 8));
      Predicate pred(2);
      pred.AddRange(0, p_lo, p_hi);
      Box values(2);
      values.Constrain(1, Interval::Closed(v_lo, v_hi));
      pcs.Add(PredicateConstraint(pred, values, {k_lo, k_hi}));
    }
  }
  return pcs;
}

/// Deterministic set whose SUM lower bound is exactly -0.0: all values
/// are >= 0, and the lower bound runs as -(upper bound over negated
/// values) = -(0.0). Any backend that loses the sign bit (e.g. a lossy
/// wire format) fails bit-identity here.
PredicateConstraintSet MinusZeroSet() {
  PredicateConstraintSet pcs;
  {
    Predicate pred(2);
    pred.AddRange(0, 0.0, 10.0);
    Box values(2);
    values.Constrain(1, Interval::Closed(0.0, 5.0));
    pcs.Add(PredicateConstraint(pred, values, {1, 3}));
  }
  {
    Predicate pred(2);
    pred.AddRange(0, 20.0, 30.0);
    Box values(2);
    values.Constrain(1, Interval::Closed(0.0, 4.0));
    pcs.Add(PredicateConstraint(pred, values, {0, 2}));
  }
  return pcs;
}

/// Query panel: every aggregate x {no WHERE, narrow single-cluster
/// WHERE, wide spanning WHERE, WHERE outside every predicate}.
std::vector<AggQuery> QueryPanel(double span) {
  std::vector<AggQuery> queries;
  std::vector<std::optional<Predicate>> wheres;
  wheres.push_back(std::nullopt);
  {
    Predicate narrow(2);
    narrow.AddRange(0, 0.0, 30.0);
    wheres.push_back(narrow);
  }
  {
    Predicate wide(2);
    wide.AddRange(0, 0.0, span);
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
      << context << ": "
      << (expected.ok() ? actual : expected).status().ToString();
  if (!expected.ok()) {
    // Error parity is typed: same code, whatever the transport did to
    // the message text.
    EXPECT_EQ(expected.status().code(), actual.status().code()) << context;
    return;
  }
  EXPECT_TRUE(BitIdenticalRanges(*expected, *actual))
      << context << ": [" << FormatNumber(expected->lo) << ", "
      << FormatNumber(expected->hi) << "] vs [" << FormatNumber(actual->lo)
      << ", " << FormatNumber(actual->hi) << "]";
}

std::string WritePcSetFile(const PredicateConstraintSet& pcs,
                           const std::string& name) {
  const std::string path = TestTempPath(name);
  std::ofstream out(path);
  out << SerializePcSet(pcs);
  return path;
}

std::string WriteSnapshotFile(const PredicateConstraintSet& pcs,
                              size_t shards, uint64_t epoch,
                              const std::string& name,
                              const std::vector<AttrDomain>& domains = {}) {
  const Partition partition = PartitionPcSet(
      pcs, domains, {shards, PartitionStrategy::kAttributeRange});
  const Snapshot snap = MakeSnapshot(pcs, domains, partition, epoch);
  const std::string path = TestTempPath(name);
  PCX_CHECK(WriteSnapshot(snap, path).ok());
  return path;
}

/// One test parameter = one backend kind, addressed purely through its
/// Engine::Open URI.
struct BackendKind {
  const char* label;
  /// Shard count for sharded kinds (0 otherwise).
  size_t shards;
  bool remote;
  /// Sharded kinds only: serve the snapshot with the shards it was
  /// stored with instead of repartitioning it at open.
  bool stored;
};

/// The epoch every snapshot of the corpus is written at: the epoch of a
/// local set, which the reference solver stands for.
constexpr uint64_t kReferenceEpoch = 0;

class BackendEquivalenceTest : public testing::TestWithParam<BackendKind> {
 protected:
  /// Builds the engine under test for `pcs` (with `domains`), plus
  /// whatever server machinery the kind needs. `tag` keeps temp files
  /// distinct.
  Engine OpenEngine(const PredicateConstraintSet& pcs, const std::string& tag,
                    const std::vector<AttrDomain>& domains = {}) {
    const BackendKind& kind = GetParam();
    std::string uri;
    if (kind.remote) {
      const std::string snap =
          WriteSnapshotFile(pcs, 2, kReferenceEpoch,
                            "equiv_" + tag + "_remote.pcxsnap", domains);
      PCX_CHECK(server_.LoadSnapshotFile(snap).ok());
      StatusOr<EventLoopListener> listener = EventLoopListener::Bind(0);
      PCX_CHECK(listener.ok()) << listener.status();
      uri = "tcp:127.0.0.1:" + std::to_string(listener->port());
      server_thread_ =
          std::thread([this, l = std::move(listener).value()]() mutable {
            EventLoopListener::Options options;
            options.max_clients = 1;
            const Status serve_status = l.Serve(server_, options);
            PCX_CHECK(serve_status.ok()) << serve_status;
          });
    } else if (kind.stored) {
      // Stored with K shards and served exactly as stored: the in-process
      // twin of what pcx_serve loads.
      uri = "snapshot:" +
            WriteSnapshotFile(pcs, kind.shards, kReferenceEpoch,
                              "equiv_" + tag + "_stored.pcxsnap", domains);
    } else if (kind.shards > 0) {
      // Stored as one shard, resharded at open: covers the ?shards=K
      // repartition path at every width.
      const std::string snap =
          WriteSnapshotFile(pcs, 1, kReferenceEpoch,
                            "equiv_" + tag + "_sharded.pcxsnap", domains);
      uri = "snapshot:" + snap + "?shards=" + std::to_string(kind.shards);
    } else {
      uri = "local:" + WritePcSetFile(pcs, "equiv_" + tag + ".pcset");
      std::string ints;
      for (size_t a = 0; a < domains.size(); ++a) {
        if (domains[a] != AttrDomain::kInteger) continue;
        ints += (ints.empty() ? "" : ",") + std::to_string(a);
      }
      if (!ints.empty()) uri += "?int=" + ints;
    }
    StatusOr<Engine> engine = Engine::Open(uri);
    PCX_CHECK(engine.ok()) << uri << ": " << engine.status();
    return *engine;
  }

  /// Epoch parity: every substrate serves the reference's epoch.
  static void ExpectReferenceEpoch(const Engine& engine) {
    const auto epoch = engine.Epoch();
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    EXPECT_EQ(*epoch, kReferenceEpoch) << engine.name();
  }

  /// Disconnects the remote engine (ending the server's one session)
  /// and joins the server thread.
  void Shutdown(Engine& engine) {
    engine = Engine();
    if (server_thread_.joinable()) server_thread_.join();
  }

  /// An early ASSERT return skips Shutdown; by destruction time the
  /// test-local Engine (and its connection) is gone, so the server's
  /// single session has ended and the join completes instead of the
  /// joinable-thread destructor calling std::terminate.
  ~BackendEquivalenceTest() override {
    if (server_thread_.joinable()) server_thread_.join();
  }

  BoundServer server_;
  std::thread server_thread_;
};

TEST_P(BackendEquivalenceTest, BitIdenticalToReferenceOnRandomSets) {
  Rng rng(20260730);
  const size_t clusters = 3;
  const PredicateConstraintSet pcs = RandomSet(rng, clusters);
  const PcBoundSolver reference(pcs, {});
  const std::vector<AggQuery> queries =
      QueryPanel(1000.0 * static_cast<double>(clusters));

  Engine engine = OpenEngine(pcs, "random");
  EXPECT_EQ(engine.num_attrs(), 2u);

  // Scalar path.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ExpectSameAnswer(reference.Bound(queries[qi]), engine.Bound(queries[qi]),
                     std::string(GetParam().label) + " query " +
                         std::to_string(qi));
  }
  // Batch path: element-wise identical to the scalar loop.
  const auto batch = engine.BoundBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ExpectSameAnswer(reference.Bound(queries[qi]), batch[qi],
                     std::string(GetParam().label) + " batch query " +
                         std::to_string(qi));
  }

  // Group-by path.
  const std::vector<double> groups = {10.0, 1010.0, 2010.0, 5555.0};
  const auto expected_groups =
      BoundGroupBy(reference, AggQuery::Count(), 0, groups, 1);
  const auto actual_groups = engine.BoundGroupBy(AggQuery::Count(), 0, groups);
  ASSERT_TRUE(expected_groups.ok());
  ASSERT_TRUE(actual_groups.ok()) << actual_groups.status();
  ASSERT_EQ(expected_groups->size(), actual_groups->size());
  for (size_t g = 0; g < expected_groups->size(); ++g) {
    EXPECT_EQ((*expected_groups)[g].group_value,
              (*actual_groups)[g].group_value);
    ExpectSameAnswer((*expected_groups)[g].range, (*actual_groups)[g].range,
                     "group " + std::to_string(g));
  }

  // Error parity, typed: the solver's aggregate-attribute validation
  // must surface as the same StatusCode from every substrate.
  const auto expected_err = reference.Bound(AggQuery::Sum(9));
  const auto actual_err = engine.Bound(AggQuery::Sum(9));
  ASSERT_FALSE(expected_err.ok());
  ASSERT_FALSE(actual_err.ok());
  EXPECT_EQ(expected_err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(actual_err.status().code(), expected_err.status().code());

  ExpectReferenceEpoch(engine);
  Shutdown(engine);
}

TEST_P(BackendEquivalenceTest, MinusZeroMinSurvivesEverySubstrate) {
  const PredicateConstraintSet pcs = MinusZeroSet();
  const PcBoundSolver reference(pcs, {});
  Engine engine = OpenEngine(pcs, "minuszero");

  // The corner exists: the reference SUM lower bound is -0.0 (guards
  // against the corpus going stale).
  const auto ref_sum = reference.Bound(AggQuery::Sum(1));
  ASSERT_TRUE(ref_sum.ok());
  ASSERT_TRUE(ref_sum->lo == 0.0 && std::signbit(ref_sum->lo))
      << "expected a -0.0 lower endpoint, got [" << FormatNumber(ref_sum->lo)
      << ", " << FormatNumber(ref_sum->hi) << "]";

  for (AggFunc agg :
       {AggFunc::kMin, AggFunc::kMax, AggFunc::kSum, AggFunc::kCount}) {
    const AggQuery query{agg, 1, std::nullopt};
    ExpectSameAnswer(reference.Bound(query), engine.Bound(query),
                     std::string(GetParam().label) + " agg " +
                         AggFuncToString(agg));
  }
  ExpectReferenceEpoch(engine);
  Shutdown(engine);
}

/// Expects `actual` to be the hand-computed `expected` RANGE line
/// fields, and bit-identical to the reference solver's answer.
void ExpectRange(const StatusOr<ResultRange>& reference,
                 const StatusOr<ResultRange>& actual,
                 const std::string& expected, const std::string& context) {
  ExpectSameAnswer(reference, actual, context);
  ASSERT_TRUE(actual.ok()) << context << ": " << actual.status();
  EXPECT_EQ("lo=" + FormatNumber(actual->lo) + " hi=" +
                FormatNumber(actual->hi) +
                " defined=" + (actual->defined ? "1" : "0") +
                " empty_possible=" +
                (actual->empty_instance_possible ? "1" : "0"),
            expected)
      << context;
}

// A WHERE on the aggregated attribute itself. MIN once ran on a copy of
// the set whose value boxes were negated but whose predicates and WHERE
// were not, so it served [0, -0] and then "undefined" here although a
// MIN of 50 is feasible. The set is the shipped example fleet
// (examples/snapshots/sensors.pcset): hour (int), device (int), light.
TEST_P(BackendEquivalenceTest, SensorsMinWithWhereOnTheAggregate) {
  const StatusOr<PredicateConstraintSet> pcs = ParsePcSet(
      "pcset v1 attrs=3\n"
      "pc pred={0:[0,23]} values={2:[10,50]} freq=[2,5]\n"
      "pc pred={0:[24,47]} values={2:[0,30]} freq=[0,4]\n"
      "pc pred={0:[48,71]} values={2:[5,25]} freq=[1,3]\n");
  ASSERT_TRUE(pcs.ok()) << pcs.status();
  const std::vector<AttrDomain> domains = {
      AttrDomain::kInteger, AttrDomain::kInteger, AttrDomain::kContinuous};
  const PcBoundSolver reference(*pcs, domains);
  Engine engine = OpenEngine(*pcs, "sensors", domains);
  const std::string label = GetParam().label;

  Predicate light(3);
  light.AddRange(2, 0.0, 100.0);
  ExpectRange(reference.Bound(AggQuery::Min(2, light)),
              engine.Bound(AggQuery::Min(2, light)),
              "lo=0 hi=50 defined=1 empty_possible=1", label + " MIN light");
  Predicate first_day = light;
  first_day.AddRange(0, 0.0, 23.0);
  ExpectRange(reference.Bound(AggQuery::Min(2, first_day)),
              engine.Bound(AggQuery::Min(2, first_day)),
              "lo=10 hi=50 defined=1 empty_possible=1",
              label + " MIN first day");
  ExpectRange(reference.Bound(AggQuery::Max(2, first_day)),
              engine.Bound(AggQuery::Max(2, first_day)),
              "lo=10 hi=50 defined=1 empty_possible=1",
              label + " MAX first day");
  Shutdown(engine);
}

// One PC whose predicate and values bound the same attribute: exactly
// one row with a value in [5, 10]. The disjoint SUM's lower end and MIN
// once intersected the negated values [-10, -5] with the predicate
// [5, 10] and answered INFEASIBLE and "undefined".
TEST_P(BackendEquivalenceTest, OnePcConstrainingItsOwnAggregate) {
  const StatusOr<PredicateConstraintSet> pcs = ParsePcSet(
      "pcset v1 attrs=1\npc pred={0:[5,10]} values={0:[5,10]} freq=[1,1]\n");
  ASSERT_TRUE(pcs.ok()) << pcs.status();
  const PcBoundSolver reference(*pcs, {});
  Engine engine = OpenEngine(*pcs, "self");
  for (AggFunc agg : {AggFunc::kSum, AggFunc::kMin, AggFunc::kMax}) {
    const AggQuery query{agg, 0, std::nullopt};
    ExpectRange(reference.Bound(query), engine.Bound(query),
                "lo=5 hi=10 defined=1 empty_possible=0",
                std::string(GetParam().label) + " " + AggFuncToString(agg));
  }
  Shutdown(engine);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendEquivalenceTest,
    testing::Values(BackendKind{"local", 0, false, false},
                    BackendKind{"sharded2", 2, false, false},
                    BackendKind{"sharded4", 4, false, false},
                    BackendKind{"sharded8", 8, false, false},
                    BackendKind{"stored2", 2, false, true},
                    BackendKind{"remote", 0, true, false}),
    [](const testing::TestParamInfo<BackendKind>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace pcx
