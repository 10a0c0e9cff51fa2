#include "engine/engine.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>

#include "engine/local_backend.h"
#include "engine/sharded_backend.h"
#include "pc/serialization.h"
#include "serve/partitioner.h"
#include "serve/snapshot.h"
#include "test_paths.h"

namespace pcx {
namespace {

/// Two disjoint day ranges on attribute 0 with prices on attribute 1.
PredicateConstraintSet SalesSet() {
  PredicateConstraintSet pcs;
  {
    Predicate day1(2);
    day1.AddInterval(0, Interval{0.0, 24.0, false, true});
    Box values(2);
    values.Constrain(1, Interval::Closed(1.0, 130.0));
    pcs.Add(PredicateConstraint(day1, values, {50, 100}));
  }
  {
    Predicate day2(2);
    day2.AddInterval(0, Interval{24.0, 48.0, false, true});
    Box values(2);
    values.Constrain(1, Interval::Closed(1.0, 150.0));
    pcs.Add(PredicateConstraint(day2, values, {50, 100}));
  }
  return pcs;
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
                              const std::string& name) {
  const Partition partition =
      PartitionPcSet(pcs, {}, {shards, PartitionStrategy::kAttributeRange});
  const Snapshot snap = MakeSnapshot(pcs, {}, partition, epoch);
  const std::string path = TestTempPath(name);
  PCX_CHECK(WriteSnapshot(snap, path).ok());
  return path;
}

TEST(EngineTest, OpenLocalUriServesThePcSet) {
  const std::string path = WritePcSetFile(SalesSet(), "engine_local.pcset");
  const StatusOr<Engine> engine = Engine::Open("local:" + path);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE(engine->valid());
  EXPECT_EQ(engine->name(), "local");
  EXPECT_EQ(engine->num_attrs(), 2u);

  const auto count = engine->Bound(AggQuery::Count());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->lo, 100.0);
  EXPECT_EQ(count->hi, 200.0);

  const auto epoch = engine->Epoch();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 0u);

  const auto stats = engine->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_pcs, 2u);
  EXPECT_EQ(stats->num_shards, 1u);
  EXPECT_EQ(stats->queries, 1u);
}

TEST(EngineTest, OpenSnapshotUriAdoptsAndRepartitions) {
  const std::string path =
      WriteSnapshotFile(SalesSet(), 1, 7, "engine_snap.pcxsnap");

  const StatusOr<Engine> stored = Engine::Open("snapshot:" + path);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored->name(), "sharded:1");
  ASSERT_TRUE(stored->Epoch().ok());
  EXPECT_EQ(*stored->Epoch(), 7u);

  const StatusOr<Engine> resharded =
      Engine::Open("snapshot:" + path + "?shards=2");
  ASSERT_TRUE(resharded.ok()) << resharded.status();
  EXPECT_EQ(resharded->name(), "sharded:2");
  // Repartitioning preserves the epoch: same set + same epoch ⇒ the
  // bit-identity guarantee still pairs it with the stored variant.
  EXPECT_EQ(*resharded->Epoch(), 7u);

  const auto a = stored->Bound(AggQuery::Sum(1));
  const auto b = resharded->Bound(AggQuery::Sum(1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(BitIdenticalRanges(*a, *b));
}

TEST(EngineTest, OpenReportsTypedErrors) {
  // No scheme.
  auto no_scheme = Engine::Open("nope");
  ASSERT_FALSE(no_scheme.ok());
  EXPECT_EQ(no_scheme.status().code(), StatusCode::kInvalidArgument);
  // Unknown scheme.
  auto unknown = Engine::Open("warp:core");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  // Missing file -> NotFound, not a parse error.
  auto missing = Engine::Open("local:/nonexistent/nope.pcset");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // Bad URI parameter.
  const std::string path = WritePcSetFile(SalesSet(), "engine_err.pcset");
  auto bad_param = Engine::Open("local:" + path + "?frobnicate=1");
  ASSERT_FALSE(bad_param.ok());
  EXPECT_EQ(bad_param.status().code(), StatusCode::kInvalidArgument);
  // Out-of-range shard count.
  const std::string snap =
      WriteSnapshotFile(SalesSet(), 1, 1, "engine_err.pcxsnap");
  auto bad_shards = Engine::Open("snapshot:" + snap + "?shards=65");
  ASSERT_FALSE(bad_shards.ok());
  EXPECT_EQ(bad_shards.status().code(), StatusCode::kOutOfRange);
  // There is no per-shard combine mode to select.
  auto scatter = Engine::Open("snapshot:" + snap + "?scatter=1");
  ASSERT_FALSE(scatter.ok());
  EXPECT_EQ(scatter.status().code(), StatusCode::kInvalidArgument);
  // Replica cross-checking is a test concern, not a URI scheme.
  auto mirror = Engine::Open("mirror:local:" + path);
  ASSERT_FALSE(mirror.ok());
  EXPECT_EQ(mirror.status().code(), StatusCode::kInvalidArgument);
  // Nothing listening -> Unavailable.
  auto refused = Engine::Open("tcp:127.0.0.1:1");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  // Empty engine handles fail typed, not by crashing.
  const Engine empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_EQ(empty.Bound(AggQuery::Count()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, LocalUriIntParamSetsIntegerDomains) {
  const std::string path = WritePcSetFile(SalesSet(), "engine_int.pcset");
  const StatusOr<Engine> engine = Engine::Open("local:" + path + "?int=0");
  ASSERT_TRUE(engine.ok()) << engine.status();
  // A bad index is a typed error.
  auto bad = Engine::Open("local:" + path + "?int=9");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryBuilderTest, NamedColumnsResolveAndRun) {
  Engine engine = Engine::Local(SalesSet());
  QueryBuilder q({"utc", "price"});
  q.Sum("price").Where("utc", 0.0, 23.0);

  const StatusOr<AggQuery> built = q.Build(engine.num_attrs());
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(built->agg, AggFunc::kSum);
  EXPECT_EQ(built->attr, 1u);
  ASSERT_TRUE(built->where.has_value());

  // The builder-run answer matches the hand-built query's.
  const auto via_builder = engine.Bound(q);
  Predicate where(2);
  where.AddRange(0, 0.0, 23.0);
  const auto direct = engine.Bound(AggQuery::Sum(1, where));
  ASSERT_TRUE(via_builder.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(BitIdenticalRanges(*via_builder, *direct));
}

TEST(QueryBuilderTest, TypedErrorsForBadReferences) {
  Engine engine = Engine::Local(SalesSet());

  // Unknown column name -> NotFound.
  QueryBuilder unknown({"utc", "price"});
  unknown.Sum("prize");
  EXPECT_EQ(unknown.BoundOn(*engine.backend()).status().code(),
            StatusCode::kNotFound);

  // Index past the engine width -> OutOfRange.
  QueryBuilder wide;
  wide.Sum(9);
  EXPECT_EQ(wide.BoundOn(*engine.backend()).status().code(),
            StatusCode::kOutOfRange);

  // Name table contradicting the engine width -> InvalidArgument.
  QueryBuilder mismatched({"a", "b", "c"});
  mismatched.Count();
  EXPECT_EQ(mismatched.Build(engine.num_attrs()).status().code(),
            StatusCode::kInvalidArgument);

  // Grouped builder refuses the scalar entry point.
  QueryBuilder grouped({"utc", "price"});
  grouped.Count().GroupBy("utc", {5.0, 30.0});
  EXPECT_EQ(grouped.BoundOn(*engine.backend()).status().code(),
            StatusCode::kFailedPrecondition);
  // ...and runs through the grouped one.
  const auto groups = grouped.GroupsOn(*engine.backend());
  ASSERT_TRUE(groups.ok()) << groups.status();
  EXPECT_EQ(groups->size(), 2u);
}

TEST(QueryBuilderTest, ConditionsConjoinAndEqualsPins) {
  Engine engine = Engine::Local(SalesSet());
  QueryBuilder q;
  q.Count().Where(0, 0.0, 100.0).WhereEquals(0, 30.0);
  const auto range = engine.Bound(q);
  ASSERT_TRUE(range.ok());
  // Pinned to hour 30: only the day-2 constraint (rows 50..100) matches,
  // and all of its rows could sit elsewhere in [24, 48).
  EXPECT_EQ(range->lo, 0.0);
  EXPECT_EQ(range->hi, 100.0);
}

TEST(EngineTest, HealthOnInProcessBackendsDerivesFromStats) {
  const std::string path = WritePcSetFile(SalesSet(), "engine_health.pcset");
  const StatusOr<Engine> engine = Engine::Open("local:" + path);
  ASSERT_TRUE(engine.ok()) << engine.status();

  const auto health = engine->Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->loaded);
  EXPECT_EQ(health->epoch, 0u);
  EXPECT_EQ(health->num_shards, 1u);
  EXPECT_EQ(health->num_pcs, 2u);
  EXPECT_EQ(health->uptime_seconds, 0u);  // no server process behind it
}

TEST(EngineTest, ServerVerbsAreUnimplementedInProcess) {
  // STATS/HEALTH/LOAD... lines have no server to answer them in process:
  // a typed UNIMPLEMENTED, not a client-side rendering.
  const Engine local = Engine::Local(SalesSet());
  const Engine sharded = Engine::Sharded(SalesSet(), {});
  for (const Engine& engine : {local, sharded}) {
    for (const char* line : {"STATS", "HEALTH", "LOAD x.pcxsnap"}) {
      const auto reply = engine.backend()->Command(line);
      ASSERT_FALSE(reply.ok()) << line;
      EXPECT_EQ(reply.status().code(), StatusCode::kUnimplemented) << line;
      EXPECT_NE(reply.status().message().find("pcx_serve --snapshot="),
                std::string::npos)
          << reply.status();
    }
    const auto metrics = engine.backend()->Metrics();
    ASSERT_FALSE(metrics.ok());
    EXPECT_EQ(metrics.status().code(), StatusCode::kUnimplemented);
  }
}

TEST(StatusTest, ParseStatusCodeRoundTrips) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kResourceExhausted, StatusCode::kInfeasible,
        StatusCode::kUnbounded, StatusCode::kUnavailable,
        StatusCode::kProtocolError}) {
    StatusCode parsed;
    ASSERT_TRUE(ParseStatusCode(StatusCodeToString(c), &parsed))
        << StatusCodeToString(c);
    EXPECT_EQ(parsed, c);
  }
  StatusCode ignored;
  EXPECT_FALSE(ParseStatusCode("FROBNICATED", &ignored));
  EXPECT_FALSE(ParseStatusCode("", &ignored));
}

}  // namespace
}  // namespace pcx
