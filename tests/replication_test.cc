// Replication tests: incremental ApplyDeltas bit-identity against
// from-scratch rebuilds over randomized delta corpora, the SYNC verb's
// full-resync and tail-shipping paths (driven through SyncOnce over an
// in-process loopback transport), live primary→replica tailing over
// TCP with lag reporting, and client failover — unit-level over fake
// backends and end-to-end over two real servers with the primary shot.

#include "serve/replicator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/engine.h"
#include "engine/failover_backend.h"
#include "pc/serialization.h"
#include "serve/delta_log.h"
#include "serve/event_loop.h"
#include "serve/partitioner.h"
#include "serve/server.h"
#include "serve/sharded_solver.h"
#include "serve/snapshot.h"
#include "test_paths.h"

namespace pcx {
namespace {

constexpr size_t kAttrs = 3;

std::vector<AttrDomain> Domains() {
  return {AttrDomain::kInteger, AttrDomain::kContinuous,
          AttrDomain::kContinuous};
}

/// A random but well-formed constraint: predicate range on attribute 0,
/// values on attribute 2, small mandatory frequency.
PredicateConstraint RandomPc(Rng& rng) {
  const double a = static_cast<double>(rng.UniformInt(0, 90));
  const double w = static_cast<double>(rng.UniformInt(0, 8));
  Predicate pred(kAttrs);
  pred.AddRange(0, a, a + w);
  Box values(kAttrs);
  const double lo = static_cast<double>(rng.UniformInt(0, 40));
  values.Constrain(2, Interval::Closed(lo, lo + 10));
  const double f = static_cast<double>(rng.UniformInt(0, 3));
  return PredicateConstraint(pred, values, {f, f + 2});
}

PredicateConstraintSet RandomSet(Rng& rng, size_t n) {
  PredicateConstraintSet pcs;
  for (size_t i = 0; i < n; ++i) pcs.Add(RandomPc(rng));
  return pcs;
}

std::vector<AggQuery> ProbeQueries(Rng& rng) {
  std::vector<AggQuery> queries;
  queries.push_back(AggQuery::Count());
  queries.push_back(AggQuery::Sum(2));
  for (int i = 0; i < 3; ++i) {
    const double a = static_cast<double>(rng.UniformInt(0, 80));
    AggQuery q = i % 2 == 0 ? AggQuery::Count() : AggQuery::Sum(2);
    Predicate where(kAttrs);
    where.AddRange(0, a, a + static_cast<double>(rng.UniformInt(1, 20)));
    q.where = where;
    queries.push_back(q);
  }
  return queries;
}

void ExpectBitIdentical(const ShardedBoundSolver& got,
                        const ShardedBoundSolver& want,
                        const std::vector<AggQuery>& queries,
                        const std::string& context) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const StatusOr<ResultRange> g = got.Bound(queries[i]);
    const StatusOr<ResultRange> w = want.Bound(queries[i]);
    ASSERT_EQ(g.ok(), w.ok()) << context << " query " << i << ": "
                              << g.status() << " vs " << w.status();
    if (!w.ok()) {
      EXPECT_EQ(g.status().code(), w.status().code()) << context;
      continue;
    }
    EXPECT_EQ(g->lo, w->lo) << context << " query " << i;
    EXPECT_EQ(g->hi, w->hi) << context << " query " << i;
    EXPECT_EQ(g->defined, w->defined) << context << " query " << i;
    EXPECT_EQ(g->empty_instance_possible, w->empty_instance_possible)
        << context << " query " << i;
  }
}

TEST(ApplyDeltasTest, MatchesFromScratchRebuildOnRandomCorpora) {
  for (const uint64_t seed : {11u, 42u, 77u}) {
    Rng rng(seed);
    ShardedBoundSolver::Options options;
    options.partition.num_shards = 4;

    std::vector<PredicateConstraint> current;
    {
      const PredicateConstraintSet base = RandomSet(rng, 24);
      for (size_t i = 0; i < base.size(); ++i) current.push_back(base.at(i));
    }
    PredicateConstraintSet base_set;
    for (const auto& pc : current) base_set.Add(pc);
    auto solver = std::make_shared<const ShardedBoundSolver>(
        std::move(base_set), Domains(), options);

    uint64_t epoch = solver->epoch();
    const std::vector<AggQuery> queries = ProbeQueries(rng);
    for (int round = 0; round < 8; ++round) {
      const size_t chunk = static_cast<size_t>(rng.UniformInt(1, 5));
      std::vector<DeltaRecord> records;
      for (size_t i = 0; i < chunk; ++i) {
        DeltaRecord rec;
        rec.epoch = ++epoch;
        const uint64_t kind = rng.UniformInt(0, 9);
        if (kind < 6 || current.empty()) {
          rec.op = DeltaOp::kAppend;
          rec.pc = RandomPc(rng);
          current.push_back(rec.pc);
        } else if (kind < 9) {
          rec.op = DeltaOp::kRetire;
          rec.retire_index = static_cast<size_t>(
              rng.UniformInt(0, current.size() - 1));
          current.erase(current.begin() +
                        static_cast<ptrdiff_t>(rec.retire_index));
        } else {
          rec.op = DeltaOp::kCheckpoint;
        }
        records.push_back(std::move(rec));
      }
      StatusOr<std::shared_ptr<const ShardedBoundSolver>> next =
          solver->ApplyDeltas(records);
      ASSERT_TRUE(next.ok()) << next.status();
      solver = std::move(*next);
      ASSERT_EQ(solver->epoch(), epoch);
      ASSERT_EQ(solver->constraints().size(), current.size());

      PredicateConstraintSet flat;
      for (const auto& pc : current) flat.Add(pc);
      const ShardedBoundSolver reference(std::move(flat), Domains(), options);
      ExpectBitIdentical(*solver, reference, queries,
                         "seed " + std::to_string(seed) + " round " +
                             std::to_string(round));
    }
  }
}

TEST(ApplyDeltasTest, RejectsNonContiguousEpochsAndBadRetires) {
  Rng rng(5);
  ShardedBoundSolver solver(RandomSet(rng, 4), Domains());
  {
    DeltaRecord rec;
    rec.epoch = solver.epoch() + 2;  // gap
    rec.op = DeltaOp::kAppend;
    rec.pc = RandomPc(rng);
    const std::vector<DeltaRecord> records{rec};
    EXPECT_EQ(solver.ApplyDeltas(records).status().code(),
              StatusCode::kFailedPrecondition);
  }
  {
    DeltaRecord rec;
    rec.epoch = solver.epoch() + 1;
    rec.op = DeltaOp::kRetire;
    rec.retire_index = 99;
    const std::vector<DeltaRecord> records{rec};
    EXPECT_EQ(solver.ApplyDeltas(records).status().code(),
              StatusCode::kOutOfRange);
  }
}

/// A LineTransport wired straight into a BoundServer's HandleLine — the
/// SYNC client logic runs against the real server handler with no
/// sockets in between.
class LoopbackTransport : public LineTransport {
 public:
  explicit LoopbackTransport(BoundServer& server) : server_(server) {}

  Status SendLine(const std::string& line) override {
    std::ostringstream out;
    server_.HandleLine(line, out);
    std::istringstream in(out.str());
    std::string reply;
    while (std::getline(in, reply)) replies_.push_back(reply);
    return Status::OK();
  }

  StatusOr<std::string> ReadLine() override {
    if (replies_.empty()) return Status::Unavailable("no buffered reply");
    std::string line = std::move(replies_.front());
    replies_.pop_front();
    return line;
  }

 private:
  BoundServer& server_;
  std::deque<std::string> replies_;
};

std::string WriteTempSnapshot(const PredicateConstraintSet& pcs,
                              uint64_t epoch, const std::string& tag) {
  const Partition p = PartitionPcSet(
      pcs, Domains(), {2, PartitionStrategy::kAttributeRange});
  const Snapshot snap = MakeSnapshot(pcs, Domains(), p, epoch);
  const std::string path =
      TestTempPath("replication_" + tag + ".pcxsnap");
  PCX_CHECK(WriteSnapshot(snap, path).ok());
  return path;
}

std::string Reply(BoundServer& server, const std::string& line) {
  std::ostringstream out;
  server.HandleLine(line, out);
  return out.str();
}

TEST(SyncTest, FullResyncThenTailShipping) {
  Rng rng(9);
  BoundServer primary;
  const std::string path =
      WriteTempSnapshot(RandomSet(rng, 10), 3, "sync");
  ASSERT_EQ(Reply(primary, "LOAD " + path).rfind("OK ", 0), 0u);

  BoundServer replica;
  LoopbackTransport transport(primary);
  // The replication counts live in the replica's registry.
  auto counter = [&replica](const char* name) {
    return replica.metrics().GetCounter(name).value();
  };

  // Round 1: empty replica — the primary streams its whole snapshot.
  StatusOr<uint64_t> synced = ReplicaTailer::SyncOnce(transport, replica);
  ASSERT_TRUE(synced.ok()) << synced.status();
  EXPECT_EQ(*synced, 3u);
  ASSERT_NE(replica.solver(), nullptr);
  EXPECT_EQ(replica.solver()->epoch(), 3u);
  EXPECT_EQ(counter("pcx_replication_snapshots_installed_total"), 1u);

  // Round 2: caught up — nothing ships.
  synced = ReplicaTailer::SyncOnce(transport, replica);
  ASSERT_TRUE(synced.ok());
  EXPECT_EQ(counter("pcx_replication_records_applied_total"), 0u);

  // Round 3: mutate the primary (including a checkpoint, which compacts
  // the primary's log base but must keep the tail shippable), then tail.
  const std::string body = SerializePcBody(RandomPc(rng));
  ASSERT_EQ(Reply(primary, "APPEND " + body).rfind("OK epoch=4", 0), 0u);
  ASSERT_EQ(Reply(primary, "CHECKPOINT").rfind("OK epoch=5", 0), 0u);
  ASSERT_EQ(Reply(primary, "RETIRE 0").rfind("OK epoch=6", 0), 0u);
  synced = ReplicaTailer::SyncOnce(transport, replica);
  ASSERT_TRUE(synced.ok()) << synced.status();
  EXPECT_EQ(*synced, 6u);
  EXPECT_EQ(replica.solver()->epoch(), 6u);
  EXPECT_EQ(counter("pcx_replication_records_applied_total"), 3u);
  EXPECT_EQ(counter("pcx_replication_snapshots_installed_total"), 1u);
  EXPECT_EQ(
      replica.metrics().GetGauge("pcx_replication_primary_epoch").value(), 6);

  // The replica's answers are bit-identical to the primary's.
  Rng probe_rng(9);
  ExpectBitIdentical(*replica.solver(), *primary.solver(),
                     ProbeQueries(probe_rng), "after tail shipping");

  // A replica ahead of nothing: SYNC against an *unloaded* primary is a
  // typed error, not a protocol breakdown.
  BoundServer empty_primary;
  LoopbackTransport empty_transport(empty_primary);
  BoundServer fresh;
  EXPECT_FALSE(ReplicaTailer::SyncOnce(empty_transport, fresh).ok());
}

TEST(SyncTest, ReadOnlyReplicaRejectsMutations) {
  Rng rng(13);
  BoundServer server;
  const std::string path =
      WriteTempSnapshot(RandomSet(rng, 4), 1, "readonly");
  ASSERT_EQ(Reply(server, "LOAD " + path).rfind("OK ", 0), 0u);
  server.set_read_only(true);
  for (const std::string& line :
       {std::string("APPEND ") + SerializePcBody(RandomPc(rng)),
        std::string("RETIRE 0"), std::string("CHECKPOINT"),
        std::string("LOAD ") + path}) {
    const std::string reply = Reply(server, line);
    EXPECT_EQ(reply.rfind("ERR FAILED_PRECONDITION", 0), 0u) << reply;
  }
  // Queries still answer.
  EXPECT_EQ(Reply(server, "BOUND COUNT 0").rfind("RANGE ", 0), 0u);
}

#ifdef __linux__  // TCP serving is epoll-based

TEST(ReplicaTailerTest, TailsLivePrimaryToConvergence) {
  Rng rng(21);
  BoundServer primary_server;
  const std::string path =
      WriteTempSnapshot(RandomSet(rng, 8), 1, "tailer");
  ASSERT_EQ(Reply(primary_server, "LOAD " + path).rfind("OK ", 0), 0u);

  StatusOr<EventLoopListener> listener = EventLoopListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const uint16_t port = listener->port();
  std::thread serve_thread(
      [&] { (void)listener->Serve(primary_server); });

  BoundServer replica;
  replica.set_read_only(true);
  ReplicaTailer::Options options;
  options.port = port;
  options.poll_ms = 10;
  ReplicaTailer tailer(replica, options);
  tailer.Start();

  auto wait_for_epoch = [&](uint64_t want) {
    for (int i = 0; i < 500; ++i) {
      const auto solver = replica.solver();
      if (solver != nullptr && solver->epoch() >= want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };
  ASSERT_TRUE(wait_for_epoch(1)) << "initial resync never landed";

  // Live mutations on the primary flow through within the poll cadence.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(
        Reply(primary_server, "APPEND " + SerializePcBody(RandomPc(rng)))
            .rfind("OK ", 0),
        0u);
  }
  ASSERT_TRUE(wait_for_epoch(4)) << "replica never converged";
  EXPECT_EQ(replica.solver()->epoch(), 4u);

  // HEALTH reports the replica role and zero lag once caught up.
  const std::string health = Reply(replica, "HEALTH");
  EXPECT_NE(health.find(" replica=1"), std::string::npos) << health;
  EXPECT_NE(health.find(" primary_epoch=4"), std::string::npos) << health;
  EXPECT_NE(health.find(" lag=0"), std::string::npos) << health;

  Rng probe_rng(21);
  ExpectBitIdentical(*replica.solver(), *primary_server.solver(),
                     ProbeQueries(probe_rng), "tailer convergence");

  tailer.Stop();
  listener->Shutdown();
  serve_thread.join();
}

#endif  // __linux__

/// A scriptable in-process backend for failover unit tests: canned
/// range, settable epoch, and a kill switch that turns every call into
/// kUnavailable.
class FakeBackend : public BoundBackend {
 public:
  // Initializer order matches declaration order (epoch_ is declared
  // with the public atomics, before name_): -Wreorder is clean.
  FakeBackend(std::string name, uint64_t epoch, double answer)
      : epoch_(epoch), name_(std::move(name)), answer_(answer) {}

  std::string name() const override { return name_; }
  size_t num_attrs() const override { return kAttrs; }

  StatusOr<ResultRange> Bound(const AggQuery&) override {
    ++calls;
    if (dead.load()) return Status::Unavailable(name_ + " is dead");
    ResultRange r;
    r.lo = answer_;
    r.hi = answer_ + 1;
    return r;
  }
  StatusOr<std::vector<GroupRange>> BoundGroupBy(
      const AggQuery&, size_t, const std::vector<double>&) override {
    if (dead.load()) return Status::Unavailable(name_ + " is dead");
    return std::vector<GroupRange>{};
  }
  StatusOr<EngineStats> Stats() override {
    if (dead.load()) return Status::Unavailable(name_ + " is dead");
    EngineStats stats;
    stats.epoch = epoch_.load();
    return stats;
  }
  StatusOr<uint64_t> Epoch() override { return epoch_.load(); }
  StatusOr<HealthInfo> Health() override {
    if (dead.load()) return Status::Unavailable(name_ + " is dead");
    HealthInfo health;
    health.loaded = true;
    health.epoch = epoch_.load();
    return health;
  }

  std::atomic<bool> dead{false};
  std::atomic<uint64_t> epoch_;
  std::atomic<size_t> calls{0};

 private:
  std::string name_;
  double answer_;
};

TEST(FailoverBackendTest, PrefersPrimaryOnTieAndFresherEpochOtherwise) {
  auto primary = std::make_shared<FakeBackend>("primary", 5, 100);
  auto replica = std::make_shared<FakeBackend>("replica", 5, 200);
  FailoverBackend::Opener opener =
      [&](const std::string& uri) -> StatusOr<std::shared_ptr<BoundBackend>> {
    if (uri == "p") return std::static_pointer_cast<BoundBackend>(primary);
    return std::static_pointer_cast<BoundBackend>(replica);
  };
  FailoverBackend failover({"p", "r"}, opener);
  EXPECT_EQ(failover.name(), "failover:p|r");

  // Equal epochs: the primary (index 0) answers.
  StatusOr<ResultRange> range = failover.Bound(AggQuery::Count());
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->lo, 100);

  // The replica pulls ahead (e.g. primary restarted from an older
  // snapshot): freshest epoch wins.
  replica->epoch_ = 9;
  range = failover.Bound(AggQuery::Count());
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->lo, 200);
}

TEST(FailoverBackendTest, FailsOverOnUnavailableAndRecovers) {
  auto primary = std::make_shared<FakeBackend>("primary", 5, 100);
  auto replica = std::make_shared<FakeBackend>("replica", 5, 200);
  std::atomic<size_t> opens{0};
  FailoverBackend::Opener opener =
      [&](const std::string& uri) -> StatusOr<std::shared_ptr<BoundBackend>> {
    ++opens;
    if (uri == "p") {
      if (primary->dead.load()) {
        return Status::Unavailable("connect refused");
      }
      return std::static_pointer_cast<BoundBackend>(primary);
    }
    return std::static_pointer_cast<BoundBackend>(replica);
  };
  FailoverBackend failover({"p", "r"}, opener);

  ASSERT_TRUE(failover.Bound(AggQuery::Count()).ok());
  EXPECT_EQ(opens.load(), 2u);

  // Primary dies mid-stream: the same call succeeds via the replica.
  primary->dead = true;
  StatusOr<ResultRange> range = failover.Bound(AggQuery::Count());
  ASSERT_TRUE(range.ok()) << range.status();
  EXPECT_EQ(range->lo, 200);
  // The dead primary was demoted; later calls go straight to the
  // replica without dialing it again successfully.
  range = failover.Bound(AggQuery::Count());
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->lo, 200);

  // The primary comes back (restarted from its durable log): the next
  // pick re-probes, reopens, and prefers it again.
  primary->dead = false;
  range = failover.Bound(AggQuery::Count());
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->lo, 100);

  // Everything dead: a typed kUnavailable, not a hang or a crash.
  primary->dead = true;
  replica->dead = true;
  EXPECT_EQ(failover.Bound(AggQuery::Count()).status().code(),
            StatusCode::kUnavailable);
}

TEST(FailoverBackendTest, TypedErrorsPassThroughWithoutFailover) {
  // A backend that answers with a typed error is alive; retrying the
  // same query elsewhere would just repeat it (and hide real bugs).
  class TypedErrorBackend : public FakeBackend {
   public:
    using FakeBackend::FakeBackend;
    StatusOr<ResultRange> Bound(const AggQuery&) override {
      ++calls;
      return Status::InvalidArgument("bad attribute");
    }
  };
  auto primary = std::make_shared<TypedErrorBackend>("primary", 5, 100);
  auto replica = std::make_shared<FakeBackend>("replica", 5, 200);
  FailoverBackend::Opener opener =
      [&](const std::string& uri) -> StatusOr<std::shared_ptr<BoundBackend>> {
    if (uri == "p") return std::static_pointer_cast<BoundBackend>(primary);
    return std::static_pointer_cast<BoundBackend>(replica);
  };
  FailoverBackend failover({"p", "r"}, opener);
  EXPECT_EQ(failover.Bound(AggQuery::Count()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(replica->calls.load(), 0u);
}

TEST(FailoverUriTest, ValidatesCandidates) {
  EXPECT_EQ(Engine::Open("failover:").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Engine::Open("failover:bogus-no-scheme").status().code(),
            StatusCode::kInvalidArgument);
}

#ifdef __linux__  // TCP serving is epoll-based

TEST(FailoverUriTest, SurvivesPrimaryDeathEndToEnd) {
  Rng rng(31);
  const std::string path =
      WriteTempSnapshot(RandomSet(rng, 6), 2, "failover");

  BoundServer primary_server;
  ASSERT_EQ(Reply(primary_server, "LOAD " + path).rfind("OK ", 0), 0u);
  StatusOr<EventLoopListener> primary_listener = EventLoopListener::Bind(0);
  ASSERT_TRUE(primary_listener.ok());
  std::thread primary_thread(
      [&] { (void)primary_listener->Serve(primary_server); });

  BoundServer replica_server;
  ASSERT_EQ(Reply(replica_server, "LOAD " + path).rfind("OK ", 0), 0u);
  replica_server.set_read_only(true);
  StatusOr<EventLoopListener> replica_listener = EventLoopListener::Bind(0);
  ASSERT_TRUE(replica_listener.ok());
  std::thread replica_thread(
      [&] { (void)replica_listener->Serve(replica_server); });

  const std::string uri =
      "failover:tcp:127.0.0.1:" + std::to_string(primary_listener->port()) +
      "|tcp:127.0.0.1:" + std::to_string(replica_listener->port());
  StatusOr<Engine> engine = Engine::Open(uri);
  ASSERT_TRUE(engine.ok()) << engine.status();

  const StatusOr<ResultRange> before = engine->Bound(AggQuery::Count());
  ASSERT_TRUE(before.ok()) << before.status();

  // Shoot the primary. The same client keeps answering, bit-identically
  // (same set, same epoch on the replica).
  primary_listener->Shutdown();
  primary_thread.join();
  const StatusOr<ResultRange> after = engine->Bound(AggQuery::Count());
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(before->lo, after->lo);
  EXPECT_EQ(before->hi, after->hi);

  const StatusOr<HealthInfo> health = engine->Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->loaded);
  EXPECT_EQ(health->epoch, 2u);

  replica_listener->Shutdown();
  replica_thread.join();
}

TEST(FailoverUriTest, KnowsTheAttributeCountBeforeTheFirstCall) {
  Rng rng(38);  // a set under which the SUM below is feasible
  const std::string path =
      WriteTempSnapshot(RandomSet(rng, 6), 2, "failover_attrs");
  BoundServer server;
  ASSERT_EQ(Reply(server, "LOAD " + path).rfind("OK ", 0), 0u);
  StatusOr<EventLoopListener> listener = EventLoopListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread serve_thread([&] { (void)listener->Serve(server); });

  // A dead candidate first: the live one still supplies the schema.
  const std::string uri = "failover:tcp:127.0.0.1:1|tcp:127.0.0.1:" +
                          std::to_string(listener->port());
  StatusOr<Engine> engine = Engine::Open(uri);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ(engine->num_attrs(), kAttrs);

  // An attribute query built against num_attrs() is the first call.
  QueryBuilder sum;
  sum.Sum(2).Where(0, 0.0, 23.0);
  const StatusOr<ResultRange> got = engine->Bound(sum);
  const StatusOr<AggQuery> query = sum.Build(kAttrs);
  ASSERT_TRUE(query.ok());
  const StatusOr<ResultRange> want = server.solver()->Bound(*query);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(BitIdenticalRanges(*got, *want));

  // Server verbs forward to the picked candidate and come back as the
  // server's own line.
  const StatusOr<std::string> health = engine->backend()->Command("HEALTH");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->rfind("HEALTH loaded=1 ", 0), 0u) << *health;
  EXPECT_NE(health->find(" attrs=3 "), std::string::npos) << *health;
  // So does a METRICS scrape.
  const StatusOr<std::string> metrics = engine->backend()->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("pcx_requests_total"), std::string::npos)
      << *metrics;

  // A list with no live candidate still constructs; calls fail typed.
  StatusOr<Engine> dead = Engine::Open("failover:tcp:127.0.0.1:1");
  ASSERT_TRUE(dead.ok()) << dead.status();
  EXPECT_EQ(dead->num_attrs(), 0u);
  EXPECT_EQ(dead->Bound(AggQuery::Count()).status().code(),
            StatusCode::kUnavailable);

  engine = Engine();
  listener->Shutdown();
  serve_thread.join();
}

#endif  // __linux__

}  // namespace
}  // namespace pcx
