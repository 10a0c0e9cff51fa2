#include "serve/server.h"

#include <gtest/gtest.h>

#include <sstream>

#include "pc/serialization.h"
#include "serve/snapshot.h"
#include "test_paths.h"

namespace pcx {
namespace {

/// Small deterministic set: two disjoint "sensor" ranges on attribute 0
/// (integer hours), values on attribute 2.
PredicateConstraintSet SensorSet() {
  PredicateConstraintSet pcs;
  {
    Predicate pred(3);
    pred.AddRange(0, 0, 23);
    Box values(3);
    values.Constrain(2, Interval::Closed(10, 50));
    pcs.Add(PredicateConstraint(pred, values, {2, 5}));
  }
  {
    Predicate pred(3);
    pred.AddRange(0, 24, 47);
    Box values(3);
    values.Constrain(2, Interval::Closed(0, 30));
    pcs.Add(PredicateConstraint(pred, values, {0, 4}));
  }
  return pcs;
}

std::vector<AttrDomain> SensorDomains() {
  return {AttrDomain::kInteger, AttrDomain::kContinuous,
          AttrDomain::kContinuous};
}

std::string WriteSensorSnapshot(uint64_t epoch) {
  const auto pcs = SensorSet();
  const auto domains = SensorDomains();
  const Partition p =
      PartitionPcSet(pcs, domains, {2, PartitionStrategy::kAttributeRange});
  const Snapshot snap = MakeSnapshot(pcs, domains, p, epoch);
  const std::string path = TestTempPath("server_test.pcxsnap");
  PCX_CHECK(WriteSnapshot(snap, path).ok());
  return path;
}

/// Runs one line and returns the reply text.
std::string Reply(BoundServer& server, const std::string& line) {
  std::ostringstream out;
  server.HandleLine(line, out);
  return out.str();
}

TEST(ServerTest, LoadBoundStatsQuitFlow) {
  const std::string path = WriteSensorSnapshot(3);
  BoundServer server;

  // Querying before LOAD fails cleanly.
  EXPECT_EQ(Reply(server, "BOUND COUNT 0").rfind("ERR ", 0), 0u);

  const std::string ok = Reply(server, "LOAD " + path);
  EXPECT_EQ(ok.rfind("OK epoch=3 shards=2 pcs=2 attrs=3", 0), 0u) << ok;

  // COUNT over everything: mandatory 2..5 rows from PC 0, 0..4 from PC 1.
  EXPECT_EQ(Reply(server, "BOUND COUNT 0"),
            "RANGE lo=2 hi=9 defined=1 empty_possible=0\n");

  // SUM restricted to the first sensor range only.
  const std::string sum = Reply(server, "BOUND SUM 2 {0:[0,23]}");
  ASSERT_NE(sum.find("RANGE lo="), std::string::npos) << sum;
  // Cross-check against the solver directly.
  AggQuery q = AggQuery::Sum(2);
  Predicate where(3);
  where.AddRange(0, 0, 23);
  q.where = where;
  const auto direct = server.solver()->Bound(q);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(sum, "RANGE lo=" + FormatNumber(direct->lo) +
                     " hi=" + FormatNumber(direct->hi) + " defined=1" +
                     " empty_possible=0\n");

  const std::string stats = Reply(server, "STATS");
  EXPECT_EQ(stats.rfind("STATS epoch=3 shards=2 pcs=2 attrs=3", 0), 0u)
      << stats;
  EXPECT_NE(stats.find(" queries=3"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" sat_cache_hits="), std::string::npos);
  EXPECT_NE(stats.find(" imbalance="), std::string::npos);

  std::ostringstream out;
  EXPECT_FALSE(server.HandleLine("QUIT", out));
  EXPECT_EQ(out.str(), "BYE\n");
}

TEST(ServerTest, GroupByRepliesPerGroup) {
  const std::string path = WriteSensorSnapshot(1);
  BoundServer server;
  ASSERT_EQ(Reply(server, "LOAD " + path).rfind("OK ", 0), 0u);

  // Group on attribute 0 at one hour inside each sensor range.
  const std::string reply = Reply(server, "GROUPBY COUNT 0 0 5,30,99");
  std::istringstream lines(reply);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "GROUPS 3");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("GROUP 5 lo=0 hi=5", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("GROUP 30 lo=0 hi=4", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  // Hour 99 matches neither constraint: nothing can be there.
  EXPECT_EQ(line.rfind("GROUP 99 lo=0 hi=0", 0), 0u) << line;
}

TEST(ServerTest, MalformedCommandsAnswerErrWithoutDying) {
  const std::string path = WriteSensorSnapshot(1);
  BoundServer server;
  ASSERT_EQ(Reply(server, "LOAD " + path).rfind("OK ", 0), 0u);

  const std::vector<std::pair<std::string, std::string>> cases = {
      {"FROBNICATE", "unknown command"},
      {"BOUND", "usage:"},
      {"BOUND MEDIAN 0", "unknown aggregate"},
      {"BOUND COUNT zero", "bad attribute index"},
      {"BOUND SUM 2 {9:[0,1]}", "out of range"},
      {"BOUND SUM 2 0:[0,1]", "wrapped in {}"},
      {"BOUND SUM 2 {0:[5,1]}", "inverted interval"},
      {"GROUPBY COUNT 0 0", "usage:"},
      {"GROUPBY COUNT 0 0 ,", "empty group value list"},
      {"GROUPBY COUNT 0 0 a,b", "bad number"},
      {"LOAD", "usage:"},
      {"LOAD /nonexistent/nope.pcxsnap", "cannot open"},
  };
  for (const auto& [line, needle] : cases) {
    const std::string reply = Reply(server, line);
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << line << " -> " << reply;
    EXPECT_NE(reply.find(needle), std::string::npos)
        << line << " -> " << reply;
    EXPECT_EQ(reply.find('\n'), reply.size() - 1) << "multi-line ERR";
  }

  // The session survives all of the above.
  EXPECT_EQ(Reply(server, "BOUND COUNT 0"),
            "RANGE lo=2 hi=9 defined=1 empty_possible=0\n");
}

TEST(ServerTest, NaNAppendAnswersErrAndKeepsServing) {
  const std::string path = WriteSensorSnapshot(1);
  BoundServer server;
  ASSERT_EQ(Reply(server, "LOAD " + path).rfind("OK ", 0), 0u);
  for (const char* body :
       {"pred={0:[0,5]} values={2:[0,1]} freq=[0,nan]",
        "pred={0:[nan,5]} values={2:[0,1]} freq=[0,1]",
        "pred={0:[0,5]} values={2:[-nan,1]} freq=[0,1]"}) {
    const std::string reply = Reply(server, std::string("APPEND ") + body);
    EXPECT_EQ(reply.rfind("ERR INVALID_ARGUMENT ", 0), 0u) << reply;
  }
  EXPECT_EQ(Reply(server, "BOUND COUNT 0"),
            "RANGE lo=2 hi=9 defined=1 empty_possible=0\n");
}

TEST(ServerTest, ServeStreamHandlesCrlfAndQuit) {
  const std::string path = WriteSensorSnapshot(2);
  BoundServer server;
  std::istringstream in("LOAD " + path +
                        "\r\n"
                        "BOUND COUNT 0\r\n"
                        "# a comment line\r\n"
                        "\r\n"
                        "QUIT\r\n"
                        "BOUND COUNT 0\r\n");  // after QUIT: not reached
  std::ostringstream out;
  server.ServeStream(in, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("OK epoch=2"), std::string::npos) << text;
  EXPECT_NE(text.find("RANGE lo=2 hi=9"), std::string::npos) << text;
  EXPECT_NE(text.find("BYE"), std::string::npos);
  // Exactly one RANGE reply: the post-QUIT line was never processed.
  EXPECT_EQ(text.find("RANGE"), text.rfind("RANGE"));
}

TEST(ServerTest, HealthAnswersBeforeAndAfterLoad) {
  BoundServer server;

  // Pre-LOAD: queries fail FAILED_PRECONDITION but HEALTH answers —
  // "up but empty" must be observable without tripping an error.
  const std::string empty = Reply(server, "HEALTH");
  EXPECT_EQ(empty.rfind("HEALTH loaded=0 epoch=0 shards=0 pcs=0 attrs=0", 0),
            0u)
      << empty;
  EXPECT_NE(empty.find(" uptime_s="), std::string::npos);
  EXPECT_NE(empty.find(" requests="), std::string::npos);

  const std::string path = WriteSensorSnapshot(7);
  ASSERT_EQ(Reply(server, "LOAD " + path).rfind("OK ", 0), 0u);
  const std::string loaded = Reply(server, "HEALTH");
  EXPECT_EQ(loaded.rfind("HEALTH loaded=1 epoch=7 shards=2 pcs=2 attrs=3", 0),
            0u)
      << loaded;
  // HEALTH is not a reply-less no-op: it counts as a request itself.
  EXPECT_NE(loaded.find(" requests="), std::string::npos);
  EXPECT_EQ(loaded.find('\n'), loaded.size() - 1) << "one-line reply";
}

TEST(ServerTest, ServeStreamAnswersFinalLineWithoutNewline) {
  const std::string path = WriteSensorSnapshot(1);
  BoundServer server;
  ASSERT_EQ(Reply(server, "LOAD " + path).rfind("OK ", 0), 0u);

  // The stream ends without a trailing '\n' after the last command; the
  // stdio path must still answer it (the TCP session loop is asserted
  // to match in concurrent_serve_test — stdio/TCP parity).
  std::istringstream in("BOUND COUNT 0\nBOUND COUNT 0");
  std::ostringstream out;
  server.ServeStream(in, out);
  const std::string text = out.str();
  const std::string expected = "RANGE lo=2 hi=9 defined=1 empty_possible=0\n";
  EXPECT_EQ(text, expected + expected) << text;
}

TEST(ServerTest, PinnedSolverSurvivesConcurrentReload) {
  // A query pins the snapshot it started on: the pinned solver stays
  // valid (and answers at its own epoch) even after LOAD swapped in a
  // replacement — the epoch-pinning contract of the concurrent server.
  BoundServer server;
  const std::string v1 = WriteSensorSnapshot(1);
  ASSERT_EQ(Reply(server, "LOAD " + v1).rfind("OK epoch=1", 0), 0u);
  const std::shared_ptr<const ShardedBoundSolver> pinned = server.solver();
  ASSERT_NE(pinned, nullptr);

  const std::string v2 = WriteSensorSnapshot(2);
  ASSERT_EQ(Reply(server, "LOAD " + v2).rfind("OK epoch=2", 0), 0u);

  EXPECT_EQ(pinned->epoch(), 1u);
  const auto range = pinned->Bound(AggQuery::Count());
  ASSERT_TRUE(range.ok()) << range.status();
  EXPECT_EQ(range->hi, 9.0);
  EXPECT_EQ(server.solver()->epoch(), 2u);
}

TEST(ServerTest, ReloadBumpsEpoch) {
  BoundServer server;
  const std::string v1 = WriteSensorSnapshot(1);
  ASSERT_EQ(Reply(server, "LOAD " + v1).rfind("OK epoch=1", 0), 0u);
  const std::string v2 = WriteSensorSnapshot(9);
  ASSERT_EQ(Reply(server, "LOAD " + v2).rfind("OK epoch=9", 0), 0u);
  EXPECT_EQ(Reply(server, "STATS").rfind("STATS epoch=9", 0), 0u);
}

}  // namespace
}  // namespace pcx
