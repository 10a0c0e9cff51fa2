// Durable delta-log tests: record/header round-trips, the corruption
// corpus (every torn or tampered log must come back as a typed error or
// a clean truncated tail — never a crash, never silent garbage), the
// durable-pair recovery rules of DurableLog::Open, and the centerpiece:
// a child process SIGKILL'd mid-append whose log the parent recovers to
// the exact acknowledged epoch, answers bit-identical to an
// uninterrupted from-scratch reference.

#include "serve/delta_log.h"

#include <gtest/gtest.h>

#ifndef _WIN32
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pc/serialization.h"
#include "serve/partitioner.h"
#include "serve/server.h"
#include "serve/sharded_solver.h"
#include "serve/snapshot.h"
#include "test_paths.h"

namespace pcx {
namespace {

/// The server_test sensor layout: two disjoint hour ranges on attribute
/// 0 (integer), values on attribute 2.
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

Snapshot SensorSnapshot(uint64_t epoch) {
  const auto pcs = SensorSet();
  const auto domains = SensorDomains();
  const Partition p =
      PartitionPcSet(pcs, domains, {2, PartitionStrategy::kAttributeRange});
  return MakeSnapshot(pcs, domains, p, epoch);
}

/// A fresh, empty directory under the test tmpdir.
std::string FreshDir(const std::string& name) {
  const std::string dir = TestTempPath("delta_log_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// The i-th deterministic append record on top of base epoch `base` —
/// the same sequence the crash child journals and the parent replays.
DeltaRecord NthAppend(uint64_t base, size_t i) {
  DeltaRecord rec;
  rec.epoch = base + 1 + i;
  rec.op = DeltaOp::kAppend;
  Predicate pred(3);
  pred.AddRange(0, 48 + static_cast<double>(i), 48 + static_cast<double>(i));
  Box values(3);
  values.Constrain(2, Interval::Closed(1, 2 + static_cast<double>(i % 5)));
  rec.pc = PredicateConstraint(pred, values, {1, 2});
  return rec;
}

DeltaRecord RetireRecord(uint64_t epoch, size_t index) {
  DeltaRecord rec;
  rec.epoch = epoch;
  rec.op = DeltaOp::kRetire;
  rec.retire_index = index;
  return rec;
}

/// A well-formed log document: header + `n` append records, returning
/// each line so corruption tests can splice precisely.
std::vector<std::string> CleanLogLines(uint64_t base_epoch, size_t n) {
  DeltaLogHeader header;
  header.num_attrs = 3;
  header.domains = SensorDomains();
  header.base_epoch = base_epoch;
  uint64_t chain = 0;
  std::vector<std::string> lines;
  lines.push_back(SerializeLogHeader(header, &chain));
  for (size_t i = 0; i < n; ++i) {
    lines.push_back(SerializeDeltaRecord(NthAppend(base_epoch, i), chain,
                                         &chain));
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PCX_CHECK(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  PCX_CHECK(out.good()) << path;
}

TEST(DeltaRecordTest, AllOpsRoundTripWithChainVerification) {
  uint64_t chain = 0x1234;
  for (const DeltaRecord& rec :
       {NthAppend(7, 2), RetireRecord(9, 4),
        DeltaRecord{11, DeltaOp::kCheckpoint, {}, 0}}) {
    uint64_t crc = 0;
    const std::string line = SerializeDeltaRecord(rec, chain, &crc);
    const StatusOr<DeltaRecord> parsed =
        ParseDeltaRecordLine(line, 3, &chain);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " for '" << line << "'";
    EXPECT_EQ(parsed->epoch, rec.epoch);
    EXPECT_EQ(parsed->op, rec.op);
    EXPECT_EQ(parsed->retire_index, rec.retire_index);
    if (rec.op == DeltaOp::kAppend) {
      EXPECT_EQ(SerializePcBody(parsed->pc), SerializePcBody(rec.pc));
    }
    // A wrong chain is rejected; a null expected_chain (wire mode)
    // accepts the same line.
    uint64_t wrong = chain ^ 1;
    EXPECT_FALSE(ParseDeltaRecordLine(line, 3, &wrong).ok());
    EXPECT_TRUE(ParseDeltaRecordLine(line, 3, nullptr).ok());
    chain = crc;
  }
}

TEST(ReplayTest, CleanLogReplaysFully) {
  const std::vector<std::string> lines = CleanLogLines(5, 3);
  const StatusOr<DeltaLogReplay> replay = ReplayDeltaLog(JoinLines(lines));
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->header.base_epoch, 5u);
  EXPECT_EQ(replay->header.num_attrs, 3u);
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[2].epoch, 8u);
  EXPECT_EQ(replay->tip_epoch, 8u);
  EXPECT_EQ(replay->dropped_records, 0u);
  EXPECT_TRUE(replay->truncation_reason.empty());
  EXPECT_EQ(replay->valid_bytes, JoinLines(lines).size());
}

// The corruption corpus. Every entry mutates a clean 3-record log and
// states what replay must report; none may crash or return garbage.

TEST(ReplayTest, TruncatedHeaderIsTypedError) {
  const std::string text = JoinLines(CleanLogLines(5, 3));
  // Cut inside the header line: no parseable header, hard error.
  EXPECT_FALSE(ReplayDeltaLog(text.substr(0, 20)).ok());
  EXPECT_FALSE(ReplayDeltaLog("").ok());
  EXPECT_FALSE(ReplayDeltaLog("not a log at all\n").ok());
}

TEST(ReplayTest, HeaderCrcMismatchIsTypedError) {
  std::vector<std::string> lines = CleanLogLines(5, 1);
  lines[0][10] ^= 1;  // flip a bit inside "attrs=..."
  EXPECT_FALSE(ReplayDeltaLog(JoinLines(lines)).ok());
}

TEST(ReplayTest, BitFlippedRecordTruncatesTail) {
  std::vector<std::string> lines = CleanLogLines(5, 3);
  // Flip one payload byte of the second record: it and everything
  // after it is a torn tail; the first record survives.
  lines[2][lines[2].find("pred=") + 7] ^= 1;
  const StatusOr<DeltaLogReplay> replay = ReplayDeltaLog(JoinLines(lines));
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->dropped_records, 2u);
  EXPECT_FALSE(replay->truncation_reason.empty());
  EXPECT_EQ(replay->tip_epoch, 6u);
  EXPECT_EQ(replay->valid_bytes,
            lines[0].size() + 1 + lines[1].size() + 1);
}

TEST(ReplayTest, DuplicatedRecordTruncatesAtTheDuplicate) {
  std::vector<std::string> lines = CleanLogLines(5, 3);
  // Replay a duplicated middle record: its crc is fine but its chain
  // and epoch no longer fit the stream.
  lines.insert(lines.begin() + 3, lines[2]);
  const StatusOr<DeltaLogReplay> replay = ReplayDeltaLog(JoinLines(lines));
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->dropped_records, 2u);
  EXPECT_FALSE(replay->truncation_reason.empty());
}

TEST(ReplayTest, EpochGapTruncatesTail) {
  // Build record 2 with a skipped epoch but a *correct* crc and chain,
  // so only the epoch-contiguity check can catch the lost record.
  DeltaLogHeader header{3, SensorDomains(), 5};
  uint64_t chain = 0;
  std::string text = SerializeLogHeader(header, &chain) + "\n";
  text += SerializeDeltaRecord(NthAppend(5, 0), chain, &chain) + "\n";
  DeltaRecord gap = NthAppend(5, 1);
  gap.epoch = 9;  // should be 7
  uint64_t unused = 0;
  text += SerializeDeltaRecord(gap, chain, &unused) + "\n";
  const StatusOr<DeltaLogReplay> replay = ReplayDeltaLog(text);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->dropped_records, 1u);
  EXPECT_FALSE(replay->truncation_reason.empty());
}

TEST(ReplayTest, MidRecordEofTruncatesTail) {
  const std::string text = JoinLines(CleanLogLines(5, 3));
  // Chop mid-way through the last record (a crashed append): the final
  // unterminated fragment is dropped, records before it survive.
  const StatusOr<DeltaLogReplay> replay =
      ReplayDeltaLog(text.substr(0, text.size() - 10));
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->dropped_records, 1u);
  EXPECT_FALSE(replay->truncation_reason.empty());
  // Even a complete-looking final line without '\n' is torn: the crash
  // may have happened before the newline hit the disk.
  const std::string no_newline = text.substr(0, text.size() - 1);
  const StatusOr<DeltaLogReplay> replay2 = ReplayDeltaLog(no_newline);
  ASSERT_TRUE(replay2.ok());
  EXPECT_EQ(replay2->records.size(), 2u);
  EXPECT_EQ(replay2->dropped_records, 1u);
}

TEST(ReplayTest, TrailingGarbageTruncates) {
  const std::string text = JoinLines(CleanLogLines(5, 2));
  const StatusOr<DeltaLogReplay> replay = ReplayDeltaLog(
      text + std::string(1, '\0') + "\xff garbage\n more garbage\n");
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->records.size(), 2u);
  EXPECT_GE(replay->dropped_records, 1u);
  EXPECT_EQ(replay->valid_bytes, text.size());
}

TEST(DurableLogTest, EmptyDirStartsUninitialized) {
  const std::string dir = FreshDir("empty");
  DurableLog::Recovered recovered;
  StatusOr<std::unique_ptr<DurableLog>> log =
      DurableLog::Open(dir, &recovered);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_FALSE(recovered.has_base);
  EXPECT_FALSE((*log)->initialized());
  // Appending before the first Reset is a contract violation.
  EXPECT_EQ((*log)->Append(NthAppend(0, 0)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(DurableLogTest, ResetAppendReopenRecoversTail) {
  const std::string dir = FreshDir("roundtrip");
  {
    DurableLog::Recovered recovered;
    StatusOr<std::unique_ptr<DurableLog>> log =
        DurableLog::Open(dir, &recovered);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE((*log)->Reset(SensorSnapshot(5)).ok());
    EXPECT_EQ((*log)->next_epoch(), 6u);
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*log)->Append(NthAppend(5, i)).ok());
    }
    // An out-of-order epoch is rejected before it hits the disk.
    EXPECT_FALSE((*log)->Append(NthAppend(5, 0)).ok());
  }
  DurableLog::Recovered recovered;
  StatusOr<std::unique_ptr<DurableLog>> log =
      DurableLog::Open(dir, &recovered);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_TRUE(recovered.has_base);
  EXPECT_EQ(recovered.base.epoch, 5u);
  ASSERT_EQ(recovered.tail.size(), 3u);
  EXPECT_EQ(recovered.tail[2].epoch, 8u);
  EXPECT_EQ(recovered.dropped_records, 0u);
  EXPECT_EQ((*log)->next_epoch(), 9u);
  // The recovered log keeps accepting appends where it left off.
  EXPECT_TRUE((*log)->Append(NthAppend(5, 3)).ok());
}

TEST(DurableLogTest, LogWithoutBaseIsFailedPrecondition) {
  const std::string dir = FreshDir("nobase");
  std::filesystem::create_directories(dir);
  WriteFile(DurableLogLogPath(dir), JoinLines(CleanLogLines(5, 1)));
  DurableLog::Recovered recovered;
  EXPECT_EQ(DurableLog::Open(dir, &recovered).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DurableLogTest, CorruptBaseSnapshotIsTypedError) {
  const std::string dir = FreshDir("badbase");
  {
    DurableLog::Recovered recovered;
    StatusOr<std::unique_ptr<DurableLog>> log =
        DurableLog::Open(dir, &recovered);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Reset(SensorSnapshot(5)).ok());
  }
  std::string base = ReadFile(DurableLogBasePath(dir));
  base[base.size() / 2] ^= 1;
  WriteFile(DurableLogBasePath(dir), base);
  DurableLog::Recovered recovered;
  EXPECT_FALSE(DurableLog::Open(dir, &recovered).ok());
}

TEST(DurableLogTest, TornTailIsTruncatedInPlaceAndAppendable) {
  const std::string dir = FreshDir("torn");
  {
    DurableLog::Recovered recovered;
    StatusOr<std::unique_ptr<DurableLog>> log =
        DurableLog::Open(dir, &recovered);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Reset(SensorSnapshot(5)).ok());
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*log)->Append(NthAppend(5, i)).ok());
    }
  }
  // Simulate a crash mid-append: half a record at the end of the file.
  const std::string log_path = DurableLogLogPath(dir);
  const std::string before = ReadFile(log_path);
  WriteFile(log_path, before + "rec epoch=9 append pred={0:[");
  {
    DurableLog::Recovered recovered;
    StatusOr<std::unique_ptr<DurableLog>> log =
        DurableLog::Open(dir, &recovered);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_EQ(recovered.tail.size(), 3u);
    EXPECT_EQ(recovered.dropped_records, 1u);
    EXPECT_FALSE(recovered.truncation_reason.empty());
    // The torn bytes are gone from the file itself...
    EXPECT_EQ(ReadFile(log_path), before);
    // ...and the next append continues the chain cleanly.
    ASSERT_TRUE((*log)->Append(NthAppend(5, 3)).ok());
  }
  DurableLog::Recovered recovered;
  StatusOr<std::unique_ptr<DurableLog>> log =
      DurableLog::Open(dir, &recovered);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(recovered.tail.size(), 4u);
  EXPECT_EQ(recovered.dropped_records, 0u);
}

TEST(DurableLogTest, InterruptedResetReinitializesFromNewBase) {
  const std::string dir = FreshDir("interrupted");
  {
    DurableLog::Recovered recovered;
    StatusOr<std::unique_ptr<DurableLog>> log =
        DurableLog::Open(dir, &recovered);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Reset(SensorSnapshot(5)).ok());
    ASSERT_TRUE((*log)->Append(NthAppend(5, 0)).ok());
  }
  // Simulate the crash window of Reset(): the new base landed, the new
  // log did not. The stale log's base_epoch/digest no longer match.
  ASSERT_TRUE(WriteSnapshot(SensorSnapshot(9), DurableLogBasePath(dir)).ok());
  DurableLog::Recovered recovered;
  StatusOr<std::unique_ptr<DurableLog>> log =
      DurableLog::Open(dir, &recovered);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_TRUE(recovered.has_base);
  EXPECT_EQ(recovered.base.epoch, 9u);
  EXPECT_TRUE(recovered.tail.empty());
  EXPECT_EQ((*log)->next_epoch(), 10u);
}

#ifndef _WIN32

/// The crash-recovery centerpiece: a child process journals appends in
/// a tight loop until SIGKILL'd mid-stream; the parent recovers the
/// directory through the full server path and checks the recovered
/// epoch serves answers bit-identical to an uninterrupted from-scratch
/// build over the same acknowledged prefix.
TEST(CrashRecoveryTest, SigkillMidAppendRecoversAcknowledgedEpoch) {
  const std::string dir = FreshDir("crash");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: journal the deterministic append sequence as fast as
    // fsync allows. _exit on any error; never return into gtest.
    DurableLog::Recovered recovered;
    StatusOr<std::unique_ptr<DurableLog>> log =
        DurableLog::Open(dir, &recovered);
    if (!log.ok()) _exit(10);
    if (!(*log)->Reset(SensorSnapshot(1)).ok()) _exit(11);
    for (size_t i = 0; i < 100000; ++i) {
      if (!(*log)->Append(NthAppend(1, i)).ok()) _exit(12);
    }
    _exit(0);
  }
  // Give the child time to durably acknowledge some appends, then kill
  // it without warning.
  ::usleep(300 * 1000);
  ::kill(pid, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited before the kill";

  // Recover through the server path (log replay + incremental apply).
  BoundServer server;
  ASSERT_TRUE(server.EnableDurableLog(dir).ok());
  ASSERT_NE(server.solver(), nullptr) << "nothing recovered";
  const uint64_t epoch = server.solver()->epoch();
  ASSERT_GE(epoch, 1u);
  const size_t acknowledged = static_cast<size_t>(epoch - 1);

  // Uninterrupted reference: the base set plus exactly the acknowledged
  // appends, built from scratch.
  PredicateConstraintSet flat = SensorSet();
  for (size_t i = 0; i < acknowledged; ++i) {
    flat.Add(NthAppend(1, i).pc);
  }
  const ShardedBoundSolver reference(flat, SensorDomains());
  EXPECT_EQ(server.solver()->constraints().size(), flat.size());

  std::vector<AggQuery> queries;
  queries.push_back(AggQuery::Count());
  queries.push_back(AggQuery::Sum(2));
  {
    AggQuery q = AggQuery::Sum(2);
    Predicate where(3);
    where.AddRange(0, 0, 60);
    q.where = where;
    queries.push_back(q);
  }
  for (const AggQuery& q : queries) {
    const StatusOr<ResultRange> got = server.solver()->Bound(q);
    const StatusOr<ResultRange> want = reference.Bound(q);
    ASSERT_EQ(got.ok(), want.ok());
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code());
      continue;
    }
    EXPECT_EQ(got->lo, want->lo);
    EXPECT_EQ(got->hi, want->hi);
    EXPECT_EQ(got->defined, want->defined);
    EXPECT_EQ(got->empty_instance_possible, want->empty_instance_possible);
  }

  // A second recovery of the same directory is byte-stable: the torn
  // tail (if any) was truncated by the first one.
  BoundServer server2;
  ASSERT_TRUE(server2.EnableDurableLog(dir).ok());
  ASSERT_NE(server2.solver(), nullptr);
  EXPECT_EQ(server2.solver()->epoch(), epoch);
}

#endif  // !_WIN32

}  // namespace
}  // namespace pcx
