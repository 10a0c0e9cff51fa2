#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "pc/bound_solver.h"
#include "pc/serialization.h"
#include "test_paths.h"

namespace pcx {
namespace {

bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

PredicateConstraint MakePc(double p_lo, double p_hi, double v_lo, double v_hi,
                           double k_lo, double k_hi) {
  Predicate pred(3);
  pred.AddRange(0, p_lo, p_hi);
  Box values(3);
  values.Constrain(2, Interval::Closed(v_lo, v_hi));
  return PredicateConstraint(pred, values, {k_lo, k_hi});
}

PredicateConstraintSet SampleSet() {
  PredicateConstraintSet pcs;
  pcs.Add(MakePc(0, 10, 1.25, 5.5, 1, 7));
  pcs.Add(MakePc(8, 20, 2, 8, 0, 6));  // overlaps the first
  pcs.Add(MakePc(100, 110, 0.0078125, 3, 0, 9));
  pcs.Add(MakePc(200, 260, -4.5, 2, 2, 4));
  pcs.Add(MakePc(255, 300, 0, 1e9, 0, 12));  // overlaps the fourth
  return pcs;
}

std::vector<AttrDomain> SampleDomains() {
  return {AttrDomain::kInteger, AttrDomain::kContinuous,
          AttrDomain::kContinuous};
}

Snapshot SampleSnapshot(size_t shards, uint64_t epoch) {
  const auto pcs = SampleSet();
  const auto domains = SampleDomains();
  const Partition p = PartitionPcSet(
      pcs, domains, {shards, PartitionStrategy::kAttributeRange});
  return MakeSnapshot(pcs, domains, p, epoch);
}

TEST(SnapshotTest, SerializeParseRoundTrip) {
  const Snapshot snap = SampleSnapshot(3, 42);
  const std::string text = SerializeSnapshot(snap);
  auto parsed = ParseSnapshot(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->epoch, 42u);
  EXPECT_EQ(parsed->num_attrs, 3u);
  ASSERT_EQ(parsed->domains.size(), 3u);
  EXPECT_EQ(parsed->domains[0], AttrDomain::kInteger);
  EXPECT_EQ(parsed->domains[1], AttrDomain::kContinuous);
  ASSERT_EQ(parsed->shards.size(), snap.shards.size());
  for (size_t s = 0; s < snap.shards.size(); ++s) {
    EXPECT_EQ(parsed->shards[s].indices, snap.shards[s].indices);
  }
  // The flattened set reproduces the original byte-for-byte.
  EXPECT_EQ(SerializePcSet(parsed->Flatten()), SerializePcSet(SampleSet()));
  // Round-tripping the parse is a fixed point.
  EXPECT_EQ(SerializeSnapshot(*parsed), text);
}

TEST(SnapshotTest, WriteLoadFileRoundTripAndBitIdenticalBounds) {
  const std::string path = TestTempPath("snapshot_test.pcxsnap");
  const Snapshot snap = SampleSnapshot(2, 7);
  ASSERT_TRUE(WriteSnapshot(snap, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 7u);

  // Bounds computed from the loaded set are bit-identical to bounds
  // from the in-memory set (the %.17g round-trip preserves doubles).
  const PcBoundSolver original(SampleSet(), SampleDomains());
  const PcBoundSolver reloaded(loaded->Flatten(), loaded->domains);
  for (AggFunc agg : {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                      AggFunc::kMin, AggFunc::kMax}) {
    AggQuery q{agg, 2, std::nullopt};
    const auto a = original.Bound(q);
    const auto b = reloaded.Bound(q);
    ASSERT_EQ(a.ok(), b.ok());
    if (!a.ok()) continue;
    EXPECT_TRUE(BitIdentical(a->lo, b->lo));
    EXPECT_TRUE(BitIdentical(a->hi, b->hi));
    EXPECT_EQ(a->defined, b->defined);
    EXPECT_EQ(a->empty_instance_possible, b->empty_instance_possible);
  }
}

TEST(SnapshotTest, EmptyShardsSurviveRoundTrip) {
  // More shards than components: trailing shards are empty.
  const Snapshot snap = SampleSnapshot(8, 1);
  auto parsed = ParseSnapshot(SerializeSnapshot(snap));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->shards.size(), 8u);
  EXPECT_EQ(parsed->total_pcs(), SampleSet().size());
}

TEST(SnapshotTest, ChecksumCatchesPayloadCorruption) {
  std::string text = SerializeSnapshot(SampleSnapshot(2, 1));
  // Corrupt one digit inside a pc line (not a structural line).
  const size_t at = text.find("freq=[1,");
  ASSERT_NE(at, std::string::npos);
  text[at + 6] = '2';
  const auto parsed = ParseSnapshot(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("checksum"), std::string::npos)
      << parsed.status().ToString();
}

TEST(SnapshotTest, DigestCatchesSchemaEdit) {
  std::string text = SerializeSnapshot(SampleSnapshot(2, 1));
  const size_t at = text.find("domains=int");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 11, "domains=cont");  // first entry int -> cont
  const auto parsed = ParseSnapshot(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("digest"), std::string::npos)
      << parsed.status().ToString();
}

TEST(SnapshotTest, TruncationAndBadHeaderAreRejected) {
  const std::string text = SerializeSnapshot(SampleSnapshot(2, 1));
  // Truncated mid-shard.
  const auto truncated = ParseSnapshot(text.substr(0, text.size() / 2));
  EXPECT_FALSE(truncated.ok());

  // Wrong magic.
  EXPECT_FALSE(ParseSnapshot("bogus v1 shards=1 epoch=0\n").ok());
  // Missing trailer.
  std::string no_trailer = text;
  const size_t at = no_trailer.rfind("end pcxsnap");
  no_trailer.erase(at);
  EXPECT_FALSE(ParseSnapshot(no_trailer).ok());
  // Empty document.
  EXPECT_FALSE(ParseSnapshot("").ok());
}

TEST(SnapshotTest, IndexConsistencyIsEnforced) {
  // Hand-build a snapshot whose shard declares the wrong pc count.
  Snapshot snap = SampleSnapshot(2, 1);
  snap.shards[0].indices.push_back(99);  // count now disagrees with payload
  const std::string text = SerializeSnapshot(snap);
  const auto parsed = ParseSnapshot(text);
  EXPECT_FALSE(parsed.ok());
}

TEST(SnapshotTest, ShardCountAboveRoutingLimitIsRejected) {
  // The v1 format caps shards at the 64-bit routing mask; a wider file
  // must fail at parse time (an ERR on LOAD, not a process abort).
  std::string text = SerializeSnapshot(SampleSnapshot(2, 1));
  const size_t at = text.find("shards=2");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 8, "shards=65");
  const auto parsed = ParseSnapshot(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("limit is 64"), std::string::npos)
      << parsed.status().ToString();

  // And the partitioner never produces more than the limit.
  const Partition p = PartitionPcSet(
      SampleSet(), SampleDomains(), {500, PartitionStrategy::kRoundRobin});
  EXPECT_EQ(p.shards.size(), kMaxShards);
}

TEST(SnapshotTest, LoadMissingFileIsNotFound) {
  const auto missing = LoadSnapshot("/nonexistent/nope.pcxsnap");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, CrlfSnapshotsParse) {
  const std::string text = SerializeSnapshot(SampleSnapshot(2, 5));
  // Full CRLF conversion (e.g. git autocrlf on another platform):
  // checksums are computed over LF-normalized payload bytes, so the
  // snapshot still loads and means the same thing.
  std::string crlf;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    crlf += line;
    crlf += "\r\n";
  }
  const auto parsed = ParseSnapshot(crlf);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializePcSet(parsed->Flatten()), SerializePcSet(SampleSet()));
}

}  // namespace
}  // namespace pcx
