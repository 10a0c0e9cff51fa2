// Tests of the benchmark's own code: the tail percentile and its
// sample check, the run statistics, the reply parser and the answer
// checker.
//
//   ctest --test-dir .bench_build/cmake   (or run e2e_bench_test)

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/text.h"
#include "measure.h"
#include "pc/bound_solver.h"
#include "pc/serialization.h"
#include "serve/server.h"
#include "wire.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                               \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::fprintf(stderr, "%s:%d: FAILED %s\n", __FILE__, __LINE__, \
                   #cond);                                         \
      ++failures;                                                  \
    }                                                              \
  } while (0)

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TailNeedsTenSamplesBeyond() {
  EXPECT(e2e::SamplesBeyond(1000, 99.0) == 10);
  EXPECT(e2e::SamplesBeyond(1000, 99.9) == 1);
  EXPECT(e2e::SamplesBeyond(100, 90.0) == 10);
  EXPECT(e2e::SamplesBeyond(0, 90.0) == 0);

  // 1000 samples at p99: exactly ten beyond, trusted, count reported.
  const e2e::Latency l = e2e::Summarize(OneTo(1000), 99.0);
  EXPECT(l.n == 1000);
  EXPECT(l.p50 == 500.0);
  EXPECT(l.tail_pct == 99.0);
  EXPECT(l.tail == 990.0);
  EXPECT(l.beyond == 10);
  EXPECT(l.tail_trusted());

  // 999 samples: p99 stays the tail, but is flagged, not swapped for a
  // lower percentile.
  const e2e::Latency few = e2e::Summarize(OneTo(999), 99.0);
  EXPECT(few.tail_pct == 99.0);
  EXPECT(few.beyond == 9);
  EXPECT(!few.tail_trusted());

  EXPECT(e2e::Summarize({}, 90.0).n == 0);
  EXPECT(!e2e::Summarize({}, 90.0).tail_trusted());
  EXPECT(e2e::Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(e2e::Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void TailPercentileIsFixedPerWorkload() {
  EXPECT(e2e::TailPercentile("fanin") == 95.0);
  EXPECT(e2e::TailPercentile("overlap") == 99.0);
  EXPECT(e2e::TailPercentile("mutate") == 80.0);
  // Ten times the samples keep the percentile.
  EXPECT(e2e::Summarize(OneTo(10000), 99.0).tail_pct == 99.0);
}

void StallsShowInTheRun() {
  // A stall hitting a fifth of the run moves the pooled p90 100x.
  std::vector<double> v = OneTo(1000);
  for (size_t i = 0; i < 200; ++i) v[i] *= 100.0;
  EXPECT(e2e::Summarize(v, 90.0).tail > 80000.0);

  EXPECT(std::fabs(e2e::Rate(1000, 2e6) - 500.0) < 1e-9);
  EXPECT(e2e::Rate(5, 0.0) == 0.0);
}

void ParsesReplies() {
  const e2e::Reply range =
      e2e::ParseReply("RANGE lo=0 hi=1250.5 defined=1 empty_possible=1\r\n");
  EXPECT(range.kind == e2e::Reply::Kind::kRange);
  EXPECT(range.fields.at("hi") == "1250.5");
  EXPECT(range.fields.at("empty_possible") == "1");

  const e2e::Reply ok = e2e::ParseReply("OK epoch=12 pcs=2026 shards=8");
  uint64_t epoch = 0, pcs = 0, missing = 0;
  EXPECT(ok.kind == e2e::Reply::Kind::kOk);
  EXPECT(ok.U64("epoch", &epoch) && epoch == 12);
  EXPECT(ok.U64("pcs", &pcs) && pcs == 2026);
  EXPECT(!ok.U64("absent", &missing));

  const e2e::Reply err = e2e::ParseReply("ERR UNAVAILABLE queue full");
  EXPECT(err.kind == e2e::Reply::Kind::kErr);
  EXPECT(err.code == "UNAVAILABLE");

  const e2e::Reply stats =
      e2e::ParseReply("STATS epoch=1 coalesced_batches=40 coalesced_reqs=90");
  EXPECT(stats.kind == e2e::Reply::Kind::kStats);
  EXPECT(stats.fields.at("coalesced_reqs") == "90");

  EXPECT(e2e::ParseReply("").kind == e2e::Reply::Kind::kOther);
  EXPECT(e2e::ParseReply("BYE").kind == e2e::Reply::Kind::kOther);
  uint64_t bad = 0;
  EXPECT(!e2e::ParseReply("OK epoch=1x").U64("epoch", &bad));
}

void CheckerFlagsInjectedWrongRange() {
  const auto pcs = pcx::ParsePcSet(
      "pcset v1 attrs=2\n"
      "pc pred={0:[0,10)} values={1:[1,5]} freq=[2,4]\n"
      "pc pred={0:[10,20)} values={1:[0,9]} freq=[0,3]\n");
  EXPECT(pcs.ok());
  const pcx::PcBoundSolver reference(*pcs);
  pcx::AggQuery query =
      pcx::AggQuery::Sum(1, pcx::Predicate(2).AddRange(0, 0, 15));
  const std::string line = e2e::FormatBound(query);
  const auto parsed = pcx::ParseBoundRequest(pcx::SplitWhitespace(line), 2);
  EXPECT(parsed.ok());
  const auto want = reference.Bound(*parsed);
  EXPECT(want.ok());
  const std::string expected = e2e::FormatRange(*want);

  // The server's own reply passes.
  pcx::BoundServer server;
  EXPECT(server
             .InstallSnapshot(pcx::MakeSnapshot(
                 *pcs, {}, pcx::PartitionPcSet(*pcs, {}, {}), 1))
             .ok());
  std::ostringstream served;
  server.HandleLine(line, served);
  EXPECT(e2e::CheckRead(served.str(), expected));

  // One changed endpoint, a dropped flag, or an error all fail.
  pcx::ResultRange wrong = *want;
  wrong.hi += 1.0;
  EXPECT(!e2e::CheckRead(e2e::FormatRange(wrong), expected));
  wrong = *want;
  wrong.empty_instance_possible = !wrong.empty_instance_possible;
  EXPECT(!e2e::CheckRead(e2e::FormatRange(wrong), expected));
  EXPECT(!e2e::CheckRead("ERR UNAVAILABLE overloaded", expected));
  EXPECT(!e2e::CheckRead(expected + " extra=1", expected));
}

void CheckerChecksMutationReplies() {
  EXPECT(e2e::CheckMutation("OK epoch=3 pcs=2026 shards=8", 3, 2026));
  EXPECT(!e2e::CheckMutation("OK epoch=4 pcs=2026 shards=8", 3, 2026));
  EXPECT(!e2e::CheckMutation("OK epoch=3 pcs=2025 shards=8", 3, 2026));
  EXPECT(!e2e::CheckMutation("ERR INVALID_ARGUMENT bad", 3, 2026));
}

void EnclosureCheck() {
  pcx::ResultRange range;
  range.lo = 10.0;
  range.hi = 20.0;
  pcx::AggregateResult truth;
  truth.num_rows = 3;
  truth.value = 15.0;
  EXPECT(e2e::Encloses(range, pcx::AggFunc::kSum, truth));
  truth.value = 20.0 + 1e-12;  // within the 1e-9 relative slack
  EXPECT(e2e::Encloses(range, pcx::AggFunc::kSum, truth));
  truth.value = 20.5;
  EXPECT(!e2e::Encloses(range, pcx::AggFunc::kMax, truth));

  // No matching row: COUNT must admit 0; MIN must admit no instance.
  truth = {};
  EXPECT(!e2e::Encloses(range, pcx::AggFunc::kCount, truth));
  range.lo = 0.0;
  EXPECT(e2e::Encloses(range, pcx::AggFunc::kCount, truth));
  range.empty_instance_possible = false;
  EXPECT(!e2e::Encloses(range, pcx::AggFunc::kMin, truth));
  range.empty_instance_possible = true;
  EXPECT(e2e::Encloses(range, pcx::AggFunc::kMin, truth));
}

}  // namespace

int main() {
  TailNeedsTenSamplesBeyond();
  TailPercentileIsFixedPerWorkload();
  StallsShowInTheRun();
  ParsesReplies();
  CheckerFlagsInjectedWrongRange();
  CheckerChecksMutationReplies();
  EnclosureCheck();
  if (failures == 0) std::printf("e2e_bench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
