#include "engine/remote_backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>

#include "pc/serialization.h"
#include "serve/event_loop.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "test_paths.h"

namespace pcx {
namespace {

/// The server_test sensor set: two disjoint hour ranges on attribute 0,
/// values on attribute 2.
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

std::string WriteSensorSnapshot(uint64_t epoch) {
  const auto pcs = SensorSet();
  const std::vector<AttrDomain> domains = {AttrDomain::kInteger,
                                           AttrDomain::kContinuous,
                                           AttrDomain::kContinuous};
  const Partition p =
      PartitionPcSet(pcs, domains, {2, PartitionStrategy::kAttributeRange});
  const Snapshot snap = MakeSnapshot(pcs, domains, p, epoch);
  const std::string path = TestTempPath("remote_test.pcxsnap");
  PCX_CHECK(WriteSnapshot(snap, path).ok());
  return path;
}

/// An in-process pcx_serve: ephemeral port, serving until `max_clients`
/// sessions have ended, on a background thread.
class TestServer {
 public:
  explicit TestServer(size_t max_clients, const std::string& snapshot = "") {
    if (!snapshot.empty()) {
      PCX_CHECK(server_.LoadSnapshotFile(snapshot).ok());
    }
    StatusOr<EventLoopListener> listener = EventLoopListener::Bind(0);
    PCX_CHECK(listener.ok()) << listener.status();
    port_ = listener->port();
    EventLoopListener::Options options;
    options.max_clients = max_clients;
    thread_ = std::thread(
        [this, options, l = std::move(listener).value()]() mutable {
          serve_status_ = l.Serve(server_, options);
        });
  }
  ~TestServer() { Join(); }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  uint16_t port() const { return port_; }
  const Status& serve_status() const { return serve_status_; }

 private:
  BoundServer server_;
  uint16_t port_ = 0;
  Status serve_status_;
  std::thread thread_;
};

TEST(EventLoopListenerTest, EphemeralBindReportsDistinctPorts) {
  StatusOr<EventLoopListener> a = EventLoopListener::Bind(0);
  StatusOr<EventLoopListener> b = EventLoopListener::Bind(0);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_GT(a->port(), 0);
  EXPECT_GT(b->port(), 0);
  // Both listeners are alive at once, so the kernel cannot have handed
  // out the same ephemeral port twice.
  EXPECT_NE(a->port(), b->port());
}

TEST(RemoteBackendTest, BoundGroupByStatsOverTheWire) {
  const std::string snapshot = WriteSensorSnapshot(3);
  TestServer server(1, snapshot);

  StatusOr<std::unique_ptr<RemoteBackend>> backend =
      RemoteBackend::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(backend.ok()) << backend.status();
  EXPECT_EQ((*backend)->num_attrs(), 3u);

  // Bit-identical to the in-process answer (cf. server_test).
  const auto count = (*backend)->Bound(AggQuery::Count());
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->lo, 2.0);
  EXPECT_EQ(count->hi, 9.0);
  EXPECT_TRUE(count->defined);
  EXPECT_FALSE(count->empty_instance_possible);

  // WHERE predicates survive the round-trip.
  Predicate where(3);
  where.AddRange(0, 0, 23);
  const auto sum = (*backend)->Bound(AggQuery::Sum(2, where));
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->lo, 20.0);
  EXPECT_EQ(sum->hi, 250.0);

  // Group-by: per-group ranges with the caller's group values.
  const auto groups =
      (*backend)->BoundGroupBy(AggQuery::Count(), 0, {5.0, 30.0, 99.0});
  ASSERT_TRUE(groups.ok()) << groups.status();
  ASSERT_EQ(groups->size(), 3u);
  EXPECT_EQ((*groups)[0].group_value, 5.0);
  EXPECT_EQ((*groups)[0].range.hi, 5.0);
  EXPECT_EQ((*groups)[1].range.hi, 4.0);
  EXPECT_EQ((*groups)[2].range.hi, 0.0);

  // Typed stats and epoch.
  const auto stats = (*backend)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->epoch, 3u);
  EXPECT_EQ(stats->num_shards, 2u);
  EXPECT_EQ(stats->num_pcs, 2u);
  EXPECT_GE(stats->queries, 5u);
  const auto epoch = (*backend)->Epoch();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 3u);

  // Server-side typed errors arrive as codes, not strings: the solver's
  // own validation...
  const auto bad_attr = (*backend)->Bound(AggQuery::Sum(9));
  ASSERT_FALSE(bad_attr.ok());
  EXPECT_EQ(bad_attr.status().code(), StatusCode::kInvalidArgument);
  // ...and the protocol layer's.
  const auto bad_group = (*backend)->BoundGroupBy(AggQuery::Count(), 99,
                                                  {1.0});
  ASSERT_FALSE(bad_group.ok());
  EXPECT_EQ(bad_group.status().code(), StatusCode::kInvalidArgument);

  backend->reset();  // disconnect: the single allowed session ends
  server.Join();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status();
}

TEST(RemoteBackendTest, LoadAndPreLoadErrorsAreTyped) {
  const std::string snapshot = WriteSensorSnapshot(5);
  TestServer server(1);  // no snapshot loaded yet

  StatusOr<std::unique_ptr<RemoteBackend>> backend =
      RemoteBackend::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(backend.ok()) << backend.status();
  EXPECT_EQ((*backend)->num_attrs(), 0u);  // unknown until LOAD

  // Queries against an unloaded server: kFailedPrecondition, through
  // the wire, as a code.
  const auto early = (*backend)->Bound(AggQuery::Count());
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);

  // A bad LOAD keeps the session usable and is typed.
  const Status bad = (*backend)->Load("/nonexistent/nope.pcxsnap");
  ASSERT_FALSE(bad.ok());

  const Status ok = (*backend)->Load(snapshot);
  ASSERT_TRUE(ok.ok()) << ok;
  EXPECT_EQ((*backend)->num_attrs(), 3u);
  const auto count = (*backend)->Bound(AggQuery::Count());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->hi, 9.0);
}

TEST(RemoteBackendTest, HealthWorksBeforeAndAfterLoad) {
  const std::string snapshot = WriteSensorSnapshot(6);
  TestServer server(1);  // no snapshot loaded yet

  StatusOr<std::unique_ptr<RemoteBackend>> backend =
      RemoteBackend::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(backend.ok()) << backend.status();

  // Pre-LOAD: queries fail FAILED_PRECONDITION but the health check
  // succeeds with loaded=false — reachable-but-empty is healthy.
  const auto empty = (*backend)->Health();
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_FALSE(empty->loaded);
  EXPECT_EQ(empty->epoch, 0u);
  EXPECT_EQ(empty->num_shards, 0u);

  ASSERT_TRUE((*backend)->Load(snapshot).ok());
  const auto loaded = (*backend)->Health();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->loaded);
  EXPECT_EQ(loaded->epoch, 6u);
  EXPECT_EQ(loaded->num_shards, 2u);
  EXPECT_EQ(loaded->num_pcs, 2u);
  EXPECT_GE(loaded->sessions, 1u);
}

TEST(StreamTransportTest, HealthFallsBackToStatsOnPreHealthServers) {
  // An old server answers HEALTH with "unknown command"
  // (INVALID_ARGUMENT); the client must degrade to the STATS-derived
  // health so mixed-version fleets stay checkable.
  std::istringstream replies(
      "ERR INVALID_ARGUMENT unknown command 'HEALTH'\n"
      "STATS epoch=4 shards=2 pcs=6 attrs=3 queries=0\n");
  std::ostringstream sent;
  RemoteBackend backend(std::make_unique<StreamTransport>(replies, sent));

  const auto health = backend.Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->loaded);
  EXPECT_EQ(health->epoch, 4u);
  EXPECT_EQ(health->num_shards, 2u);
  EXPECT_EQ(health->uptime_seconds, 0u);  // unknown via the fallback
  EXPECT_NE(sent.str().find("HEALTH\n"), std::string::npos);
  EXPECT_NE(sent.str().find("STATS\n"), std::string::npos);
}

TEST(RemoteBackendTest, SequentialReconnectsServeEveryClient) {
  const std::string snapshot = WriteSensorSnapshot(1);
  TestServer server(3, snapshot);

  // Session 1: normal query, clean disconnect (no QUIT).
  {
    auto backend = RemoteBackend::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(backend.ok()) << backend.status();
    EXPECT_TRUE((*backend)->Bound(AggQuery::Count()).ok());
  }
  // Session 2: the client vanishes mid-session; the server must shrug
  // (no SIGPIPE, no process exit) and keep accepting.
  {
    auto transport = TcpClientTransport::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(transport.ok());
    EXPECT_TRUE((*transport)->SendLine("STATS").ok());
    // Drop the connection without reading the reply.
  }
  // Session 3: still being served, state intact.
  {
    auto backend = RemoteBackend::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(backend.ok()) << backend.status();
    const auto count = (*backend)->Bound(AggQuery::Count());
    ASSERT_TRUE(count.ok()) << count.status();
    EXPECT_EQ(count->hi, 9.0);
    const auto epoch = (*backend)->Epoch();
    ASSERT_TRUE(epoch.ok());
    EXPECT_EQ(*epoch, 1u);
  }
  server.Join();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status();
}

TEST(ReplyParsingTest, ErrorRepliesCarryTypedCodes) {
  const Status typed = ParseErrorReply("ERR INVALID_ARGUMENT bad attribute");
  EXPECT_EQ(typed.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(typed.message(), "bad attribute");

  const Status precondition =
      ParseErrorReply("ERR FAILED_PRECONDITION no snapshot loaded");
  EXPECT_EQ(precondition.code(), StatusCode::kFailedPrecondition);

  // Legacy servers without a code name: kInternal, message preserved.
  const Status legacy = ParseErrorReply("ERR something went wrong");
  EXPECT_EQ(legacy.code(), StatusCode::kInternal);
  EXPECT_EQ(legacy.message(), "something went wrong");

  // "ERR OK ..." from a nonconforming server must never yield an
  // OK-coded Status — callers feed the result to StatusOr, which
  // aborts on OK-without-value.
  const Status fake_ok = ParseErrorReply("ERR OK all good here");
  EXPECT_FALSE(fake_ok.ok());
  EXPECT_EQ(fake_ok.code(), StatusCode::kInternal);
  EXPECT_EQ(fake_ok.message(), "OK all good here");

  // Not an ERR line at all.
  const Status not_err = ParseErrorReply("RANGE lo=0 hi=1");
  EXPECT_EQ(not_err.code(), StatusCode::kProtocolError);
}

TEST(ReplyParsingTest, RangeRepliesPreserveEveryBit) {
  const auto parse = [](const std::string& line) {
    std::istringstream tokens(line);
    std::vector<std::string> out;
    std::string tok;
    while (tokens >> tok) out.push_back(tok);
    return ParseRangeReply(out, 1);
  };

  const auto plain =
      parse("RANGE lo=2 hi=9 defined=1 empty_possible=0");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->lo, 2.0);
  EXPECT_EQ(plain->hi, 9.0);
  EXPECT_TRUE(plain->defined);
  EXPECT_FALSE(plain->empty_instance_possible);

  // -0.0 survives: the round-trippable formatting emits "-0" and the
  // parse restores the sign bit (the MIN corner of the bit-identity
  // guarantee).
  const auto minus_zero =
      parse("RANGE lo=-0 hi=0 defined=1 empty_possible=1");
  ASSERT_TRUE(minus_zero.ok());
  EXPECT_TRUE(std::signbit(minus_zero->lo));
  EXPECT_FALSE(std::signbit(minus_zero->hi));
  EXPECT_TRUE(minus_zero->empty_instance_possible);

  // Infinities round-trip through the inf literal.
  const auto inf = parse("RANGE lo=-inf hi=inf defined=0 empty_possible=0");
  ASSERT_TRUE(inf.ok());
  EXPECT_TRUE(std::isinf(inf->lo));
  EXPECT_TRUE(std::isinf(inf->hi));
  EXPECT_FALSE(inf->defined);

  // FormatNumber output parses back bit-for-bit.
  ResultRange r;
  r.lo = -0.0;
  r.hi = 0.1 + 0.2;  // not representable "nicely": exercises %.17g
  std::ostringstream out;
  PrintResultRange(out, "RANGE ", r);
  const auto round_tripped = parse(out.str());
  ASSERT_TRUE(round_tripped.ok());
  EXPECT_TRUE(BitIdenticalRanges(r, *round_tripped));

  // Malformed bodies are protocol errors, distinguishable from server
  // and validation failures.
  EXPECT_EQ(parse("RANGE banana").status().code(),
            StatusCode::kProtocolError);
  EXPECT_EQ(parse("RANGE lo=banana hi=1").status().code(),
            StatusCode::kProtocolError);
  EXPECT_EQ(parse("RANGE defined=1").status().code(),
            StatusCode::kProtocolError);
}

TEST(StreamTransportTest, DrivesTheClientFromCannedReplies) {
  // The client sends requests into `sent` and reads canned replies —
  // a stdio-shaped transport (the server end of a pipe pair).
  std::istringstream replies(
      "STATS epoch=4 shards=2 pcs=6 attrs=3 queries=0\n"
      "RANGE lo=1 hi=2 defined=1 empty_possible=0\r\n"
      "GROUPS 1\n"
      "GROUP 7 lo=0 hi=3 defined=1 empty_possible=1\n"
      "FLAGRANT nonsense\n");
  std::ostringstream sent;
  RemoteBackend backend(std::make_unique<StreamTransport>(replies, sent),
                        "stdio");
  EXPECT_EQ(backend.name(), "stdio");

  const auto stats = backend.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->epoch, 4u);
  EXPECT_EQ(backend.num_attrs(), 3u);

  const auto range = backend.Bound(AggQuery::Count());  // CRLF tolerated
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->hi, 2.0);

  const auto groups = backend.BoundGroupBy(AggQuery::Count(), 0, {7.0});
  ASSERT_TRUE(groups.ok()) << groups.status();
  ASSERT_EQ(groups->size(), 1u);
  EXPECT_EQ((*groups)[0].group_value, 7.0);

  // Garbage replies are protocol errors; a dead stream is Unavailable.
  EXPECT_EQ(backend.Bound(AggQuery::Count()).status().code(),
            StatusCode::kProtocolError);
  EXPECT_EQ(backend.Bound(AggQuery::Count()).status().code(),
            StatusCode::kUnavailable);

  // The requests the backend sent are the protocol's lines.
  EXPECT_NE(sent.str().find("STATS\n"), std::string::npos);
  EXPECT_NE(sent.str().find("BOUND COUNT 0\n"), std::string::npos);
  EXPECT_NE(sent.str().find("GROUPBY COUNT 0 0 7\n"), std::string::npos);
}

TEST(StreamTransportTest, RetryPolicyRetriesOnlyTypedUnavailableReplies) {
  // Two overload rejections, then success: with max_retries=2 the
  // caller never sees the ERR UNAVAILABLE lines — the retry loop eats
  // them and returns the eventual RANGE. The GROUPBY exercises the same
  // policy on its (single-line) header.
  std::istringstream replies(
      "ERR UNAVAILABLE solver queue over max_queue; retry\n"
      "ERR UNAVAILABLE solver queue over max_queue; retry\n"
      "RANGE lo=1 hi=2 defined=1 empty_possible=0\n"
      "ERR UNAVAILABLE solver queue over max_queue; retry\n"
      "GROUPS 1\n"
      "GROUP 7 lo=0 hi=3 defined=1 empty_possible=1\n"
      "ERR UNAVAILABLE solver queue over max_queue; retry\n"
      "ERR UNAVAILABLE solver queue over max_queue; retry\n"
      "ERR UNAVAILABLE solver queue over max_queue; retry\n");
  std::ostringstream sent;
  RemoteBackend backend(std::make_unique<StreamTransport>(replies, sent));
  RemoteBackend::RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_ms = 0;  // no sleeping in tests
  backend.set_retry_policy(policy);

  const auto range = backend.Bound(AggQuery::Count());
  ASSERT_TRUE(range.ok()) << range.status();
  EXPECT_EQ(range->hi, 2.0);

  const auto groups = backend.BoundGroupBy(AggQuery::Count(), 0, {7.0});
  ASSERT_TRUE(groups.ok()) << groups.status();
  ASSERT_EQ(groups->size(), 1u);

  // Rejections past the budget surface as the typed kUnavailable — the
  // caller still learns the server is shedding load.
  const auto exhausted = backend.Bound(AggQuery::Count());
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kUnavailable);

  // Three BOUND attempts for the first call, one GROUPBY + retry, three
  // more for the exhausted call: each retry re-sent the request line.
  std::string log = sent.str();
  size_t bounds = 0;
  for (size_t at = 0; (at = log.find("BOUND COUNT 0\n", at)) !=
                      std::string::npos;
       at += 1) {
    ++bounds;
  }
  EXPECT_EQ(bounds, 6u);

  // Transport death is NOT retried: the stream is exhausted now, and
  // the failure comes back immediately as the transport's kUnavailable
  // (retrying a dead pipe would just burn the backoff schedule).
  const auto dead = backend.Bound(AggQuery::Count());
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable);
}

TEST(StreamTransportTest, StatsParsesEventLoopTransportCounters) {
  // A new server's STATS line carries the event-loop counters; the
  // typed client surfaces them (and an old server's line without them
  // leaves the fields zero — covered by every other STATS test here).
  std::istringstream replies(
      "STATS epoch=4 shards=2 pcs=6 attrs=3 queries=9 queue_depth=3 "
      "queue_high_water=7 coalesced_batches=2 coalesced_reqs=8 max_batch=5 "
      "overload_rejects=4\n");
  std::ostringstream sent;
  RemoteBackend backend(std::make_unique<StreamTransport>(replies, sent));

  const auto stats = backend.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->queue_depth, 3u);
  EXPECT_EQ(stats->queue_high_water, 7u);
  EXPECT_EQ(stats->coalesced_batches, 2u);
  EXPECT_EQ(stats->coalesced_requests, 8u);
  EXPECT_EQ(stats->max_coalesced_batch, 5u);
  EXPECT_EQ(stats->overload_rejections, 4u);
}

TEST(StreamTransportTest, BrokenGroupBlockPoisonsTheSession) {
  // A GROUPBY block that breaks half-way leaves the reply stream at an
  // unknown offset. The client must poison the session — if it kept
  // reading, the stale RANGE line below would come back as a clean
  // answer to the NEXT query.
  std::istringstream replies(
      "GROUPS 2\n"
      "GARBAGE not a group line\n"
      "RANGE lo=1 hi=2 defined=1 empty_possible=0\n");
  std::ostringstream sent;
  RemoteBackend backend(std::make_unique<StreamTransport>(replies, sent));

  const auto groups = backend.BoundGroupBy(AggQuery::Count(), 0, {1.0, 2.0});
  ASSERT_FALSE(groups.ok());
  EXPECT_EQ(groups.status().code(), StatusCode::kProtocolError);

  // The stale RANGE is never surfaced: the session is dead, typed.
  const auto after = backend.Bound(AggQuery::Count());
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
}

TEST(RetryBackoffTest, DecorrelatedJitterStaysInEnvelopeAndIsSeeded) {
  RemoteBackend::RetryPolicy policy;
  policy.backoff_ms = 5;
  policy.max_backoff_ms = 200;

  // Every sleep lies in [base, min(cap, 3*max(prev, base))].
  Rng rng(42);
  uint32_t prev = 0;
  for (int i = 0; i < 200; ++i) {
    const uint32_t hi = std::min<uint32_t>(
        policy.max_backoff_ms, 3 * std::max(prev, policy.backoff_ms));
    const uint32_t next = NextRetryBackoffMs(policy, prev, rng);
    EXPECT_GE(next, policy.backoff_ms);
    EXPECT_LE(next, hi);
    prev = next;
  }

  // Deterministic: the same seed replays the same sleep sequence.
  Rng a(7), b(7);
  uint32_t pa = 0, pb = 0;
  for (int i = 0; i < 50; ++i) {
    pa = NextRetryBackoffMs(policy, pa, a);
    pb = NextRetryBackoffMs(policy, pb, b);
    EXPECT_EQ(pa, pb);
  }

  // Different seeds decorrelate (not all sleeps equal).
  Rng c(1), d(2);
  bool differs = false;
  uint32_t pc = 0, pd = 0;
  for (int i = 0; i < 50 && !differs; ++i) {
    pc = NextRetryBackoffMs(policy, pc, c);
    pd = NextRetryBackoffMs(policy, pd, d);
    differs = pc != pd;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace pcx
