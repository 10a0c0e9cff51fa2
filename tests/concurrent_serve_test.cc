// Concurrent-serving tests over the event-loop TCP transport: many
// simultaneous sessions, atomic snapshot swap with per-request epoch
// pinning, graceful shutdown, accept-loop resilience, and stdio/TCP
// parity of the session loop. The centerpiece asserts the
// serving layer's contract under fan-in: N parallel TCP clients issuing
// mixed BOUND/GROUPBY/STATS while LOAD swaps epochs mid-stream, every
// reply bit-identical to an unsharded local-backend reference at ONE of
// the live epochs — never torn, never mixed.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "engine/local_backend.h"
#include "engine/remote_backend.h"
#include "serve/event_loop.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "test_paths.h"

namespace pcx {
namespace {

/// The server_test sensor layout — two disjoint hour ranges on
/// attribute 0, values on attribute 2 — parameterized so different
/// epochs produce different (and thus distinguishable) answers.
PredicateConstraintSet SensorSet(double value_hi, double freq_hi) {
  PredicateConstraintSet pcs;
  {
    Predicate pred(3);
    pred.AddRange(0, 0, 23);
    Box values(3);
    values.Constrain(2, Interval::Closed(10, value_hi));
    pcs.Add(PredicateConstraint(pred, values, {2, freq_hi}));
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

/// Every epoch gets its own constraint numbers, so an answer identifies
/// the epoch that produced it.
PredicateConstraintSet SetForEpoch(uint64_t epoch) {
  return epoch == 1 ? SensorSet(50, 5) : SensorSet(90, 8);
}

std::string WriteEpochSnapshot(uint64_t epoch, const std::string& tag) {
  const auto pcs = SetForEpoch(epoch);
  const auto domains = SensorDomains();
  const Partition p =
      PartitionPcSet(pcs, domains, {2, PartitionStrategy::kAttributeRange});
  const Snapshot snap = MakeSnapshot(pcs, domains, p, epoch);
  const std::string path =
      TestTempPath("concurrent_" + tag + ".pcxsnap");
  PCX_CHECK(WriteSnapshot(snap, path).ok());
  return path;
}

/// The parity suite's one instance runs on the event loop, the only TCP
/// transport; the enum names the instance (`AllTransports/.../EventLoop`).
enum class Transport { kEventLoop };

std::string TransportName(const testing::TestParamInfo<Transport>&) {
  return "EventLoop";
}

/// An in-process concurrent pcx_serve: ephemeral port, `solver_threads`
/// pool workers, Shutdown-able from the test thread.
class ConcurrentTestServer {
 public:
  ConcurrentTestServer(size_t solver_threads, size_t max_clients,
                       const std::string& snapshot = "") {
    if (!snapshot.empty()) {
      PCX_CHECK(server_.LoadSnapshotFile(snapshot).ok());
    }
    StatusOr<EventLoopListener> listener = EventLoopListener::Bind(0);
    PCX_CHECK(listener.ok()) << listener.status();
    listener_.emplace(std::move(listener).value());
    EventLoopListener::Options options;
    options.max_clients = max_clients;
    options.solver_threads = solver_threads;
    thread_ = std::thread([this, options] {
      serve_status_ = listener_->Serve(server_, options);
    });
  }
  ~ConcurrentTestServer() {
    Shutdown();
    Join();
  }

  void Shutdown() { listener_->Shutdown(); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  uint16_t port() const { return listener_->port(); }
  BoundServer& server() { return server_; }
  const Status& serve_status() const { return serve_status_; }

 private:
  BoundServer server_;
  std::optional<EventLoopListener> listener_;
  Status serve_status_;
  std::thread thread_;
};

#ifdef __linux__  // TCP serving is epoll-based

TEST(AcceptErrorTest, TransientsAreRetriedFatalsAreNot) {
  // One bad client (aborted handshake) or a momentary resource squeeze
  // must not take the listener down...
  EXPECT_TRUE(IsTransientAcceptError(ECONNABORTED));
  EXPECT_TRUE(IsTransientAcceptError(EPROTO));
  EXPECT_TRUE(IsTransientAcceptError(EINTR));
  EXPECT_TRUE(IsTransientAcceptError(EMFILE));
  EXPECT_TRUE(IsTransientAcceptError(ENFILE));
  EXPECT_TRUE(IsTransientAcceptError(ENOBUFS));
  EXPECT_TRUE(IsTransientAcceptError(ENOMEM));
  EXPECT_TRUE(IsTransientAcceptError(EAGAIN));
  // ...while a broken listener fd is unrecoverable by retrying.
  EXPECT_FALSE(IsTransientAcceptError(EBADF));
  EXPECT_FALSE(IsTransientAcceptError(EINVAL));
  EXPECT_FALSE(IsTransientAcceptError(ENOTSOCK));
  EXPECT_FALSE(IsTransientAcceptError(EFAULT));
}

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PCX_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  PCX_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  return fd;
}

std::string ReadUntilEof(int fd) {
  std::string out;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    out.append(chunk, static_cast<size_t>(n));
  }
  return out;
}

/// Parity suite: the serving contract (typed replies, epoch pinning,
/// oversize/EOF handling) the TCP transport shares with stdio serving.
class TransportServeTest : public testing::TestWithParam<Transport> {};

TEST_P(TransportServeTest, TcpAnswersFinalCommandWithoutTrailingNewline) {
  const std::string snapshot = WriteEpochSnapshot(1, "eof");
  ConcurrentTestServer server(/*solver_threads=*/1, /*max_clients=*/1,
                              snapshot);

  // The last (only) command arrives with no '\n' before EOF. The
  // session loop must flush the residual buffer as a line — exactly
  // what ServeStream's getline does on stdio (parity asserted by
  // ServerTest.ServeStreamAnswersFinalLineWithoutNewline).
  const int fd = RawConnect(server.port());
  const std::string request = "BOUND COUNT 0";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  EXPECT_EQ(ReadUntilEof(fd), "RANGE lo=2 hi=9 defined=1 empty_possible=0\n");
  ::close(fd);

  server.Join();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status();
}

TEST(ConcurrentServeTest, TwoSimultaneousClientsGetUninterleavedReplies) {
  const std::string snapshot = WriteEpochSnapshot(1, "pair");
  ConcurrentTestServer server(/*solver_threads=*/2, /*max_clients=*/2,
                              snapshot);

  // Both sessions are open at the same time: the second Connect must
  // not wait for the first client to disconnect.
  auto a = RemoteBackend::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(a.ok()) << a.status();
  auto b = RemoteBackend::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(b.ok()) << b.status();

  // Interleaved request/reply ping-pong: each session's replies must
  // answer its own requests (a cross-wired or interleaved reply would
  // parse wrong or return the wrong shape).
  Predicate where(3);
  where.AddRange(0, 0, 23);
  for (int round = 0; round < 5; ++round) {
    const auto count_a = (*a)->Bound(AggQuery::Count());
    ASSERT_TRUE(count_a.ok()) << count_a.status();
    EXPECT_EQ(count_a->hi, 9.0);

    const auto groups_b =
        (*b)->BoundGroupBy(AggQuery::Count(), 0, {5.0, 30.0, 99.0});
    ASSERT_TRUE(groups_b.ok()) << groups_b.status();
    ASSERT_EQ(groups_b->size(), 3u);
    EXPECT_EQ((*groups_b)[0].range.hi, 5.0);

    const auto sum_a = (*a)->Bound(AggQuery::Sum(2, where));
    ASSERT_TRUE(sum_a.ok()) << sum_a.status();
    EXPECT_EQ(sum_a->lo, 20.0);
    EXPECT_EQ(sum_a->hi, 250.0);

    const auto stats_b = (*b)->Stats();
    ASSERT_TRUE(stats_b.ok()) << stats_b.status();
    EXPECT_EQ(stats_b->epoch, 1u);
  }

  const auto health = (*a)->Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->loaded);
  EXPECT_EQ(health->epoch, 1u);
  EXPECT_GE(health->sessions, 2u);

  a->reset();
  b->reset();
  server.Join();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status();
  EXPECT_EQ(server.server().sessions(), 2u);
}

TEST(ConcurrentServeTest, BurstOfClientsAllServedThroughTheBacklog) {
  const std::string snapshot = WriteEpochSnapshot(1, "burst");
  constexpr size_t kClients = 8;
  // Two workers, eight simultaneous connects: every socket must be
  // served, none refused.
  ConcurrentTestServer server(/*solver_threads=*/2,
                              /*max_clients=*/kClients, snapshot);

  std::atomic<size_t> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &ok_count] {
      auto backend = RemoteBackend::Connect("127.0.0.1", server.port());
      if (!backend.ok()) return;
      const auto count = (*backend)->Bound(AggQuery::Count());
      if (count.ok() && count->lo == 2.0 && count->hi == 9.0) ++ok_count;
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients);

  server.Join();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status();
  EXPECT_EQ(server.server().sessions(), kClients);
}

TEST(ConcurrentServeTest, ShutdownDrainsAndServeReturnsOk) {
  const std::string snapshot = WriteEpochSnapshot(1, "shutdown");
  // Serve-forever server: only Shutdown can end it.
  ConcurrentTestServer server(/*solver_threads=*/2, /*max_clients=*/0,
                              snapshot);

  {
    auto backend = RemoteBackend::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(backend.ok()) << backend.status();
    const auto count = (*backend)->Bound(AggQuery::Count());
    ASSERT_TRUE(count.ok()) << count.status();
  }
  server.Shutdown();
  server.Join();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status();
}

TEST(ConcurrentServeTest, ShutdownDisconnectsIdleInFlightSessions) {
  const std::string snapshot = WriteEpochSnapshot(1, "idle");
  ConcurrentTestServer server(/*solver_threads=*/2, /*max_clients=*/0,
                              snapshot);

  // The client queries once and then just sits on the open connection.
  // Shutdown must still drain: the idle connection is closed instead of
  // holding Serve hostage forever.
  auto backend = RemoteBackend::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(backend.ok()) << backend.status();
  ASSERT_TRUE((*backend)->Bound(AggQuery::Count()).ok());

  server.Shutdown();
  server.Join();  // would hang without the session-disconnect sweep
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status();

  // The server hung up on the client, typed as a lost connection.
  const auto after = (*backend)->Bound(AggQuery::Count());
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
}

TEST_P(TransportServeTest, OversizedRequestLineIsRefusedNotBuffered) {
  const std::string snapshot = WriteEpochSnapshot(1, "oversize");
  ConcurrentTestServer server(/*solver_threads=*/1, /*max_clients=*/1,
                              snapshot);

  // A newline-less stream past the line cap: the session must answer
  // one typed ERR and hang up instead of buffering without bound. The
  // overshoot past the cap exercises the server's post-ERR drain —
  // without it, closing with unread bytes queued would RST the ERR
  // reply out of the client's receive buffer.
  const int fd = RawConnect(server.port());
  const std::string blob(EventLoopListener::kMaxRequestLineBytes + 65536,
                         'x');
  size_t sent = 0;
  while (sent < blob.size()) {
    const ssize_t w = ::send(fd, blob.data() + sent, blob.size() - sent,
                             MSG_NOSIGNAL);
    if (w <= 0) break;  // server may hang up while we are still sending
    sent += static_cast<size_t>(w);
  }
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const std::string reply = ReadUntilEof(fd);
  ::close(fd);
  EXPECT_EQ(reply.rfind("ERR INVALID_ARGUMENT request line exceeds", 0), 0u)
      << reply;

  server.Join();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status();
}

TEST_P(TransportServeTest, MixedWorkloadAcrossEpochSwapsIsNeverTorn) {
  const std::string v1 = WriteEpochSnapshot(1, "swap_v1");
  const std::string v2 = WriteEpochSnapshot(2, "swap_v2");

  // Unsharded local references, one per epoch: the serving contract is
  // bit-identity against exactly these at the reply's epoch.
  LocalBackend ref1(SetForEpoch(1), SensorDomains());
  LocalBackend ref2(SetForEpoch(2), SensorDomains());

  Predicate where(3);
  where.AddRange(0, 0, 23);
  const AggQuery count_q = AggQuery::Count();
  const AggQuery sum_q = AggQuery::Sum(2, where);
  const std::vector<double> group_values = {5.0, 30.0, 99.0};

  const auto expect_count1 = ref1.Bound(count_q);
  const auto expect_count2 = ref2.Bound(count_q);
  const auto expect_sum1 = ref1.Bound(sum_q);
  const auto expect_sum2 = ref2.Bound(sum_q);
  const auto expect_groups1 = ref1.BoundGroupBy(count_q, 0, group_values);
  const auto expect_groups2 = ref2.BoundGroupBy(count_q, 0, group_values);
  ASSERT_TRUE(expect_count1.ok() && expect_count2.ok() && expect_sum1.ok() &&
              expect_sum2.ok() && expect_groups1.ok() && expect_groups2.ok());
  // The two epochs must be distinguishable or the assertions below
  // would vacuously pass.
  ASSERT_FALSE(BitIdenticalRanges(*expect_count1, *expect_count2));
  ASSERT_FALSE(BitIdenticalRanges(*expect_sum1, *expect_sum2));

  const auto groups_match = [](const std::vector<GroupRange>& got,
                               const std::vector<GroupRange>& want) {
    if (got.size() != want.size()) return false;
    for (size_t g = 0; g < got.size(); ++g) {
      if (got[g].group_value != want[g].group_value ||
          !BitIdenticalRanges(got[g].range, want[g].range)) {
        return false;
      }
    }
    return true;
  };

  constexpr size_t kClients = 3;
  constexpr size_t kIterations = 30;
  // One worker per concurrently-open session: kClients query streams
  // plus the LOAD-swapping control session.
  ConcurrentTestServer server(/*solver_threads=*/kClients + 1,
                              /*max_clients=*/0, v1);

  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto backend = RemoteBackend::Connect("127.0.0.1", server.port());
      if (!backend.ok()) {
        ++failures;
        return;
      }
      for (size_t i = 0; i < kIterations; ++i) {
        const auto count = (*backend)->Bound(count_q);
        if (!count.ok() || !(BitIdenticalRanges(*count, *expect_count1) ||
                             BitIdenticalRanges(*count, *expect_count2))) {
          ++failures;
        }
        const auto sum = (*backend)->Bound(sum_q);
        if (!sum.ok() || !(BitIdenticalRanges(*sum, *expect_sum1) ||
                           BitIdenticalRanges(*sum, *expect_sum2))) {
          ++failures;
        }
        // The whole GROUPBY block must come from ONE epoch: a reply
        // mixing group lines from two epochs is exactly the torn read
        // the atomic swap forbids.
        const auto groups = (*backend)->BoundGroupBy(count_q, 0, group_values);
        if (!groups.ok() || !(groups_match(*groups, *expect_groups1) ||
                              groups_match(*groups, *expect_groups2))) {
          ++failures;
        }
        const auto stats = (*backend)->Stats();
        if (!stats.ok() || (stats->epoch != 1 && stats->epoch != 2)) {
          ++failures;
        }
      }
    });
  }

  // The control session swaps snapshots under the clients' feet.
  {
    auto control = RemoteBackend::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(control.ok()) << control.status();
    for (int swap = 0; swap < 6; ++swap) {
      const Status loaded = (*control)->Load(swap % 2 == 0 ? v2 : v1);
      ASSERT_TRUE(loaded.ok()) << loaded;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);

  server.Shutdown();
  server.Join();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status();
  EXPECT_EQ(server.server().sessions(), kClients + 1);
  EXPECT_GE(server.server().requests(),
            kClients * kIterations * 4);  // plus LOADs and Connect STATS
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportServeTest,
                         testing::Values(Transport::kEventLoop),
                         TransportName);

#endif  // __linux__

}  // namespace
}  // namespace pcx
