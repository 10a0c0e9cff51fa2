// Fault injection against a live event-loop server: slow-loris
// clients trickling requests a byte at a time, and clients that die
// mid-GROUPBY without reading their replies — while well-behaved fast
// clients run a full workload concurrently. The contract: misbehaving
// connections cost only themselves. Fast clients' replies stay
// bit-identical to an unsharded LocalBackend reference, the loris
// clients' eventual replies are still correct, and the server ends the
// run healthy with nothing leaked.

#include <gtest/gtest.h>

#ifdef __linux__  // TCP serving is epoll-based

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/local_backend.h"
#include "engine/remote_backend.h"
#include "serve/event_loop.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "test_paths.h"

namespace pcx {
namespace {

/// The suite's one instance runs on the event loop, the only TCP
/// transport; the enum names the instance (`AllTransports/.../EventLoop`).
enum class Transport { kEventLoop };

std::string TransportName(const testing::TestParamInfo<Transport>&) {
  return "EventLoop";
}

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

std::string WriteFaultSnapshot() {
  const auto pcs = SensorSet();
  const auto domains = SensorDomains();
  const Partition p =
      PartitionPcSet(pcs, domains, {2, PartitionStrategy::kAttributeRange});
  const Snapshot snap = MakeSnapshot(pcs, domains, p, 1);
  const std::string path = TestTempPath("serve_fault.pcxsnap");
  PCX_CHECK(WriteSnapshot(snap, path).ok());
  return path;
}

class FaultTestServer {
 public:
  FaultTestServer() {
    PCX_CHECK(server_.LoadSnapshotFile(WriteFaultSnapshot()).ok());
    StatusOr<EventLoopListener> listener = EventLoopListener::Bind(0);
    PCX_CHECK(listener.ok()) << listener.status();
    listener_.emplace(std::move(listener).value());
    // Two solver workers on purpose: the event loop must shield them
    // from the loris clients structurally (a connection holds no worker
    // while it dribbles bytes), not by worker over-provision.
    EventLoopListener::Options options;
    options.solver_threads = 2;
    thread_ = std::thread([this, options] {
      serve_status_ = listener_->Serve(server_, options);
    });
  }
  ~FaultTestServer() {
    listener_->Shutdown();
    thread_.join();
    EXPECT_TRUE(serve_status_.ok()) << serve_status_;
  }

  uint16_t port() const { return listener_->port(); }
  BoundServer& server() { return server_; }

 private:
  BoundServer server_;
  std::optional<EventLoopListener> listener_;
  Status serve_status_;
  std::thread thread_;
};

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

std::string RecvLine(int fd) {
  std::string line;
  char c;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return line;
    line += c;
  }
  return line;  // EOF mid-line
}

class ServeFaultInjectionTest : public testing::TestWithParam<Transport> {};

TEST_P(ServeFaultInjectionTest, SlowLorisAndMidVerbDeathsDoNotStarveOthers) {
  FaultTestServer server;

  // The ground truth every fast-client reply must bit-match.
  LocalBackend reference(SensorSet(), SensorDomains());
  Predicate where(3);
  where.AddRange(0, 0, 23);
  const AggQuery count_q = AggQuery::Count();
  const AggQuery sum_q = AggQuery::Sum(2, where);
  const std::vector<double> group_values = {5.0, 30.0, 99.0};
  const auto expect_count = reference.Bound(count_q);
  const auto expect_sum = reference.Bound(sum_q);
  const auto expect_groups = reference.BoundGroupBy(count_q, 0, group_values);
  ASSERT_TRUE(expect_count.ok() && expect_sum.ok() && expect_groups.ok());

  std::atomic<bool> chaos_on{true};
  std::atomic<size_t> fast_failures{0};
  std::atomic<size_t> loris_failures{0};
  std::vector<std::thread> actors;

  // Slow-loris clients: a correct request, delivered one byte every
  // couple of milliseconds. The connection is valid the whole time —
  // just pathologically slow — and must neither be cut off nor allowed
  // to hold a solver resource while it dribbles.
  constexpr size_t kLoris = 2;
  for (size_t i = 0; i < kLoris; ++i) {
    actors.emplace_back([&server, &loris_failures] {
      const int fd = RawConnect(server.port());
      const std::string request = "BOUND COUNT 0\n";
      for (int round = 0; round < 3; ++round) {
        for (const char c : request) {
          if (::send(fd, &c, 1, MSG_NOSIGNAL) != 1) {
            ++loris_failures;
            ::close(fd);
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (RecvLine(fd) != "RANGE lo=2 hi=9 defined=1 empty_possible=0") {
          ++loris_failures;
        }
      }
      ::close(fd);
    });
  }

  // Mid-GROUPBY deaths: issue a multi-line-reply request and vanish
  // without reading a byte of the answer. The scattered replies hit a
  // dead connection; the cost must be bounded to that connection.
  actors.emplace_back([&server, &chaos_on] {
    while (chaos_on.load()) {
      const int fd = RawConnect(server.port());
      const std::string request = "GROUPBY COUNT 0 0 5,30,99\n";
      (void)!::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
      ::close(fd);  // dead before the GROUPS block is even computed
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  // Fast clients: full typed workload, every reply checked bit-exactly
  // against the local reference, concurrent with all of the above.
  constexpr size_t kFast = 3;
  constexpr size_t kIterations = 25;
  std::vector<std::thread> fast;
  for (size_t c = 0; c < kFast; ++c) {
    fast.emplace_back([&] {
      auto backend = RemoteBackend::Connect("127.0.0.1", server.port());
      if (!backend.ok()) {
        ++fast_failures;
        return;
      }
      for (size_t i = 0; i < kIterations; ++i) {
        const auto count = (*backend)->Bound(count_q);
        if (!count.ok() || !BitIdenticalRanges(*count, *expect_count)) {
          ++fast_failures;
        }
        const auto sum = (*backend)->Bound(sum_q);
        if (!sum.ok() || !BitIdenticalRanges(*sum, *expect_sum)) {
          ++fast_failures;
        }
        const auto groups = (*backend)->BoundGroupBy(count_q, 0, group_values);
        if (!groups.ok() || groups->size() != expect_groups->size()) {
          ++fast_failures;
          continue;
        }
        for (size_t g = 0; g < groups->size(); ++g) {
          if ((*groups)[g].group_value != (*expect_groups)[g].group_value ||
              !BitIdenticalRanges((*groups)[g].range,
                                  (*expect_groups)[g].range)) {
            ++fast_failures;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  for (std::thread& t : fast) t.join();
  chaos_on.store(false);
  for (std::thread& t : actors) t.join();

  EXPECT_EQ(fast_failures.load(), 0u);
  EXPECT_EQ(loris_failures.load(), 0u);

  // The server is still fully healthy: a fresh client gets the exact
  // answer, and no dead session left a phantom behind.
  auto probe = RemoteBackend::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(probe.ok()) << probe.status();
  const auto after = (*probe)->Bound(count_q);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(BitIdenticalRanges(*after, *expect_count));
  const auto health = (*probe)->Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->loaded);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, ServeFaultInjectionTest,
                         testing::Values(Transport::kEventLoop),
                         TransportName);

}  // namespace
}  // namespace pcx

#endif  // __linux__
