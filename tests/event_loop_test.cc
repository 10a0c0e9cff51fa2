// Event-loop transport tests: cross-connection BOUND coalescing, a
// free worker taking only its share of a backlog, a lone client served
// without waiting, admission control (per-connection and
// global caps answering typed ERR UNAVAILABLE), overload counters in
// STATS/HEALTH, full recovery after an overload burst, fd hygiene
// across many short sessions, and Nagle off on both ends.
//
// Determinism note exploited throughout: the loop applies solver
// completions only on wake-pipe events, and dispatches pending BOUNDs
// only at the end of an epoll sweep, never per line. Solver-queue
// depth and per-connection outstanding counts fall only when a worker
// finishes and the loop applies its completion, which cannot happen
// before the sweep that read the request ends. So every line of one
// pipelined send is admitted/rejected in one sweep with no completions
// interleaved — which makes the expected reply sequence of an overload
// burst exact, not probabilistic.

#include <gtest/gtest.h>

#ifdef __linux__

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/remote_backend.h"
#include "serve/event_loop.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "test_paths.h"

namespace pcx {
namespace {

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

std::string WriteTestSnapshot(const std::string& tag) {
  const auto pcs = SensorSet();
  const std::vector<AttrDomain> domains = {AttrDomain::kInteger,
                                           AttrDomain::kContinuous,
                                           AttrDomain::kContinuous};
  const Partition p =
      PartitionPcSet(pcs, domains, {2, PartitionStrategy::kAttributeRange});
  const Snapshot snap = MakeSnapshot(pcs, domains, p, 1);
  const std::string path =
      TestTempPath("event_loop_" + tag + ".pcxsnap");
  PCX_CHECK(WriteSnapshot(snap, path).ok());
  return path;
}

/// The expected reply to "BOUND COUNT 0" over SensorSet().
constexpr const char* kCountReply =
    "RANGE lo=2 hi=9 defined=1 empty_possible=0\n";

class EventLoopTestServer {
 public:
  explicit EventLoopTestServer(const EventLoopListener::Options& options,
                               const std::string& snapshot) {
    PCX_CHECK(server_.LoadSnapshotFile(snapshot).ok());
    StatusOr<EventLoopListener> listener = EventLoopListener::Bind(0);
    PCX_CHECK(listener.ok()) << listener.status();
    listener_.emplace(std::move(listener).value());
    thread_ = std::thread([this, options] {
      serve_status_ = listener_->Serve(server_, options);
    });
  }
  ~EventLoopTestServer() {
    listener_->Shutdown();
    thread_.join();
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

void SendAll(int fd, const std::string& text) {
  size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t w =
        ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    PCX_CHECK(w > 0);
    sent += static_cast<size_t>(w);
  }
}

/// Reads exactly `lines` newline-terminated replies (blocking).
std::vector<std::string> RecvLines(int fd, size_t lines) {
  std::vector<std::string> out;
  std::string buffer;
  char chunk[4096];
  while (out.size() < lines) {
    const size_t at = buffer.find('\n');
    if (at != std::string::npos) {
      out.push_back(buffer.substr(0, at + 1));
      buffer.erase(0, at + 1);
      continue;
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    PCX_CHECK(n > 0) << "peer closed after " << out.size() << " lines";
    buffer.append(chunk, static_cast<size_t>(n));
  }
  return out;
}

std::string QueryOneLine(uint16_t port, const std::string& request) {
  const int fd = RawConnect(port);
  SendAll(fd, request + "\n");
  const std::string reply = RecvLines(fd, 1)[0];
  ::close(fd);
  return reply;
}

/// "key=value" extraction from a STATS/HEALTH reply line.
uint64_t CounterIn(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = line.find(needle);
  PCX_CHECK(at != std::string::npos) << key << " not in: " << line;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

size_t OpenFdCount() {
  DIR* dir = ::opendir("/proc/self/fd");
  PCX_CHECK(dir != nullptr);
  size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

/// TCP_NODELAY of the connected socket in this process whose local
/// port (`server_end`) or peer port (client end) is `port`; -1 when no
/// such socket is open. Both ends of a test connection live here.
int NoDelayAt(uint16_t port, bool server_end) {
  DIR* dir = ::opendir("/proc/self/fd");
  PCX_CHECK(dir != nullptr);
  int found = -1;
  while (const dirent* entry = ::readdir(dir)) {
    const int fd = static_cast<int>(std::strtol(entry->d_name, nullptr, 10));
    sockaddr_in local{};
    sockaddr_in peer{};
    socklen_t local_len = sizeof(local);
    socklen_t peer_len = sizeof(peer);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &local_len) !=
            0 ||
        local.sin_family != AF_INET ||
        ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) !=
            0) {
      continue;  // not a connected IPv4 socket (the listener, a pipe...)
    }
    if (ntohs(server_end ? local.sin_port : peer.sin_port) != port) continue;
    int value = 0;
    socklen_t len = sizeof(value);
    PCX_CHECK(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) == 0);
    found = value != 0 ? 1 : 0;
  }
  ::closedir(dir);
  return found;
}

TEST(EventLoopTest, CoalescesBoundsAcrossConnections) {
  EventLoopListener::Options options;
  options.solver_threads = 1;
  const std::string snapshot = WriteTestSnapshot("coalesce");
  EventLoopTestServer server(options, snapshot);

  // Hold the one worker busy: a LOAD from a FIFO blocks in open() until
  // the test writes the snapshot into it.
  const std::string fifo = TestTempPath("event_loop_coalesce.fifo");
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const int loader = RawConnect(server.port());
  SendAll(loader, "LOAD " + fifo + "\n");

  // BOUNDs from five connections arrive while every worker is busy, so
  // they wait for the next batch instead of being dispatched one by one.
  constexpr size_t kClients = 5;
  std::vector<int> fds;
  for (size_t c = 0; c < kClients; ++c) {
    fds.push_back(RawConnect(server.port()));
  }
  for (const int fd : fds) SendAll(fd, "BOUND COUNT 0\n");
  const Gauge& queue_depth = server.server().transport().queue_depth;
  const int64_t admitted = 1 + kClients;  // the LOAD and five BOUNDs
  for (int spin = 0; spin < 5000 && queue_depth.value() < admitted; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(queue_depth.value(), admitted);

  // Free the worker: the LOAD completes, then one batch takes all five.
  std::ostringstream bytes;
  bytes << std::ifstream(snapshot, std::ios::binary).rdbuf();
  std::ofstream(fifo, std::ios::binary) << bytes.str();
  EXPECT_EQ(RecvLines(loader, 1)[0].rfind("OK epoch=1 ", 0), 0u);
  ::close(loader);
  ::unlink(fifo.c_str());
  for (const int fd : fds) {
    EXPECT_EQ(RecvLines(fd, 1)[0], kCountReply);
    ::close(fd);
  }

  const std::string stats = QueryOneLine(server.port(), "STATS");
  EXPECT_EQ(CounterIn(stats, "coalesced_reqs"), kClients);
  // The acceptance signal of the whole design: one batch held the
  // requests of every connection.
  EXPECT_EQ(CounterIn(stats, "coalesced_batches"), 1u);
  EXPECT_EQ(CounterIn(stats, "max_batch"), kClients);
  EXPECT_EQ(CounterIn(stats, "overload_rejects"), 0u);
  EXPECT_EQ(CounterIn(stats, "queue_depth"), 0u);
}

TEST(EventLoopTest, FreeWorkerTakesItsShareOfTheBacklog) {
  EventLoopListener::Options options;
  options.solver_threads = 2;
  const std::string snapshot = WriteTestSnapshot("share");
  EventLoopTestServer server(options, snapshot);
  std::ostringstream bytes;
  bytes << std::ifstream(snapshot, std::ios::binary).rdbuf();

  // Hold both workers with a LOAD each from a FIFO (see above). LOADs
  // serialize, so one waits in open() while the other waits for it.
  std::vector<std::string> fifos;
  std::vector<int> loaders;
  for (int i = 0; i < 2; ++i) {
    fifos.push_back(TestTempPath("event_loop_share" + std::to_string(i) +
                                 ".fifo"));
    ::unlink(fifos.back().c_str());
    ASSERT_EQ(::mkfifo(fifos.back().c_str(), 0600), 0);
    loaders.push_back(RawConnect(server.port()));
    SendAll(loaders.back(), "LOAD " + fifos.back() + "\n");
  }
  constexpr size_t kClients = 6;
  std::vector<int> fds;
  for (size_t c = 0; c < kClients; ++c) {
    fds.push_back(RawConnect(server.port()));
  }
  for (const int fd : fds) SendAll(fd, "BOUND COUNT 0\n");
  const Gauge& queue_depth = server.server().transport().queue_depth;
  const int64_t admitted = 2 + kClients;
  for (int spin = 0; spin < 5000 && queue_depth.value() < admitted; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(queue_depth.value(), admitted);

  // Feeds the snapshot to whichever LOAD has its FIFO open, and returns
  // that LOAD's index once its reply is in.
  const auto release_one = [&]() -> size_t {
    for (int spin = 0; spin < 5000; ++spin) {
      for (size_t i = 0; i < fifos.size(); ++i) {
        // Without a reader a non-blocking open fails with ENXIO.
        const int fd = ::open(fifos[i].c_str(), O_WRONLY | O_NONBLOCK);
        if (fd < 0) continue;
        PCX_CHECK(::fcntl(fd, F_SETFL, 0) == 0);
        PCX_CHECK(::write(fd, bytes.str().data(), bytes.str().size()) ==
                  static_cast<ssize_t>(bytes.str().size()));
        ::close(fd);
        EXPECT_EQ(RecvLines(loaders[i], 1)[0].rfind("OK ", 0), 0u);
        return i;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "no LOAD opened its FIFO";
    return fifos.size();
  };

  // Free one worker. It takes its share, ceil(6 / 2) = 3, not all six.
  // With the other worker still held, the remaining three go out as 2
  // then 1: each time nothing else is in flight and the free worker
  // takes ceil(outstanding / 2).
  const size_t first = release_one();
  ASSERT_LT(first, fifos.size());
  for (const int fd : fds) {
    EXPECT_EQ(RecvLines(fd, 1)[0], kCountReply);
    ::close(fd);
  }
  const size_t second = release_one();
  EXPECT_EQ(first + second, 1u);
  for (int i = 0; i < 2; ++i) {
    ::close(loaders[i]);
    ::unlink(fifos[i].c_str());
  }

  const std::string stats = QueryOneLine(server.port(), "STATS");
  EXPECT_EQ(CounterIn(stats, "coalesced_reqs"), kClients);
  EXPECT_EQ(CounterIn(stats, "coalesced_batches"), 3u);
  EXPECT_EQ(CounterIn(stats, "max_batch"), 3u);
  EXPECT_EQ(CounterIn(stats, "queue_depth"), 0u);
}

TEST(EventLoopTest, LoneClientIsDispatchedWithoutWaiting) {
  EventLoopListener::Options options;
  options.solver_threads = 2;
  EventLoopTestServer server(options, WriteTestSnapshot("lone"));

  // A sequential client: one BOUND in flight at a time, workers idle.
  constexpr uint64_t kRequests = 50;
  const int fd = RawConnect(server.port());
  for (uint64_t i = 0; i < kRequests; ++i) {
    SendAll(fd, "BOUND COUNT 0\n");
    EXPECT_EQ(RecvLines(fd, 1)[0], kCountReply);
  }
  ::close(fd);

  // Each BOUND is dispatched at the end of the sweep that read it, not
  // after a timer: its wait for a worker is the rest of one sweep.
  const Histogram& wait =
      server.server().metrics().GetHistogram("pcx_coalesce_wait_us");
  ASSERT_EQ(wait.count(), kRequests);
  EXPECT_LT(wait.sum() / static_cast<double>(kRequests), 500.0);
}

TEST(EventLoopTest, BothEndsDisableNagle) {
  EventLoopListener::Options options;
  EventLoopTestServer server(options, WriteTestSnapshot("nodelay"));

  // Connect exchanges a STATS, so the server has accepted by now.
  StatusOr<std::unique_ptr<RemoteBackend>> backend =
      RemoteBackend::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(backend.ok()) << backend.status();
  EXPECT_EQ(NoDelayAt(server.port(), /*server_end=*/true), 1);
  EXPECT_EQ(NoDelayAt(server.port(), /*server_end=*/false), 1);
}

TEST(EventLoopTest, PerConnectionPendingCapRejectsWithTypedError) {
  EventLoopListener::Options options;
  options.solver_threads = 1;
  options.max_conn_pending = 2;
  EventLoopTestServer server(options, WriteTestSnapshot("conncap"));

  // Five pipelined BOUNDs in one send: the first two are admitted and
  // wait for the end of the sweep, the last three exceed the
  // per-connection cap. Replies come back in request order: two RANGEs
  // once the batch solves, then the three typed rejections.
  const int fd = RawConnect(server.port());
  std::string burst;
  for (int i = 0; i < 5; ++i) burst += "BOUND COUNT 0\n";
  SendAll(fd, burst);
  const std::vector<std::string> replies = RecvLines(fd, 5);
  EXPECT_EQ(replies[0], kCountReply);
  EXPECT_EQ(replies[1], kCountReply);
  for (size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(replies[i].rfind("ERR UNAVAILABLE", 0), 0u) << replies[i];
  }

  // The connection survives its own rejections: the next request on the
  // same socket is served normally.
  SendAll(fd, "BOUND COUNT 0\n");
  EXPECT_EQ(RecvLines(fd, 1)[0], kCountReply);
  ::close(fd);

  const std::string health = QueryOneLine(server.port(), "HEALTH");
  EXPECT_EQ(CounterIn(health, "overload_rejects"), 3u);
  EXPECT_EQ(CounterIn(health, "queue_depth"), 0u);
}

TEST(EventLoopTest, GlobalQueueCapRejectsAndFullyRecovers) {
  EventLoopListener::Options options;
  options.solver_threads = 1;
  options.max_queue = 1;
  options.max_conn_pending = 64;
  EventLoopTestServer server(options, WriteTestSnapshot("queuecap"));

  // One admitted BOUND saturates max_queue=1; the two behind it in the
  // same pipelined send are shed with the typed rejection.
  const int fd = RawConnect(server.port());
  SendAll(fd, "BOUND COUNT 0\nBOUND COUNT 0\nBOUND COUNT 0\n");
  const std::vector<std::string> replies = RecvLines(fd, 3);
  EXPECT_EQ(replies[0], kCountReply);
  EXPECT_EQ(replies[1].rfind("ERR UNAVAILABLE", 0), 0u) << replies[1];
  EXPECT_EQ(replies[2].rfind("ERR UNAVAILABLE", 0), 0u) << replies[2];

  // Recovery: the queue drained with the batch, so the next request is
  // admitted — overload is a state, not a death sentence.
  SendAll(fd, "BOUND COUNT 0\n");
  EXPECT_EQ(RecvLines(fd, 1)[0], kCountReply);

  SendAll(fd, "STATS\n");
  const std::string stats = RecvLines(fd, 1)[0];
  ::close(fd);
  EXPECT_EQ(CounterIn(stats, "overload_rejects"), 2u);
  EXPECT_EQ(CounterIn(stats, "queue_depth"), 0u);
  EXPECT_EQ(CounterIn(stats, "queue_high_water"), 1u);
}

TEST(EventLoopTest, GroupByCountsAgainstAdmissionToo) {
  EventLoopListener::Options options;
  options.solver_threads = 1;
  options.max_conn_pending = 1;
  EventLoopTestServer server(options, WriteTestSnapshot("groupcap"));

  // A BOUND holds the one pending slot; the GROUPBY behind it must be
  // shed — admission control covers every solver-pool verb, or a
  // GROUPBY flood would bypass the cap entirely.
  const int fd = RawConnect(server.port());
  SendAll(fd, "BOUND COUNT 0\nGROUPBY COUNT 0 0 5,30\n");
  const std::vector<std::string> replies = RecvLines(fd, 2);
  EXPECT_EQ(replies[0], kCountReply);
  EXPECT_EQ(replies[1].rfind("ERR UNAVAILABLE", 0), 0u) << replies[1];

  // Alone in the pipeline, the same GROUPBY is served: GROUPS + groups.
  SendAll(fd, "GROUPBY COUNT 0 0 5,30\n");
  const std::vector<std::string> groups = RecvLines(fd, 3);
  EXPECT_EQ(groups[0], "GROUPS 2\n");
  EXPECT_EQ(groups[1].rfind("GROUP 5 ", 0), 0u) << groups[1];
  ::close(fd);
}

TEST(EventLoopTest, ManyShortSessionsLeakNoFdsOrCounters) {
  EventLoopListener::Options options;
  options.solver_threads = 2;
  EventLoopTestServer server(options, WriteTestSnapshot("fds"));

  // Settle: one probe session, then snapshot the process fd count.
  EXPECT_EQ(QueryOneLine(server.port(), "BOUND COUNT 0"), kCountReply);
  // The probe's server-side fd may linger an instant after the client
  // close returns; wait for open_conns to hit zero before baselining.
  for (int spin = 0; spin < 200; ++spin) {
    if (server.server().transport().open_connections.value() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const size_t baseline = OpenFdCount();

  constexpr size_t kSessions = 40;
  for (size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(QueryOneLine(server.port(), "BOUND COUNT 0"), kCountReply);
  }
  for (int spin = 0; spin < 2000; ++spin) {
    if (server.server().transport().open_connections.value() == 0 &&
        OpenFdCount() <= baseline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.server().transport().open_connections.value(), 0);
  EXPECT_EQ(OpenFdCount(), baseline);

  const std::string health = QueryOneLine(server.port(), "HEALTH");
  // open_conns=1: the HEALTH session itself is the one live connection.
  EXPECT_EQ(CounterIn(health, "open_conns"), 1u);
  EXPECT_EQ(CounterIn(health, "queue_depth"), 0u);
  EXPECT_EQ(CounterIn(health, "overload_rejects"), 0u);
  EXPECT_GE(CounterIn(health, "sessions"), kSessions + 1);
}

}  // namespace
}  // namespace pcx

#else  // !__linux__

TEST(EventLoopTest, SkippedOffLinux) { GTEST_SKIP() << "epoll is Linux-only"; }

#endif
