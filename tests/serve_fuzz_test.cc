// Protocol fuzzing against a LIVE event-loop server: seeded-
// random garbage, truncated verbs, CRLF-mixed framing, binary noise,
// and mid-verb disconnects. The contract under attack input is narrow
// and absolute — every line the server answers is a well-formed typed
// reply, a connection is either answered or cleanly closed, and the
// server survives to serve the next (well-behaved) client. No crash,
// no hang, no wedged session — this suite runs under ASan/UBSan and
// TSan in CI, so "survives" includes "without UB or data races".
//
// All randomness flows from one seeded Rng per iteration: a failure
// log's iteration number reproduces the exact byte stream.

#include <gtest/gtest.h>

#ifdef __linux__  // TCP serving is epoll-based

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
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

std::string WriteFuzzSnapshot() {
  const auto pcs = SensorSet();
  const std::vector<AttrDomain> domains = {AttrDomain::kInteger,
                                           AttrDomain::kContinuous,
                                           AttrDomain::kContinuous};
  const Partition p =
      PartitionPcSet(pcs, domains, {2, PartitionStrategy::kAttributeRange});
  const Snapshot snap = MakeSnapshot(pcs, domains, p, 1);
  const std::string path = TestTempPath("serve_fuzz.pcxsnap");
  PCX_CHECK(WriteSnapshot(snap, path).ok());
  return path;
}

class FuzzTestServer {
 public:
  FuzzTestServer() {
    PCX_CHECK(server_.LoadSnapshotFile(WriteFuzzSnapshot()).ok());
    StatusOr<EventLoopListener> listener = EventLoopListener::Bind(0);
    PCX_CHECK(listener.ok()) << listener.status();
    listener_.emplace(std::move(listener).value());
    EventLoopListener::Options options;
    options.solver_threads = 2;
    thread_ = std::thread([this, options] {
      serve_status_ = listener_->Serve(server_, options);
    });
  }
  ~FuzzTestServer() {
    listener_->Shutdown();
    thread_.join();
    EXPECT_TRUE(serve_status_.ok()) << serve_status_;
  }

  uint16_t port() const { return listener_->port(); }

 private:
  BoundServer server_;
  std::optional<EventLoopListener> listener_;
  Status serve_status_;
  std::thread thread_;
};

/// Connects with a receive timeout: a wedged server turns into a typed
/// test failure instead of a hung test binary.
int ConnectWithTimeout(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PCX_CHECK(fd >= 0);
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  PCX_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  return fd;
}

void SendBest(int fd, const std::string& text) {
  // The server may legitimately hang up mid-send (e.g. after a QUIT the
  // fuzzer generated); losing the race is not a failure.
  size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t w =
        ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) return;
    sent += static_cast<size_t>(w);
  }
}

/// Reads to EOF (or receive timeout, reported as "TIMEOUT" sentinel).
std::string RecvAll(int fd) {
  std::string out;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) return out;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return "TIMEOUT";
      return out;  // reset by peer etc. — a close, just an abrupt one
    }
    out.append(chunk, static_cast<size_t>(n));
  }
}

/// Every reply line the protocol can emit starts with one of these.
bool IsTypedReplyLine(const std::string& line) {
  static const char* kPrefixes[] = {"RANGE ",  "ERR ",   "GROUPS ", "GROUP ",
                                    "STATS ",  "HEALTH ", "OK ",    "BYE"};
  for (const char* prefix : kPrefixes) {
    if (line.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// One random protocol line: garbage bytes, a mutated valid verb, a
/// truncated verb, or a valid request — whitespace/CRLF mixed freely.
std::string FuzzLine(Rng& rng) {
  static const char* kValid[] = {
      "BOUND COUNT 0",
      "BOUND SUM 2 {0:[0,23]}",
      "BOUND MIN 2",
      "GROUPBY COUNT 0 0 5,30",
      "STATS",
      "HEALTH",
      "LOAD /nonexistent/path.pcxsnap",
  };
  static const char* kVerbs[] = {"BOUND", "GROUPBY", "LOAD",  "STATS",
                                 "HEALTH", "QUIT",   "bound", "Stats"};
  std::string line;
  switch (rng.UniformInt(0, 4)) {
    case 0: {  // pure binary/ASCII garbage (newline excluded: framing)
      const int len = static_cast<int>(rng.UniformInt(0, 80));
      for (int i = 0; i < len; ++i) {
        char c = static_cast<char>(rng.UniformInt(1, 255));
        if (c == '\n') c = ' ';
        line += c;
      }
      break;
    }
    case 1: {  // valid verb, garbage operands
      line = kVerbs[rng.UniformInt(0, 7)];
      const int extra = static_cast<int>(rng.UniformInt(0, 5));
      for (int i = 0; i < extra; ++i) {
        line += " ";
        const int len = static_cast<int>(rng.UniformInt(1, 12));
        for (int j = 0; j < len; ++j) {
          line += static_cast<char>(rng.UniformInt(33, 126));
        }
      }
      break;
    }
    case 2: {  // truncation of a valid request
      const std::string full = kValid[rng.UniformInt(0, 6)];
      line = full.substr(
          0, static_cast<size_t>(rng.UniformInt(0, int64_t(full.size()))));
      break;
    }
    case 3:  // valid request, served normally mid-fuzz
      line = kValid[rng.UniformInt(0, 6)];
      break;
    default: {  // whitespace torture
      const int len = static_cast<int>(rng.UniformInt(0, 10));
      const char kWs[] = {' ', '\t', '\r', '#'};
      for (int i = 0; i < len; ++i) line += kWs[rng.UniformInt(0, 3)];
      break;
    }
  }
  return line;
}

class ServeFuzzTest : public testing::TestWithParam<Transport> {};

TEST_P(ServeFuzzTest, RandomInputNeverCrashesOrWedgesTheServer) {
  FuzzTestServer server;
  constexpr int kIterations = 60;

  for (int iter = 0; iter < kIterations; ++iter) {
    Rng rng(0xF022 + static_cast<uint64_t>(iter));
    const int fd = ConnectWithTimeout(server.port());
    const int mode = static_cast<int>(rng.UniformInt(0, 3));

    std::string payload;
    const int lines = static_cast<int>(rng.UniformInt(1, 12));
    for (int l = 0; l < lines; ++l) {
      payload += FuzzLine(rng);
      // CRLF-mixed and occasionally missing terminators.
      payload += rng.UniformInt(0, 3) == 0 ? "\r\n" : "\n";
    }

    switch (mode) {
      case 0: {  // full exchange: garbage in, typed replies out
        SendBest(fd, payload);
        SendBest(fd, "QUIT\n");
        ::shutdown(fd, SHUT_WR);
        const std::string replies = RecvAll(fd);
        ASSERT_NE(replies, "TIMEOUT") << "server wedged at iter " << iter;
        for (const std::string& reply : SplitLines(replies)) {
          EXPECT_TRUE(IsTypedReplyLine(reply))
              << "iter " << iter << " malformed reply: '" << reply << "'";
        }
        break;
      }
      case 1:  // mid-verb disconnect: truncate the last line's tail
        SendBest(fd, payload.substr(0, payload.size() / 2));
        break;   // close without SHUT_WR or reading — abrupt death
      case 2: {  // send, die without reading any replies
        SendBest(fd, payload);
        break;
      }
      default: {  // unterminated line, then half-close (EOF-residual)
        SendBest(fd, payload + "STATS");
        ::shutdown(fd, SHUT_WR);
        const std::string replies = RecvAll(fd);
        ASSERT_NE(replies, "TIMEOUT") << "server wedged at iter " << iter;
        for (const std::string& reply : SplitLines(replies)) {
          EXPECT_TRUE(IsTypedReplyLine(reply))
              << "iter " << iter << " malformed reply: '" << reply << "'";
        }
        break;
      }
    }
    ::close(fd);

    // Liveness probe every few iterations: the server must still answer
    // a well-behaved client exactly, whatever the fuzzer just did.
    if (iter % 10 == 9) {
      const int probe = ConnectWithTimeout(server.port());
      SendBest(probe, "BOUND COUNT 0\n");
      ::shutdown(probe, SHUT_WR);
      const std::string reply = RecvAll(probe);
      ::close(probe);
      EXPECT_EQ(reply, "RANGE lo=2 hi=9 defined=1 empty_possible=0\n")
          << "liveness lost after iter " << iter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransports, ServeFuzzTest,
                         testing::Values(Transport::kEventLoop),
                         TransportName);

}  // namespace
}  // namespace pcx

#endif  // __linux__
