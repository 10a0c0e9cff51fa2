// C10K serving benchmark: one event-loop server, >= 1000 simultaneous
// TCP clients. Two phases:
//
//   c10k     — N clients connect, each sends BOUND requests; BOUNDs
//              that arrive while every solver worker is busy fold into
//              one ShardedBoundSolver batch. Reported: wall time,
//              replies/s, and the coalescing counters (the batch sizes
//              are the whole point — max_batch > 1 proves requests from
//              different connections solved together).
//   overload — a deliberately tiny admission budget (max_queue) under a
//              burst far past it: the surplus must come back as typed
//              "ERR UNAVAILABLE" lines, one reply per request, nothing
//              silently dropped, and the server must serve a clean
//              probe afterwards.
//
// The process exits nonzero if any invariant fails (a reply missing,
// zero coalescing, zero rejections under overload), so CI can run it
// as a smoke test. Set PCX_BENCH_JSON=<path> to emit BENCH_pr6.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#ifdef __linux__

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "serve/event_loop.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace pcx {
namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
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

std::string WriteBenchSnapshot() {
  const auto pcs = SensorSet();
  const std::vector<AttrDomain> domains = {AttrDomain::kInteger,
                                           AttrDomain::kContinuous,
                                           AttrDomain::kContinuous};
  const Partition p =
      PartitionPcSet(pcs, domains, {2, PartitionStrategy::kAttributeRange});
  const Snapshot snap = MakeSnapshot(pcs, domains, p, 1);
  const char* tmp = std::getenv("TMPDIR");
  const std::string path =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/bench_c10k.pcxsnap";
  const Status status = WriteSnapshot(snap, path);
  if (!status.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n",
                 status.message().c_str());
    std::exit(1);
  }
  return path;
}

constexpr const char* kBoundRequest = "BOUND COUNT 0\n";
constexpr const char* kBoundReply =
    "RANGE lo=2 hi=9 defined=1 empty_possible=0\n";

void RaiseFdLimit(size_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur >= want) return;
  lim.rlim_cur = lim.rlim_max < want ? lim.rlim_max : want;
  ::setrlimit(RLIMIT_NOFILE, &lim);
}

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& text) {
  size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t w =
        ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
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
    if (n <= 0) return out;  // short: caller detects the missing replies
    buffer.append(chunk, static_cast<size_t>(n));
  }
  return out;
}

uint64_t CounterIn(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

std::string QueryStats(uint16_t port) {
  const int fd = Connect(port);
  if (fd < 0 || !SendAll(fd, "STATS\n")) return "";
  const std::vector<std::string> lines = RecvLines(fd, 1);
  ::close(fd);
  return lines.empty() ? "" : lines[0];
}

/// An in-process event-loop server on an ephemeral port.
class BenchServer {
 public:
  BenchServer(const EventLoopListener::Options& options,
              const std::string& snapshot) {
    const Status loaded = server_.LoadSnapshotFile(snapshot);
    if (!loaded.ok()) {
      std::fprintf(stderr, "LOAD failed: %s\n", loaded.message().c_str());
      std::exit(1);
    }
    StatusOr<EventLoopListener> listener = EventLoopListener::Bind(0);
    if (!listener.ok()) {
      std::fprintf(stderr, "bind failed: %s\n",
                   listener.status().message().c_str());
      std::exit(1);
    }
    listener_.emplace(std::move(listener).value());
    thread_ = std::thread([this, options] {
      const Status status = listener_->Serve(server_, options);
      if (!status.ok()) {
        std::fprintf(stderr, "serve failed: %s\n", status.message().c_str());
      }
    });
  }
  ~BenchServer() {
    listener_->Shutdown();
    thread_.join();
  }
  uint16_t port() const { return listener_->port(); }

 private:
  BoundServer server_;
  std::optional<EventLoopListener> listener_;
  std::thread thread_;
};

void RunC10k(size_t clients, size_t rounds, const std::string& snapshot,
             bench::JsonEmitter& json) {
  EventLoopListener::Options options;
  options.solver_threads = 4;
  options.max_queue = clients * rounds + 16;
  options.max_conn_pending = rounds + 4;
  BenchServer server(options, snapshot);

  std::printf("=== C10K: %zu simultaneous clients, %zu request rounds ===\n",
              clients, rounds);
  bench::Stopwatch connect_sw;
  std::vector<int> fds;
  fds.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    const int fd = Connect(server.port());
    if (fd < 0) break;
    fds.push_back(fd);
  }
  const double connect_ms = connect_sw.ElapsedMs();
  Check(fds.size() == clients, "every client connected");

  size_t replies_ok = 0, replies_total = 0;
  bench::Stopwatch serve_sw;
  for (size_t round = 0; round < rounds; ++round) {
    for (const int fd : fds) Check(SendAll(fd, kBoundRequest), "send");
    for (const int fd : fds) {
      const std::vector<std::string> lines = RecvLines(fd, 1);
      replies_total += lines.size();
      if (!lines.empty() && lines[0] == kBoundReply) ++replies_ok;
    }
  }
  const double serve_ms = serve_sw.ElapsedMs();
  for (const int fd : fds) ::close(fd);

  const size_t requests = fds.size() * rounds;
  Check(replies_total == requests, "one reply per request (none dropped)");
  Check(replies_ok == requests, "every reply exact");

  const std::string stats = QueryStats(server.port());
  const uint64_t batches = CounterIn(stats, "coalesced_batches");
  const uint64_t coalesced = CounterIn(stats, "coalesced_reqs");
  const uint64_t max_batch = CounterIn(stats, "max_batch");
  Check(coalesced >= requests, "all BOUNDs went through the coalescer");
  Check(max_batch > 1, "cross-connection coalescing observed (max_batch>1)");

  const double avg_batch =
      batches > 0 ? static_cast<double>(coalesced) / batches : 0.0;
  const double krps = requests / serve_ms;  // requests per ms = k/s
  std::printf("  connect: %zu conns in %.1f ms\n", fds.size(), connect_ms);
  std::printf("  serve:   %zu requests in %.1f ms (%.1fk replies/s)\n",
              requests, serve_ms, krps);
  std::printf("  batches: %llu coalesced batches, avg %.1f reqs, max %llu\n",
              static_cast<unsigned long long>(batches), avg_batch,
              static_cast<unsigned long long>(max_batch));
  json.Add()
      .Str("phase", "c10k")
      .Num("clients", static_cast<double>(fds.size()))
      .Num("requests", static_cast<double>(requests))
      .Num("connect_ms", connect_ms)
      .Num("serve_ms", serve_ms)
      .Num("replies_per_sec", krps * 1000.0)
      .Num("coalesced_batches", static_cast<double>(batches))
      .Num("coalesced_reqs", static_cast<double>(coalesced))
      .Num("avg_batch", avg_batch)
      .Num("max_batch", static_cast<double>(max_batch));
}

void RunOverload(size_t clients, const std::string& snapshot,
                 bench::JsonEmitter& json) {
  EventLoopListener::Options options;
  options.solver_threads = 1;
  options.max_queue = 16;  // tiny on purpose: the burst must overflow it
  options.max_conn_pending = 64;
  BenchServer server(options, snapshot);

  constexpr size_t kPipelined = 4;
  std::printf("=== Overload: %zu clients x %zu pipelined vs max_queue=%zu "
              "===\n",
              clients, kPipelined, options.max_queue);

  std::vector<int> fds;
  for (size_t c = 0; c < clients; ++c) {
    const int fd = Connect(server.port());
    if (fd < 0) break;
    fds.push_back(fd);
  }
  Check(fds.size() == clients, "every overload client connected");

  std::string burst;
  for (size_t i = 0; i < kPipelined; ++i) burst += kBoundRequest;
  bench::Stopwatch sw;
  for (const int fd : fds) Check(SendAll(fd, burst), "send burst");

  size_t served = 0, rejected = 0, malformed = 0;
  for (const int fd : fds) {
    for (const std::string& reply : RecvLines(fd, kPipelined)) {
      if (reply == kBoundReply) {
        ++served;
      } else if (reply.rfind("ERR UNAVAILABLE", 0) == 0) {
        ++rejected;
      } else {
        ++malformed;
      }
    }
    ::close(fd);
  }
  const double burst_ms = sw.ElapsedMs();

  const size_t requests = fds.size() * kPipelined;
  Check(served + rejected == requests,
        "every request answered: RANGE or typed ERR, none dropped");
  Check(malformed == 0, "no malformed replies under overload");
  Check(rejected > 0, "admission control rejected past the cap");
  Check(served > 0, "admitted requests still served during overload");

  const std::string stats = QueryStats(server.port());
  const uint64_t rejects_stat = CounterIn(stats, "overload_rejects");
  const uint64_t high_water = CounterIn(stats, "queue_high_water");
  Check(rejects_stat == rejected, "overload_rejects counter matches");
  Check(CounterIn(stats, "queue_depth") == 0, "queue drained afterwards");

  // Recovery probe: a fresh client after the storm gets the exact answer.
  const int probe = Connect(server.port());
  Check(probe >= 0 && SendAll(probe, kBoundRequest), "probe send");
  const std::vector<std::string> lines = RecvLines(probe, 1);
  ::close(probe);
  Check(!lines.empty() && lines[0] == kBoundReply, "post-overload recovery");

  std::printf("  burst:   %zu requests in %.1f ms\n", requests, burst_ms);
  std::printf("  served:  %zu   rejected: %zu (typed ERR UNAVAILABLE)\n",
              served, rejected);
  std::printf("  stats:   overload_rejects=%llu queue_high_water=%llu\n",
              static_cast<unsigned long long>(rejects_stat),
              static_cast<unsigned long long>(high_water));
  json.Add()
      .Str("phase", "overload")
      .Num("clients", static_cast<double>(fds.size()))
      .Num("requests", static_cast<double>(requests))
      .Num("burst_ms", burst_ms)
      .Num("served", static_cast<double>(served))
      .Num("rejected", static_cast<double>(rejected))
      .Num("overload_rejects", static_cast<double>(rejects_stat))
      .Num("queue_high_water", static_cast<double>(high_water))
      .Num("max_queue", static_cast<double>(options.max_queue));
}

}  // namespace
}  // namespace pcx

int main(int argc, char** argv) {
  const size_t clients =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1000;
  const size_t rounds = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 3;
  pcx::RaiseFdLimit(2 * clients + 256);

  const std::string snapshot = pcx::WriteBenchSnapshot();
  auto json = pcx::bench::JsonEmitter::FromEnv("c10k_serving");
  pcx::RunC10k(clients, rounds, snapshot, json);
  pcx::RunOverload(200, snapshot, json);

  if (pcx::g_failures > 0) {
    std::fprintf(stderr, "%d invariant(s) failed\n", pcx::g_failures);
    return 1;
  }
  std::printf("all serving invariants held\n");
  return 0;
}

#else  // !__linux__

int main() {
  std::printf("bench_c10k_serving: epoll transport is Linux-only; skipped\n");
  return 0;
}

#endif
