// End-to-end observability tests: the METRICS wire verb's counted
// Prometheus block, the requests_total == sum(per-verb) reconciliation
// invariant on BOTH transports (thread-per-session TCP and the epoll
// event loop), per-session TRACE annotations over ServeStream, the
// slow-query log, and the per-shard solve histograms a future
// repartitioner will read.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "serve/server.h"
#include "serve/snapshot.h"

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/event_loop.h"
#include "test_paths.h"
#endif

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
      TestTempPath("observability_" + tag + ".pcxsnap");
  PCX_CHECK(WriteSnapshot(snap, path).ok());
  return path;
}

/// The expected reply to "BOUND COUNT 0" over SensorSet().
constexpr const char* kCountReply =
    "RANGE lo=2 hi=9 defined=1 empty_possible=0\n";

/// Value of an exposition sample line "name... <value>"; nullopt when
/// the series is absent.
std::optional<double> SampleValue(const std::string& exposition,
                                  const std::string& series) {
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(series + " ", 0) == 0) {
      return std::strtod(line.c_str() + series.size() + 1, nullptr);
    }
  }
  return std::nullopt;
}

/// Sums every sample of `family{...}` (histogram _bucket lines score as
/// their own family and are not summed here).
double SumFamilySamples(const std::string& exposition,
                        const std::string& family) {
  std::istringstream in(exposition);
  std::string line;
  double total = 0.0;
  while (std::getline(in, line)) {
    if (line.rfind(family + "{", 0) == 0) {
      total += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
    }
  }
  return total;
}

/// Asserts the tentpole reconciliation invariant on a server's registry:
/// pcx_requests_total == sum over verbs of pcx_requests_verb_total, and
/// every verb's request count equals its latency histogram's _count
/// (each counted request is also timed, whichever path answered it).
void ExpectVerbReconciliation(BoundServer& server) {
  const std::string text = server.metrics().Exposition();
  const std::optional<double> total =
      SampleValue(text, "pcx_requests_total");
  ASSERT_TRUE(total.has_value());
  const double by_verb = SumFamilySamples(text, "pcx_requests_verb_total");
  EXPECT_EQ(*total, by_verb) << text;
  EXPECT_GT(*total, 0.0);

  const std::string family = "pcx_requests_verb_total";
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(family + "{", 0) != 0) continue;
    const std::string labels =
        line.substr(family.size(), line.find('}') + 1 - family.size());
    const double count = std::strtod(line.c_str() + line.rfind(' ') + 1,
                                     nullptr);
    EXPECT_EQ(SampleValue(text, "pcx_request_latency_us_count" + labels),
              count)
        << labels;
  }
}

// ---------------------------------------------------------------------------
// METRICS framing + stdio (ServeStream) tests

TEST(MetricsVerbTest, AnswersCountedPrometheusBlock) {
  BoundServer server;
  ASSERT_TRUE(server.LoadSnapshotFile(WriteTestSnapshot("framing")).ok());
  std::ostringstream warm;
  server.HandleLine("BOUND COUNT 0", warm);

  std::ostringstream out;
  EXPECT_TRUE(server.HandleLine("METRICS", out));
  std::istringstream reply(out.str());
  std::string header;
  ASSERT_TRUE(std::getline(reply, header));
  unsigned long long advertised = 0;
  ASSERT_EQ(std::sscanf(header.c_str(), "METRICS %llu", &advertised), 1)
      << header;
  size_t body_lines = 0;
  std::string line;
  bool saw_requests_total = false;
  while (std::getline(reply, line)) {
    ++body_lines;
    if (line.rfind("pcx_requests_total ", 0) == 0) saw_requests_total = true;
  }
  // The counted block is exact — a scraper reads precisely n lines and
  // the session is back in sync for the next verb.
  EXPECT_EQ(body_lines, advertised);
  EXPECT_TRUE(saw_requests_total);
  // Scrape-time gauges are refreshed by the verb itself.
  const std::string text = out.str();
  EXPECT_NE(text.find("pcx_loaded 1"), std::string::npos);
  EXPECT_NE(text.find("pcx_epoch 1"), std::string::npos);
  EXPECT_NE(text.find("pcx_shards 2"), std::string::npos);
}

TEST(MetricsVerbTest, WorksBeforeAnySnapshotIsLoaded) {
  // METRICS is an operational verb like HEALTH: it must answer on an
  // empty server (loaded=0), not trip the FAILED_PRECONDITION gate.
  BoundServer server;
  std::ostringstream out;
  EXPECT_TRUE(server.HandleLine("METRICS", out));
  EXPECT_EQ(out.str().rfind("METRICS ", 0), 0u) << out.str();
  EXPECT_NE(out.str().find("pcx_loaded 0"), std::string::npos);
}

TEST(MetricsVerbTest, RegistriesAreIsolatedPerServer) {
  BoundServer a;
  BoundServer b;
  std::ostringstream out;
  a.HandleLine("HEALTH", out);
  a.HandleLine("HEALTH", out);
  b.HandleLine("HEALTH", out);
  EXPECT_EQ(SampleValue(a.metrics().Exposition(),
                        "pcx_requests_verb_total{verb=\"HEALTH\"}"),
            2.0);
  EXPECT_EQ(SampleValue(b.metrics().Exposition(),
                        "pcx_requests_verb_total{verb=\"HEALTH\"}"),
            1.0);
}

TEST(TraceTest, ServeStreamTogglesPerSessionAnnotations) {
  BoundServer server;
  ASSERT_TRUE(server.LoadSnapshotFile(WriteTestSnapshot("trace")).ok());
  std::istringstream in(
      "TRACE ON\nBOUND COUNT 0\nTRACE OFF\nBOUND COUNT 0\nQUIT\n");
  std::ostringstream out;
  server.ServeStream(in, out);

  std::vector<std::string> lines;
  std::istringstream replies(out.str());
  std::string line;
  while (std::getline(replies, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 6u) << out.str();
  EXPECT_EQ(lines[0], "OK trace=1");
  EXPECT_EQ(lines[1] + "\n", kCountReply);
  // The annotation follows its reply and carries the stage timings.
  EXPECT_EQ(lines[2].rfind("#trace id=", 0), 0u) << lines[2];
  EXPECT_NE(lines[2].find(" parse_us="), std::string::npos);
  EXPECT_NE(lines[2].find(" route_us="), std::string::npos);
  EXPECT_NE(lines[2].find(" solve_us=["), std::string::npos);
  EXPECT_NE(lines[2].find(" serialize_us="), std::string::npos);
  EXPECT_NE(lines[2].find(" total_us="), std::string::npos);
  EXPECT_EQ(lines[3], "OK trace=0");
  EXPECT_EQ(lines[4] + "\n", kCountReply);  // OFF: no annotation follows
  EXPECT_EQ(lines[5], "BYE");
}

TEST(TraceTest, WithoutSessionStateIsATypedError) {
  // The two-argument HandleLine (no session) cannot hold a toggle; the
  // verb answers FAILED_PRECONDITION rather than silently ignoring it.
  BoundServer server;
  std::ostringstream out;
  EXPECT_TRUE(server.HandleLine("TRACE ON", out));
  EXPECT_EQ(out.str().rfind("ERR FAILED_PRECONDITION", 0), 0u) << out.str();
}

TEST(SlowQueryLogTest, WritesStructuredRecordsToFile) {
  const std::string log_path = TestTempPath("slow_query_test.log");
  std::remove(log_path.c_str());
  {
    BoundServer::Options options;
    options.slow_query_us = 1;  // everything is slow
    options.slow_log_path = log_path;
    BoundServer server(options);
    ASSERT_TRUE(server.LoadSnapshotFile(WriteTestSnapshot("slowlog")).ok());
    std::ostringstream out;
    server.HandleLine("BOUND COUNT 0", out);
    server.HandleLine("HEALTH", out);
  }
  std::ifstream in(log_path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t records = 0;
  bool saw_bound = false;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.rfind("pcx_slow_query us=", 0), 0u) << line;
    EXPECT_NE(line.find(" threshold_us=1 "), std::string::npos) << line;
    if (line.find("verb=BOUND line=\"BOUND COUNT 0\"") != std::string::npos) {
      saw_bound = true;
    }
    ++records;
  }
  EXPECT_GE(records, 2u);
  EXPECT_TRUE(saw_bound);
}

TEST(SlowQueryLogTest, ThresholdZeroDisablesTheLog) {
  const std::string log_path = TestTempPath("slow_query_off.log");
  std::remove(log_path.c_str());
  {
    BoundServer::Options options;
    options.slow_log_path = log_path;  // sink configured, threshold 0
    BoundServer server(options);
    ASSERT_TRUE(server.LoadSnapshotFile(WriteTestSnapshot("slowoff")).ok());
    std::ostringstream out;
    server.HandleLine("BOUND COUNT 0", out);
  }
  std::ifstream in(log_path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_TRUE(contents.empty()) << contents;
}

TEST(ShardHistogramTest, PerShardSolveLatencyPopulates) {
  BoundServer server;
  ASSERT_TRUE(server.LoadSnapshotFile(WriteTestSnapshot("shards")).ok());
  std::ostringstream out;
  // Routed to shard 0 only (predicate attr 0 in [0,10] hits the first
  // constraint's [0,24) range partition).
  server.HandleLine("BOUND COUNT 0 {0:[0,10]}", out);
  // Unconstrained: the route mask spans both shards (union solve).
  server.HandleLine("BOUND COUNT 0", out);

  const std::string text = server.metrics().Exposition();
  const std::optional<double> shard0 = SampleValue(
      text, "pcx_shard_solve_latency_us_count{shard=\"0\"}");
  const std::optional<double> union_count = SampleValue(
      text, "pcx_shard_solve_latency_us_count{shard=\"union\"}");
  ASSERT_TRUE(shard0.has_value()) << text;
  ASSERT_TRUE(union_count.has_value()) << text;
  EXPECT_GE(*shard0, 1.0);
  EXPECT_GE(*union_count, 1.0);
  // The per-verb latency histogram saw both requests.
  EXPECT_EQ(SampleValue(text,
                        "pcx_request_latency_us_count{verb=\"BOUND\"}"),
            2.0);
}

// ---------------------------------------------------------------------------
// Reconciliation across real transports

#ifdef __linux__

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

/// Reads until EOF and returns every newline-terminated line.
std::vector<std::string> RecvAllLines(int fd) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  std::vector<std::string> lines;
  std::istringstream in(buffer);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Reads exactly `n` reply lines (the client has sent requests for no
/// more than that).
std::vector<std::string> RecvLines(int fd, size_t n) {
  std::vector<std::string> lines;
  std::string partial;
  char c;
  while (lines.size() < n && ::read(fd, &c, 1) == 1) {
    if (c == '\n') {
      lines.push_back(partial);
      partial.clear();
    } else {
      partial += c;
    }
  }
  PCX_CHECK(lines.size() == n) << "connection closed early";
  return lines;
}

/// Serves `server` on an event loop for one connection, hands that
/// connection to `client`, and returns once the loop has finished.
void WithEventLoopClient(BoundServer& server,
                         EventLoopListener::Options options,
                         const std::function<void(int fd)>& client) {
  StatusOr<EventLoopListener> listener = EventLoopListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const uint16_t port = listener->port();
  options.max_clients = 1;
  std::thread serve([&] { (void)listener->Serve(server, options); });
  const int fd = RawConnect(port);
  client(fd);
  ::close(fd);
  serve.join();
}

/// The mixed workload the transport test runs: every verb class, an
/// unknown command (the OTHER bucket), and a QUIT.
constexpr const char* kMixedWorkload =
    "BOUND COUNT 0\n"
    "BOUND COUNT 0 {0:[0,10]}\n"
    "GROUPBY MIN 2 0 5,30\n"
    "STATS\n"
    "HEALTH\n"
    "FROBNICATE\n"
    "METRICS\n"
    "QUIT\n";

TEST(ReconciliationTest, EventLoopTransportCountsEveryVerbOnce) {
  BoundServer server;
  ASSERT_TRUE(server.LoadSnapshotFile(WriteTestSnapshot("recon_ev")).ok());
  StatusOr<EventLoopListener> listener = EventLoopListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const uint16_t port = listener->port();
  std::thread serve([&] {
    EventLoopListener::Options options;
    options.max_clients = 1;
    (void)listener->Serve(server, options);
  });
  const int fd = RawConnect(port);
  SendAll(fd, kMixedWorkload);
  const std::vector<std::string> lines = RecvAllLines(fd);
  ::close(fd);
  serve.join();
  EXPECT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "BYE");

  // The invariant must hold even though BOUNDs were counted by the
  // coalescer (outside HandleLine) and the rest inline.
  ExpectVerbReconciliation(server);
  const std::string text = server.metrics().Exposition();
  EXPECT_EQ(SampleValue(text, "pcx_requests_verb_total{verb=\"BOUND\"}"),
            2.0);
  EXPECT_EQ(SampleValue(text, "pcx_requests_verb_total{verb=\"OTHER\"}"),
            1.0);
  EXPECT_EQ(SampleValue(text, "pcx_requests_verb_total{verb=\"QUIT\"}"),
            1.0);
  EXPECT_EQ(SampleValue(text, "pcx_requests_total"), 8.0);
  // Coalesced BOUNDs still feed the per-verb latency histogram.
  const std::optional<double> bound_lat = SampleValue(
      text, "pcx_request_latency_us_count{verb=\"BOUND\"}");
  ASSERT_TRUE(bound_lat.has_value());
  EXPECT_EQ(*bound_lat, 2.0);
}

TEST(ReconciliationTest, EventLoopTimesRequestsItAnswersInline) {
  // Requests the event loop answers itself, without HandleLine: a
  // malformed BOUND, overload rejections of a coalesced BOUND, a
  // GROUPBY and a traced BOUND, and QUIT. With max_conn_pending=2 the
  // two well-formed BOUNDs fill the pipeline and everything after them
  // that needs the solver is shed.
  BoundServer server;
  ASSERT_TRUE(server.LoadSnapshotFile(WriteTestSnapshot("inline_ev")).ok());
  EventLoopListener::Options options;
  options.solver_threads = 1;
  options.max_conn_pending = 2;
  std::vector<std::string> lines;
  WithEventLoopClient(server, options, [&](int fd) {
    SendAll(fd,
            "BOUND COUNT\n"
            "BOUND COUNT 0\n"
            "BOUND COUNT 0\n"
            "BOUND COUNT 0\n"
            "GROUPBY MIN 2 0 5,30\n"
            "TRACE ON\n"
            "BOUND COUNT 0\n"
            "QUIT\n");
    lines = RecvAllLines(fd);
  });
  ASSERT_EQ(lines.size(), 8u);
  EXPECT_EQ(lines[0].rfind("ERR INVALID_ARGUMENT", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1] + "\n", kCountReply);
  EXPECT_EQ(lines[2] + "\n", kCountReply);
  for (size_t i : {3u, 4u, 6u}) {
    EXPECT_EQ(lines[i].rfind("ERR UNAVAILABLE", 0), 0u) << lines[i];
  }
  EXPECT_EQ(lines[5], "OK trace=1");
  EXPECT_EQ(lines[7], "BYE");

  ExpectVerbReconciliation(server);
  const std::string text = server.metrics().Exposition();
  EXPECT_EQ(SampleValue(text, "pcx_requests_verb_total{verb=\"BOUND\"}"),
            5.0);
  EXPECT_EQ(SampleValue(text, "pcx_request_latency_us_count{verb=\"GROUPBY\"}"),
            1.0);
  EXPECT_EQ(SampleValue(text, "pcx_overload_rejections_total"), 3.0);
}

TEST(ReconciliationTest, EventLoopBoundWithoutSnapshotIsTimed) {
  BoundServer server;
  std::vector<std::string> lines;
  WithEventLoopClient(server, {}, [&](int fd) {
    SendAll(fd, "BOUND COUNT 0\nQUIT\n");
    lines = RecvAllLines(fd);
  });
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ERR FAILED_PRECONDITION", 0), 0u) << lines[0];
  ExpectVerbReconciliation(server);
  EXPECT_EQ(SampleValue(server.metrics().Exposition(),
                        "pcx_request_latency_us_count{verb=\"BOUND\"}"),
            1.0);
}

/// Value of `key=` in a one-line STATS/HEALTH reply.
double FieldIn(const std::string& reply, const std::string& key) {
  const size_t at = reply.find(" " + key + "=");
  PCX_CHECK(at != std::string::npos) << key << " missing from " << reply;
  return std::strtod(reply.c_str() + at + key.size() + 2, nullptr);
}

TEST(CounterStoreTest, StatsHealthAndMetricsAgreeAcrossAnEpoch) {
  // STATS, HEALTH and METRICS are views of one registry: they agree,
  // and the solver counters carry across the APPEND's epoch swap.
  BoundServer server;
  ASSERT_TRUE(server.LoadSnapshotFile(WriteTestSnapshot("views")).ok());
  constexpr size_t kBefore = 5;
  constexpr size_t kAfter = 3;
  std::string stats;
  std::string health;
  std::string text;
  WithEventLoopClient(server, {}, [&](int fd) {
    std::string burst;
    for (size_t i = 0; i < kBefore; ++i) burst += "BOUND COUNT 0\n";
    SendAll(fd, burst);
    for (const std::string& line : RecvLines(fd, kBefore)) {
      EXPECT_EQ(line + "\n", kCountReply);
    }
    SendAll(fd, "APPEND pred={0:[0,5]} values={2:[0,1]} freq=[0,1]\n");
    EXPECT_EQ(RecvLines(fd, 1)[0].rfind("OK epoch=2", 0), 0u);
    burst.clear();
    for (size_t i = 0; i < kAfter; ++i) burst += "BOUND COUNT 0 {0:[30,40]}\n";
    SendAll(fd, burst);
    RecvLines(fd, kAfter);
    SendAll(fd, "STATS\n");
    stats = RecvLines(fd, 1)[0];
    SendAll(fd, "HEALTH\n");
    health = RecvLines(fd, 1)[0];
    // No request is in flight: the registry holds what the replies saw.
    text = server.metrics().Exposition();
    SendAll(fd, "QUIT\n");
    EXPECT_EQ(RecvLines(fd, 1)[0], "BYE");
  });

  EXPECT_EQ(FieldIn(stats, "epoch"), 2.0) << stats;
  EXPECT_EQ(FieldIn(stats, "queries"),
            static_cast<double>(kBefore + kAfter))
      << stats;
  EXPECT_EQ(FieldIn(stats, "queries"),
            SumFamilySamples(text, "pcx_bound_queries_total"))
      << text;
  EXPECT_EQ(FieldIn(stats, "sat_calls"), SampleValue(text, "pcx_sat_calls_total"));
  EXPECT_EQ(FieldIn(health, "requests"), SampleValue(text, "pcx_requests_total"))
      << health;
  EXPECT_EQ(FieldIn(health, "sessions"), SampleValue(text, "pcx_sessions_total"))
      << health;
  EXPECT_EQ(FieldIn(health, "sessions"), 1.0);
  EXPECT_GT(FieldIn(stats, "coalesced_batches"), 0.0);
  EXPECT_EQ(FieldIn(stats, "coalesced_batches"),
            SampleValue(text, "pcx_coalesce_batch_size_count"))
      << stats;
  EXPECT_EQ(FieldIn(stats, "coalesced_reqs"),
            static_cast<double>(kBefore + kAfter));
  EXPECT_EQ(FieldIn(stats, "coalesced_reqs"),
            SampleValue(text, "pcx_coalesce_batch_size_sum"));
}

TEST(ReconciliationTest, EventLoopTraceRoundTripAnnotates) {
  // TRACE works on the epoll transport too: per-connection session
  // state lives on the Conn, and a traced BOUND bypasses the coalescer.
  BoundServer server;
  ASSERT_TRUE(server.LoadSnapshotFile(WriteTestSnapshot("trace_ev")).ok());
  StatusOr<EventLoopListener> listener = EventLoopListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const uint16_t port = listener->port();
  std::thread serve([&] {
    EventLoopListener::Options options;
    options.max_clients = 1;
    (void)listener->Serve(server, options);
  });
  const int fd = RawConnect(port);
  SendAll(fd, "TRACE ON\nBOUND COUNT 0\nQUIT\n");
  const std::vector<std::string> lines = RecvAllLines(fd);
  ::close(fd);
  serve.join();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "OK trace=1");
  EXPECT_EQ(lines[1] + "\n", kCountReply);
  EXPECT_EQ(lines[2].rfind("#trace id=", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3], "BYE");
}

#endif  // __linux__

}  // namespace
}  // namespace pcx
