#include "engine/remote_backend.h"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>
#include <thread>
#include <utility>

#ifndef _WIN32
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>
#endif

#include "common/text.h"
#include "pc/serialization.h"
#include "relation/aggregate.h"

namespace pcx {

// ---------------------------------------------------------------------------
// Transports

#ifndef _WIN32

StatusOr<std::unique_ptr<TcpClientTransport>> TcpClientTransport::Connect(
    const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &result) != 0 ||
      result == nullptr) {
    return Status::Unavailable("cannot resolve host '" + host + "'");
  }
  int fd = -1;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    return Status::Unavailable("cannot connect to " + host + ":" + service);
  }
  // Every request line goes out in one send; with Nagle on, a request
  // pipelined behind an unacknowledged one waits out the server's
  // delayed ACK.
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  return std::unique_ptr<TcpClientTransport>(new TcpClientTransport(fd));
}

TcpClientTransport::~TcpClientTransport() {
  if (fd_ >= 0) ::close(fd_);
}

Status TcpClientTransport::SendLine(const std::string& line) {
  if (fd_ < 0) return Status::Unavailable("transport closed");
  const std::string text = line + "\n";
  size_t written = 0;
  while (written < text.size()) {
    const ssize_t w = ::send(fd_, text.data() + written,
                             text.size() - written, MSG_NOSIGNAL);
    if (w <= 0) {
      ::close(fd_);
      fd_ = -1;
      return Status::Unavailable("connection lost while sending");
    }
    written += static_cast<size_t>(w);
  }
  return Status::OK();
}

StatusOr<std::string> TcpClientTransport::ReadLine() {
  while (true) {
    const size_t at = buffer_.find('\n');
    if (at != std::string::npos) {
      std::string line = buffer_.substr(0, at);
      buffer_.erase(0, at + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (fd_ < 0) return Status::Unavailable("transport closed");
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      ::close(fd_);
      fd_ = -1;
      return Status::Unavailable("connection closed by server");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

#else  // _WIN32

StatusOr<std::unique_ptr<TcpClientTransport>> TcpClientTransport::Connect(
    const std::string&, uint16_t) {
  return Status::Unimplemented("TcpClientTransport: POSIX sockets only");
}
TcpClientTransport::~TcpClientTransport() = default;
Status TcpClientTransport::SendLine(const std::string&) {
  return Status::Unimplemented("TcpClientTransport: POSIX sockets only");
}
StatusOr<std::string> TcpClientTransport::ReadLine() {
  return Status::Unimplemented("TcpClientTransport: POSIX sockets only");
}

#endif  // _WIN32

Status StreamTransport::SendLine(const std::string& line) {
  out_ << line << "\n";
  out_.flush();
  if (!out_) return Status::Unavailable("output stream failed");
  return Status::OK();
}

StatusOr<std::string> StreamTransport::ReadLine() {
  std::string line;
  if (!std::getline(in_, line)) {
    return Status::Unavailable("input stream ended");
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

// ---------------------------------------------------------------------------
// Reply parsing

Status ParseErrorReply(const std::string& line) {
  // "ERR <CODE> <message...>" — or the legacy "ERR <message...>".
  const std::vector<std::string> tokens = SplitWhitespace(line);
  if (tokens.empty() || tokens[0] != "ERR") {
    return Status::ProtocolError("not an ERR reply: '" + line + "'");
  }
  std::string rest = TrimWhitespace(line.substr(3));
  StatusCode code;
  // "ERR OK ..." from a nonconforming server must not produce an
  // OK-coded Status — callers hand the result to StatusOr, whose
  // OK-without-value check would abort on remote input. Treat it like
  // any unknown code name.
  if (tokens.size() >= 2 && ParseStatusCode(tokens[1], &code) &&
      code != StatusCode::kOk) {
    rest = TrimWhitespace(rest.substr(tokens[1].size()));
    return Status(code, rest);
  }
  return Status::Internal(rest);
}

StatusOr<ResultRange> ParseRangeReply(const std::vector<std::string>& tokens,
                                      size_t from) {
  ResultRange range;
  bool have_lo = false;
  bool have_hi = false;
  for (size_t t = from; t < tokens.size(); ++t) {
    const size_t eq = tokens[t].find('=');
    if (eq == std::string::npos) {
      return Status::ProtocolError("bad range token '" + tokens[t] + "'");
    }
    const std::string key = tokens[t].substr(0, eq);
    const std::string val = tokens[t].substr(eq + 1);
    if (key == "lo" || key == "hi") {
      const StatusOr<double> v = ParseNumber(val);
      if (!v.ok()) {
        return Status::ProtocolError("bad range number '" + tokens[t] + "'");
      }
      (key == "lo" ? range.lo : range.hi) = *v;
      (key == "lo" ? have_lo : have_hi) = true;
    } else if (key == "defined") {
      range.defined = val != "0";
    } else if (key == "empty_possible") {
      range.empty_instance_possible = val != "0";
    }
    // Unknown keys from newer servers are ignored.
  }
  if (!have_lo || !have_hi) {
    return Status::ProtocolError("range reply missing lo=/hi=");
  }
  return range;
}

namespace {

/// Parses "key=value" serving counters into EngineStats (unknown and
/// non-integer keys, e.g. imbalance=1.003, are ignored).
EngineStats ParseStatsReply(const std::vector<std::string>& tokens) {
  EngineStats stats;
  for (size_t t = 1; t < tokens.size(); ++t) {
    const size_t eq = tokens[t].find('=');
    if (eq == std::string::npos) continue;
    const std::string key = tokens[t].substr(0, eq);
    const StatusOr<uint64_t> v = ParseU64(tokens[t].substr(eq + 1));
    if (!v.ok()) continue;
    if (key == "epoch") stats.epoch = *v;
    else if (key == "shards") stats.num_shards = static_cast<size_t>(*v);
    else if (key == "pcs") stats.num_pcs = static_cast<size_t>(*v);
    else if (key == "attrs") stats.num_attrs = static_cast<size_t>(*v);
    else if (key == "queries") stats.queries = static_cast<size_t>(*v);
    else if (key == "num_cells") stats.num_cells = static_cast<size_t>(*v);
    else if (key == "sat_calls") stats.sat_calls = static_cast<size_t>(*v);
    else if (key == "sat_cache_hits")
      stats.sat_cache_hits = static_cast<size_t>(*v);
    else if (key == "milp_nodes") stats.milp_nodes = static_cast<size_t>(*v);
    else if (key == "lp_solves") stats.lp_solves = static_cast<size_t>(*v);
    else if (key == "lp_pivots") stats.lp_pivots = static_cast<size_t>(*v);
    else if (key == "queue_depth") stats.queue_depth = static_cast<size_t>(*v);
    else if (key == "queue_high_water")
      stats.queue_high_water = static_cast<size_t>(*v);
    else if (key == "coalesced_batches")
      stats.coalesced_batches = static_cast<size_t>(*v);
    else if (key == "coalesced_reqs")
      stats.coalesced_requests = static_cast<size_t>(*v);
    else if (key == "max_batch")
      stats.max_coalesced_batch = static_cast<size_t>(*v);
    else if (key == "overload_rejects")
      stats.overload_rejections = static_cast<size_t>(*v);
  }
  return stats;
}

/// Formats the request suffix carrying the WHERE predicate. The box
/// literal round-trips exactly (including "{}", the universe), so the
/// server reconstructs the same predicate the caller held.
std::string WhereSuffix(const AggQuery& query) {
  if (!query.where.has_value()) return "";
  return " " + SerializeBox(query.where->box());
}

}  // namespace

// ---------------------------------------------------------------------------
// RemoteBackend

uint32_t NextRetryBackoffMs(const RemoteBackend::RetryPolicy& policy,
                            uint32_t prev_ms, Rng& rng) {
  const uint32_t cap = std::max(policy.max_backoff_ms, policy.backoff_ms);
  // Decorrelated jitter (sleep = U[base, 3*prev]): the expected sleep
  // still grows geometrically, but concurrent clients spread across the
  // whole interval instead of knocking again in synchronized waves.
  const uint64_t hi = std::min<uint64_t>(
      cap, uint64_t{3} * std::max(prev_ms, policy.backoff_ms));
  return static_cast<uint32_t>(rng.UniformInt(
      static_cast<int64_t>(std::min<uint64_t>(policy.backoff_ms, hi)),
      static_cast<int64_t>(hi)));
}

RemoteBackend::RemoteBackend(std::unique_ptr<LineTransport> transport,
                             std::string name)
    : transport_(std::move(transport)),
      name_(std::move(name)),
      retry_rng_(retry_.jitter_seed),
      roundtrip_hist_(&MetricsRegistry::Default().GetHistogram(
          "pcx_remote_roundtrip_us", {},
          "Client-observed request round-trip latency (microseconds)")) {}

void RemoteBackend::set_retry_policy(RetryPolicy policy) {
  MutexLock lock(mu_);
  retry_ = policy;
  retry_rng_.Seed(policy.jitter_seed);
}

StatusOr<std::unique_ptr<RemoteBackend>> RemoteBackend::Connect(
    const std::string& host, uint16_t port) {
  PCX_ASSIGN_OR_RETURN(std::unique_ptr<TcpClientTransport> transport,
                       TcpClientTransport::Connect(host, port));
  auto backend = std::make_unique<RemoteBackend>(
      std::move(transport), "tcp:" + host + ":" + std::to_string(port));
  const Status info = backend->Stats().status();
  // A server with no snapshot loaded answers STATS with
  // FAILED_PRECONDITION; the connection itself is good.
  if (!info.ok() && info.code() != StatusCode::kFailedPrecondition) {
    return info;
  }
  return backend;
}

StatusOr<std::string> RemoteBackend::RoundTrip(const std::string& request) {
  if (transport_ == nullptr) {
    return Status::Unavailable(
        "session closed after an earlier protocol error");
  }
  const auto start = std::chrono::steady_clock::now();
  PCX_RETURN_IF_ERROR(transport_->SendLine(request));
  while (true) {
    PCX_ASSIGN_OR_RETURN(std::string line, transport_->ReadLine());
    // Skip the server's `#trace ...` annotations (appended after the
    // reply when the session has TRACE ON): comments are never the
    // answer, and swallowing them here keeps every reply parser in sync.
    if (!line.empty() && line[0] == '#') continue;
    roundtrip_hist_->Observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count());
    return line;
  }
}

Status RemoteBackend::PoisonProtocol(std::string message) {
  // Called when the reply stream's offset is no longer known (e.g. a
  // multi-line GROUPBY block broke half-way): keeping the session open
  // would risk handing a later caller the tail of THIS reply as a
  // clean-looking answer to a different request. Drop the transport so
  // every subsequent call fails kUnavailable instead.
  transport_.reset();
  return Status::ProtocolError(std::move(message));
}

StatusOr<EngineStats> RemoteBackend::Stats() {
  MutexLock lock(mu_);
  PCX_ASSIGN_OR_RETURN(const std::string reply, RoundTrip("STATS"));
  const std::vector<std::string> tokens = SplitWhitespace(reply);
  if (!tokens.empty() && tokens[0] == "ERR") return ParseErrorReply(reply);
  if (tokens.empty() || tokens[0] != "STATS") {
    return Status::ProtocolError("unexpected STATS reply '" + reply + "'");
  }
  const EngineStats stats = ParseStatsReply(tokens);
  num_attrs_ = stats.num_attrs;
  return stats;
}

Status RemoteBackend::Load(const std::string& snapshot_path) {
  PCX_ASSIGN_OR_RETURN(const std::string reply,
                       Command("LOAD " + snapshot_path));
  if (reply.rfind("OK ", 0) != 0) {
    return Status::ProtocolError("unexpected LOAD reply '" + reply + "'");
  }
  return Status::OK();
}

StatusOr<std::string> RemoteBackend::Metrics() {
  MutexLock lock(mu_);
  PCX_ASSIGN_OR_RETURN(const std::string header, RoundTrip("METRICS"));
  const std::vector<std::string> tokens = SplitWhitespace(header);
  if (!tokens.empty() && tokens[0] == "ERR") return ParseErrorReply(header);
  if (tokens.size() != 2 || tokens[0] != "METRICS") {
    return Status::ProtocolError("unexpected METRICS reply '" + header + "'");
  }
  const StatusOr<uint64_t> count = ParseU64(tokens[1]);
  if (!count.ok()) {
    return PoisonProtocol("bad METRICS line count '" + header + "'");
  }
  // The body is a counted multi-line block (like GROUPBY): a read
  // failure mid-block leaves the stream at an unknown offset, so the
  // session is poisoned rather than kept.
  std::string body;
  for (uint64_t i = 0; i < *count; ++i) {
    StatusOr<std::string> line_or = transport_->ReadLine();
    if (!line_or.ok()) {
      transport_.reset();
      return line_or.status();
    }
    body += *line_or;
    body += '\n';
  }
  return body;
}

StatusOr<std::string> RemoteBackend::Command(const std::string& line) {
  MutexLock lock(mu_);
  PCX_ASSIGN_OR_RETURN(const std::string reply, RoundTrip(line));
  const std::vector<std::string> tokens = SplitWhitespace(reply);
  if (!tokens.empty() && tokens[0] == "ERR") return ParseErrorReply(reply);
  // LOAD's OK, STATS and HEALTH name the served set's attribute count.
  if (const size_t attrs = ParseStatsReply(tokens).num_attrs; attrs != 0) {
    num_attrs_ = attrs;
  }
  return reply;
}

size_t RemoteBackend::num_attrs() const {
  MutexLock lock(mu_);
  return num_attrs_;
}

StatusOr<ResultRange> RemoteBackend::Bound(const AggQuery& query) {
  MutexLock lock(mu_);
  const std::string request = std::string("BOUND ") +
                              AggFuncToString(query.agg) + " " +
                              std::to_string(query.attr) + WhereSuffix(query);
  uint32_t backoff_ms = 0;
  for (size_t attempt = 0;; ++attempt) {
    PCX_ASSIGN_OR_RETURN(const std::string reply, RoundTrip(request));
    const std::vector<std::string> tokens = SplitWhitespace(reply);
    if (!tokens.empty() && tokens[0] == "ERR") {
      const Status error = ParseErrorReply(reply);
      // An ERR UNAVAILABLE *reply* is the server's admission control
      // shedding load on a live session — that, and only that, is
      // retried. (RoundTrip's own kUnavailable means the transport died
      // and already returned above.)
      if (error.code() == StatusCode::kUnavailable &&
          attempt < retry_.max_retries) {
        backoff_ms = NextRetryBackoffMs(retry_, backoff_ms, retry_rng_);
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        continue;
      }
      return error;
    }
    if (tokens.empty() || tokens[0] != "RANGE") {
      return Status::ProtocolError("unexpected BOUND reply '" + reply + "'");
    }
    return ParseRangeReply(tokens, 1);
  }
}

StatusOr<std::vector<GroupRange>> RemoteBackend::BoundGroupBy(
    const AggQuery& query, size_t group_attr,
    const std::vector<double>& group_values) {
  MutexLock lock(mu_);
  std::string values;
  for (size_t i = 0; i < group_values.size(); ++i) {
    if (i > 0) values += ",";
    values += FormatNumber(group_values[i]);
  }
  const std::string request = std::string("GROUPBY ") +
                              AggFuncToString(query.agg) + " " +
                              std::to_string(query.attr) + " " +
                              std::to_string(group_attr) + " " + values +
                              WhereSuffix(query);
  std::string header;
  std::vector<std::string> tokens;
  uint32_t backoff_ms = 0;
  for (size_t attempt = 0;; ++attempt) {
    PCX_ASSIGN_OR_RETURN(header, RoundTrip(request));
    tokens = SplitWhitespace(header);
    if (!tokens.empty() && tokens[0] == "ERR") {
      const Status error = ParseErrorReply(header);
      // Same rule as Bound: only the typed overload rejection retries.
      // The header is a single line, so the stream is still in sync.
      if (error.code() == StatusCode::kUnavailable &&
          attempt < retry_.max_retries) {
        backoff_ms = NextRetryBackoffMs(retry_, backoff_ms, retry_rng_);
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        continue;
      }
      return error;
    }
    break;
  }
  // From here on the reply is a counted multi-line block; any parse
  // failure leaves the stream at an unknown offset, so the session is
  // poisoned rather than kept.
  if (tokens.size() != 2 || tokens[0] != "GROUPS") {
    return PoisonProtocol("unexpected GROUPBY reply '" + header + "'");
  }
  const StatusOr<uint64_t> count = ParseU64(tokens[1]);
  if (!count.ok()) {
    return PoisonProtocol("bad group count '" + header + "'");
  }
  std::vector<GroupRange> groups;
  groups.reserve(static_cast<size_t>(*count));
  for (uint64_t g = 0; g < *count; ++g) {
    StatusOr<std::string> line_or = transport_->ReadLine();
    if (!line_or.ok()) {
      // Even a nominally recoverable transport error (say, a timeout
      // from a custom LineTransport) leaves this block half-read;
      // poison rather than trust the transport to be dead.
      transport_.reset();
      return line_or.status();
    }
    const std::string line = std::move(line_or).value();
    tokens = SplitWhitespace(line);
    if (tokens.size() < 2 || tokens[0] != "GROUP") {
      return PoisonProtocol("unexpected group line '" + line + "'");
    }
    GroupRange group;
    const StatusOr<double> value = ParseNumber(tokens[1]);
    if (!value.ok()) {
      return PoisonProtocol("bad group value '" + line + "'");
    }
    group.group_value = *value;
    const StatusOr<ResultRange> range = ParseRangeReply(tokens, 2);
    if (!range.ok()) return PoisonProtocol(range.status().message());
    group.range = *range;
    groups.push_back(group);
  }
  return groups;
}

StatusOr<HealthInfo> RemoteBackend::Health() {
  {
    MutexLock lock(mu_);
    PCX_ASSIGN_OR_RETURN(const std::string reply, RoundTrip("HEALTH"));
    const std::vector<std::string> tokens = SplitWhitespace(reply);
    if (!tokens.empty() && tokens[0] == "ERR") {
      const Status error = ParseErrorReply(reply);
      // An older server that predates the verb answers INVALID_ARGUMENT
      // ("unknown command"); drop through to the Stats()-derived
      // fallback outside the lock. Anything else is a real failure.
      if (error.code() != StatusCode::kInvalidArgument) return error;
    } else if (!tokens.empty() && tokens[0] == "HEALTH") {
      HealthInfo health;
      for (size_t t = 1; t < tokens.size(); ++t) {
        const size_t eq = tokens[t].find('=');
        if (eq == std::string::npos) continue;
        const std::string key = tokens[t].substr(0, eq);
        const StatusOr<uint64_t> v = ParseU64(tokens[t].substr(eq + 1));
        if (!v.ok()) continue;
        if (key == "loaded") health.loaded = *v != 0;
        else if (key == "epoch") health.epoch = *v;
        else if (key == "shards") health.num_shards = static_cast<size_t>(*v);
        else if (key == "pcs") health.num_pcs = static_cast<size_t>(*v);
        else if (key == "attrs" && *v != 0) {
          num_attrs_ = static_cast<size_t>(*v);  // free info refresh
        } else if (key == "uptime_s") health.uptime_seconds = *v;
        else if (key == "sessions") health.sessions = *v;
        else if (key == "requests") health.requests = *v;
        else if (key == "replica") health.replica = *v != 0;
        else if (key == "primary_epoch") health.primary_epoch = *v;
        else if (key == "lag") health.replication_lag = *v;
        // Unknown keys from newer servers are ignored.
      }
      return health;
    } else {
      return Status::ProtocolError("unexpected HEALTH reply '" + reply + "'");
    }
  }
  return BoundBackend::Health();
}

StatusOr<uint64_t> RemoteBackend::Epoch() {
  PCX_ASSIGN_OR_RETURN(const EngineStats stats, Stats());
  return stats.epoch;
}

}  // namespace pcx
