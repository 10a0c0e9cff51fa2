#ifndef PCX_ENGINE_REMOTE_BACKEND_H_
#define PCX_ENGINE_REMOTE_BACKEND_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "engine/backend.h"

namespace pcx {

/// A bidirectional line channel: one request line out, reply lines in.
/// The two shipped implementations cover the ways a pcx_serve process
/// is reachable — a localhost/remote TCP socket and a stream pair (for
/// a server on the other end of stdio pipes, or canned-reply tests).
class LineTransport {
 public:
  virtual ~LineTransport() = default;

  /// Writes one request line (`line` has no trailing newline).
  virtual Status SendLine(const std::string& line) = 0;

  /// Blocks for the next reply line (returned without the newline).
  /// kUnavailable once the peer is gone.
  virtual StatusOr<std::string> ReadLine() = 0;
};

/// TCP client transport; CRLF-tolerant like the server's own reader.
class TcpClientTransport : public LineTransport {
 public:
  static StatusOr<std::unique_ptr<TcpClientTransport>> Connect(
      const std::string& host, uint16_t port);
  ~TcpClientTransport() override;

  TcpClientTransport(const TcpClientTransport&) = delete;
  TcpClientTransport& operator=(const TcpClientTransport&) = delete;

  Status SendLine(const std::string& line) override;
  StatusOr<std::string> ReadLine() override;

 private:
  explicit TcpClientTransport(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the last returned line
};

/// Transport over caller-owned streams (a child process's stdio pipes,
/// or an istringstream of canned replies in tests). The streams must
/// outlive the transport.
class StreamTransport : public LineTransport {
 public:
  StreamTransport(std::istream& in, std::ostream& out) : in_(in), out_(out) {}

  Status SendLine(const std::string& line) override;
  StatusOr<std::string> ReadLine() override;

 private:
  std::istream& in_;
  std::ostream& out_;
};

/// The typed client of the pcx_serve line protocol: every BoundBackend
/// call is formatted as one request line, and the reply is parsed back
/// into the same StatusOr<...> shapes an in-process backend returns —
/// protocol errors (kProtocolError), transport loss (kUnavailable) and
/// server-side typed errors (the code name carried on the ERR line) stay
/// distinguishable instead of collapsing into strings. Number formatting
/// is the round-trippable pc/serialization one at both ends, so ranges
/// arrive bit-identical to what the server's solver computed, -0.0
/// included.
///
/// Calls are internally serialized onto the single protocol session, so
/// a RemoteBackend can be shared between threads like any backend.
class RemoteBackend : public BoundBackend {
 public:
  /// What to do when the server answers "ERR UNAVAILABLE ..." — the
  /// typed overload rejection of the event-loop transport's admission
  /// control. Only that reply is retried: the session is demonstrably
  /// alive (it just answered), and the server promised the rejection is
  /// transient. Transport loss is never retried here — reconnecting is
  /// a topology decision that belongs to the caller.
  struct RetryPolicy {
    /// Additional attempts after the first (0 = fail fast, the
    /// pre-event-loop behavior and still the default).
    size_t max_retries = 0;
    /// Base sleep before the first retry.
    uint32_t backoff_ms = 5;
    /// Ceiling on any single backoff sleep.
    uint32_t max_backoff_ms = 2000;
    /// Seed for the decorrelated-jitter stream (see NextRetryBackoffMs);
    /// deterministic like every RNG here, so a seed replays its sleeps.
    uint64_t jitter_seed = 0xB5297A4D3F84D5B5ULL;
  };

  /// `name` is the display name (Engine::Open passes the URI).
  explicit RemoteBackend(std::unique_ptr<LineTransport> transport,
                         std::string name = "remote");

  /// Applies to Bound and BoundGroupBy (the verbs admission control can
  /// reject). Takes the session lock, so it is safe against in-flight
  /// calls; they see either the old or the new policy, never a torn one.
  void set_retry_policy(RetryPolicy policy);

  /// Connects to a serving pcx_serve and primes num_attrs()
  /// from a STATS round-trip (a server with no snapshot loaded yet is
  /// fine; num_attrs() stays 0 until Load).
  static StatusOr<std::unique_ptr<RemoteBackend>> Connect(
      const std::string& host, uint16_t port);

  /// Asks the server to load a snapshot (the LOAD command); on success
  /// refreshes the cached attribute count from the reply.
  Status Load(const std::string& snapshot_path);

  /// The METRICS wire verb: fetches the server's Prometheus text
  /// exposition and returns the body of the counted block (one string,
  /// newline-terminated lines). A malformed block poisons the session
  /// (the reply-stream offset is unknown mid-block).
  StatusOr<std::string> Metrics() override;

  /// Sends one protocol line verbatim and returns the server's reply
  /// line. `ERR <CODE> ...` replies become their typed Status; a reply
  /// naming `attrs=` (LOAD's OK, STATS, HEALTH) refreshes num_attrs().
  StatusOr<std::string> Command(const std::string& line) override;

  std::string name() const override { return name_; }
  size_t num_attrs() const override;
  StatusOr<ResultRange> Bound(const AggQuery& query) override;
  StatusOr<std::vector<GroupRange>> BoundGroupBy(
      const AggQuery& query, size_t group_attr,
      const std::vector<double>& group_values) override;
  /// The STATS wire verb; refreshes num_attrs().
  StatusOr<EngineStats> Stats() override;
  StatusOr<uint64_t> Epoch() override;
  /// The HEALTH wire verb: succeeds even before a snapshot is loaded
  /// (loaded=0), carries the server's epoch/shards/uptime/sessions.
  /// Against a pre-HEALTH server (ERR INVALID_ARGUMENT) it falls back
  /// to the Stats()-derived default, so mixed-version fleets stay
  /// health-checkable during a rolling upgrade.
  StatusOr<HealthInfo> Health() override;

 private:
  /// Sends `request` and reads the first reply line (mu_ held). Times
  /// the exchange into pcx_remote_roundtrip_us (process-default
  /// registry) and skips `#`-prefixed comment lines — the server's
  /// TRACE annotations — so a traced session stays parseable.
  StatusOr<std::string> RoundTrip(const std::string& request) REQUIRES(mu_);
  /// Drops the transport after a mid-block protocol failure — the
  /// reply-stream offset is unknown, and a desynced session could hand
  /// later callers a stale reply as a clean answer — and returns the
  /// kProtocolError carrying `message`. Subsequent calls fail
  /// kUnavailable.
  Status PoisonProtocol(std::string message) REQUIRES(mu_);

  mutable Mutex mu_;  ///< one in-flight request at a time
  std::unique_ptr<LineTransport> transport_ GUARDED_BY(mu_);
  std::string name_;
  RetryPolicy retry_ GUARDED_BY(mu_);
  Rng retry_rng_ GUARDED_BY(mu_);  ///< jitter stream
  size_t num_attrs_ GUARDED_BY(mu_) = 0;
  Histogram* const roundtrip_hist_;  ///< client-side round-trip latency
};

/// The next backoff sleep under `policy` given the previous sleep (0 on
/// the first retry): decorrelated jitter, uniform in
/// [base, 3*max(prev, base)] capped at max_backoff_ms. When a whole
/// fleet of clients gets shed by one overloaded server, jittered
/// retries spread the readmission wave instead of resynchronizing it
/// into the next spike. Free-standing so tests can pin the sequence
/// down without a live server, and shared with ReplicaTailer's
/// reconnect loop.
uint32_t NextRetryBackoffMs(const RemoteBackend::RetryPolicy& policy,
                            uint32_t prev_ms, Rng& rng);

/// Parses one "ERR ..." reply line into the typed Status it carries.
/// Replies from servers that prefix the message with a known code name
/// ("ERR INVALID_ARGUMENT bad attribute...") keep their code; legacy
/// replies without one come back as kInternal.
Status ParseErrorReply(const std::string& line);

/// Parses a "RANGE ..." (or "GROUP <value> ...") body of key=value
/// pairs into a ResultRange. `from` is the index of the first key=value
/// token.
StatusOr<ResultRange> ParseRangeReply(const std::vector<std::string>& tokens,
                                      size_t from);

}  // namespace pcx

#endif  // PCX_ENGINE_REMOTE_BACKEND_H_
