#ifndef PCX_SERVE_SERVER_H_
#define PCX_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/delta_log.h"
#include "serve/sharded_solver.h"

namespace pcx {

/// Line-protocol front end over a ShardedBoundSolver — the "aha" loop
/// of the serving subsystem: load a versioned snapshot, answer
/// aggregate-bound queries, report serving counters. One request per
/// line, one reply per line (GROUPBY replies with a counted block), so
/// the server is drivable from a pipe, a socket, CI, or a human:
///
///   LOAD examples/snapshots/sensors.pcxsnap
///   OK epoch=1 shards=2 pcs=6 attrs=3
///   BOUND SUM 2 {0:[0,24)}
///   RANGE lo=0 hi=1250 defined=1 empty_possible=1
///   GROUPBY COUNT 0 0 0,1,2
///   GROUPS 3
///   GROUP 0 lo=0 hi=40 defined=1 empty_possible=1
///   ...
///   STATS
///   STATS epoch=1 shards=2 ... sat_cache_hits=12 ...
///   HEALTH
///   HEALTH loaded=1 epoch=1 shards=2 pcs=6 attrs=3 uptime_s=42 ...
///   QUIT
///   BYE
///
/// Predicates travel as whitespace-free box literals in the
/// pc/serialization syntax ("{attr:[lo,hi),...}"); several boxes on one
/// line are conjoined. Errors come back as a single
/// "ERR <CODE> <reason>" line — CODE is the StatusCodeToString name of
/// the typed pcx::Status, so a typed client (engine/remote_backend.h)
/// reconstructs the exact error code instead of string-matching — and
/// never kill the session.
///
/// Concurrency model: one BoundServer is shared by every session.
/// HandleLine is thread-safe; the loaded snapshot lives behind an
/// immutable shared_ptr<const ShardedBoundSolver> that each request
/// pins once at dispatch. LOAD builds the replacement solver off to the
/// side and swaps the pointer atomically, so in-flight queries finish
/// on the epoch they started on while new requests see the new epoch —
/// a reply is always computed entirely at one epoch, never torn across
/// two. Every count lives in the server's MetricsRegistry, where each
/// epoch's solver adds to the same series: STATS, HEALTH and METRICS
/// are read-only views of one store, cumulative over the process.
class BoundServer {
 public:
  struct Options {
    /// Forwarded to every solver a LOAD constructs. `solver.metrics` is
    /// overridden to the server's own registry.
    ShardedBoundSolver::Options solver;
    /// Requests slower than this many microseconds get a structured
    /// one-line record in the slow-query log. 0 disables the log.
    uint64_t slow_query_us = 0;
    /// Slow-query log destination; empty = stderr. Opened append-mode
    /// at construction (a failure falls back to stderr with a warning).
    std::string slow_log_path;
  };

  /// Per-connection protocol state, owned by the transport (one per
  /// stdio stream / event-loop connection) and threaded into
  /// HandleLine. Atomics: the event loop toggles on the loop
  /// thread while pool workers read.
  struct Session {
    /// TRACE ON|OFF: append a `#trace ...` comment after each reply.
    std::atomic<bool> trace{false};
  };

  /// Event-transport serving counters — registry-backed references, so
  /// STATS, HEALTH, and METRICS all read the same series and counter
  /// names cannot drift. The epoll loop (serve/event_loop.h) maintains
  /// them; stdio serving leaves them zero. All metric types are atomic
  /// inside: the loop thread and its solver-pool workers update them
  /// while any session reads them.
  struct TransportStats {
    explicit TransportStats(MetricsRegistry& metrics);
    /// Requests admitted to the solver queue and not yet answered.
    Gauge& queue_depth;
    Gauge& queue_high_water;
    /// Cross-connection BOUND coalescing: one observation per batch
    /// dispatched, of the requests it carried (its _count is STATS
    /// coalesced_batches, its _sum coalesced_reqs), and the largest
    /// batch seen (>1 means the fan-in actually coalesced).
    Histogram& coalesce_batch_size;
    Gauge& max_batch;
    /// Requests answered "ERR UNAVAILABLE" by admission control.
    Counter& overload_rejections;
    /// Currently open event-loop connections.
    Gauge& open_connections;
  };

  /// Replication-side series (registry-backed, like TransportStats),
  /// updated by the replica tailer (serve/replicator.h) and read by
  /// HEALTH.
  struct ReplicationStats {
    explicit ReplicationStats(MetricsRegistry& metrics);
    std::atomic<bool> replica{false};  ///< this process tails a primary
    /// Last epoch the primary reported; HEALTH's lag is the distance
    /// between this and the locally served epoch.
    Gauge& primary_epoch;
    Counter& syncs;          ///< successful SYNC rounds
    Counter& sync_failures;  ///< failed rounds / reconnects
    Counter& records_applied;
    Counter& snapshots_installed;  ///< full resyncs
    Gauge& lag;  ///< primary epoch - local epoch after the last sync
  };

  BoundServer();
  explicit BoundServer(Options options);
  ~BoundServer();

  /// Loads a snapshot from disk and swaps it in (LOAD command body).
  /// Queries already running keep their pinned pre-swap solver.
  /// Concurrent LOADs from different sessions are last-writer-wins:
  /// each OK reply names the epoch that LOAD installed, but a racing
  /// LOAD may supersede it immediately. The server deliberately does
  /// not referee snapshot recency — LOADing an older epoch is the
  /// legitimate rollback operation — so ordering concurrent LOADs is
  /// the operator's responsibility.
  Status LoadSnapshotFile(const std::string& path);

  /// Attaches a durable delta log (--log-dir) and recovers from it: the
  /// base snapshot is rebuilt, the journal tail replayed on top, and a
  /// torn final record truncated (reported on stderr) rather than
  /// refusing to start. After this, every mutation verb journals (with
  /// an fsync) before it is acknowledged, and LOAD/CHECKPOINT persist a
  /// fresh base. An empty directory is valid — the log initializes on
  /// the first LOAD.
  Status EnableDurableLog(const std::string& dir);

  /// Swaps in a parsed snapshot (the replica full-resync path; also
  /// persists it as the new base when a durable log is attached).
  StatusOr<std::shared_ptr<const ShardedBoundSolver>> InstallSnapshot(
      const Snapshot& snap);

  /// Applies an ordered run of delta records (epochs contiguous from
  /// the served epoch) — the replica tail-apply path. Records are
  /// validated and applied to a successor solver, journaled (when a log
  /// is attached), and only then swapped in; a failure at any step
  /// leaves the served snapshot untouched.
  StatusOr<std::shared_ptr<const ShardedBoundSolver>> ApplyRecords(
      std::span<const DeltaRecord> records);

  /// A replica serves reads only: LOAD/APPEND/RETIRE/CHECKPOINT answer
  /// FAILED_PRECONDITION so the primary stays the single writer.
  void set_read_only(bool read_only) { read_only_.store(read_only); }
  bool read_only() const { return read_only_.load(); }

  ReplicationStats& replication() { return replication_; }
  const ReplicationStats& replication() const { return replication_; }

  /// Handles one protocol line, writing the reply to `out`. Returns
  /// false iff the line was QUIT (the stream should end). Thread-safe:
  /// sessions on different threads may call this concurrently as long
  /// as each owns its own `out` (and `session`). `session` carries the
  /// per-connection TRACE state; with nullptr the TRACE verb answers
  /// FAILED_PRECONDITION and no trace comments are emitted.
  bool HandleLine(const std::string& line, std::ostream& out,
                  Session* session);
  bool HandleLine(const std::string& line, std::ostream& out) {
    return HandleLine(line, out, nullptr);
  }

  /// Runs the protocol until EOF or QUIT, flushing after every reply.
  void ServeStream(std::istream& in, std::ostream& out);

  /// The currently served snapshot, pinned: the returned solver is
  /// immutable and stays valid across concurrent LOAD swaps. Null
  /// before the first successful LOAD.
  std::shared_ptr<const ShardedBoundSolver> solver() const;

  /// Whole-process serving counters.
  uint64_t uptime_seconds() const;
  uint64_t sessions() const { return sessions_total_->value(); }
  uint64_t requests() const { return requests_total_->value(); }

  /// Called once by each serving front end (stdio stream or event-loop
  /// connection) when a session opens; feeds the HEALTH sessions counter.
  void NoteSessionStart() { sessions_total_->Increment(); }

  /// Counts one request of the given (already upper-cased) verb —
  /// pcx_requests_total plus the per-verb counter, in lockstep so
  /// requests_total always equals the sum over verbs. Called by
  /// HandleLine for every dispatched line and by transports that answer
  /// without HandleLine (the event loop's coalesced BOUND path), so the
  /// HEALTH requests counter stays transport-independent.
  void NoteRequestVerb(const std::string& verb);

  /// Observes one completed request: per-verb latency histogram plus
  /// the slow-query log. HandleLine calls it for every line; transports
  /// answering outside HandleLine (coalesced BOUNDs) call it per
  /// request with their own end-to-end timing. `route`, when non-null,
  /// appends the query's routing fan-out (`shards=K`) to its
  /// slow-query record — the first thing an operator wants to know
  /// about a slow BOUND is how wide it fanned.
  void NoteRequestLatency(
      const std::string& verb, const std::string& line, double us,
      const ShardedBoundSolver::RouteInfo* route = nullptr);

  /// The server's metrics registry (the METRICS exposition source).
  /// Components wired to this server — transports, the replica tailer,
  /// the delta log — register their series here.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Event-transport counters (see TransportStats).
  TransportStats& transport() { return transport_; }
  const TransportStats& transport() const { return transport_; }

 private:
  /// Records the SYNC verb keeps in memory per served epoch, so a
  /// briefly-lagging replica catches up by record shipping instead of a
  /// full snapshot resync. Beyond the cap the oldest are dropped (the
  /// floor advances) and a further-behind replica falls back to resync.
  static constexpr size_t kMaxTailRecords = 4096;

  /// LOAD body: builds the new solver outside the swap lock and
  /// publishes it; returns the pinned new solver for the OK reply.
  StatusOr<std::shared_ptr<const ShardedBoundSolver>> LoadAndSwap(
      const std::string& path);

  /// ApplyRecords with mutate_mu_ already held (shared by the verb
  /// handlers, which must read the current epoch and apply under one
  /// critical section).
  StatusOr<std::shared_ptr<const ShardedBoundSolver>> ApplyRecordsLocked(
      std::span<const DeltaRecord> records) REQUIRES(mutate_mu_);

  /// Publishes `next` and appends `records` to the SYNC tail (clearing
  /// it instead when `records` is empty — snapshot-level swaps reset
  /// the shippable history).
  void SwapSolver(std::shared_ptr<const ShardedBoundSolver> next,
                  std::span<const DeltaRecord> records);

  /// APPEND/RETIRE/CHECKPOINT bodies: build the record at the next
  /// epoch, journal, swap, and write the OK reply.
  Status HandleMutation(const std::string& cmd, const std::string& body,
                        std::ostream& out);
  /// SYNC body: reply header + snapshot lines or record lines.
  Status HandleSync(const std::vector<std::string>& tokens,
                    std::ostream& out);

  /// `route` receives the routing diagnostics once the query is routed
  /// (left empty on parse failures), for the slow-query log.
  Status HandleBound(const ShardedBoundSolver& solver,
                     const std::vector<std::string>& tokens, std::ostream& out,
                     std::optional<ShardedBoundSolver::RouteInfo>* route);
  Status HandleGroupBy(const ShardedBoundSolver& solver,
                       const std::vector<std::string>& tokens,
                       std::ostream& out);
  Status HandleStats(const ShardedBoundSolver& solver, std::ostream& out);
  /// HEALTH never fails — it must answer on a server with no snapshot.
  void HandleHealth(const ShardedBoundSolver* solver, std::ostream& out);
  /// METRICS: refreshes scrape-time gauges (uptime, epoch, loaded)
  /// and writes the registry's Prometheus text as a counted block —
  /// "METRICS <n>\n" followed by n exposition lines.
  void HandleMetrics(const ShardedBoundSolver* solver, std::ostream& out);
  /// TRACE ON|OFF for `session`; errors without a session.
  Status HandleTrace(const std::vector<std::string>& tokens, Session* session,
                     std::ostream& out);
  /// The dispatch body of HandleLine (everything but counting, timing,
  /// tracing, and the slow-query log). `route` collects a BOUND's
  /// routing diagnostics for the slow-query log.
  bool DispatchLine(const std::string& cmd,
                    const std::vector<std::string>& tokens,
                    const std::string& line, std::ostream& out,
                    Session* session,
                    std::optional<ShardedBoundSolver::RouteInfo>* route);
  /// Appends a structured record when `us` crosses the configured
  /// threshold; serialized by slow_log_mu_.
  void MaybeLogSlowQuery(const std::string& verb, const std::string& line,
                         double us,
                         const ShardedBoundSolver::RouteInfo* route);

  /// Request counter + latency histogram of one verb, resolved once at
  /// construction so the per-request path never touches the registry
  /// lock. The last entry ("OTHER") catches unknown commands.
  struct VerbSeries {
    const char* verb = nullptr;
    Counter* count = nullptr;
    Histogram* latency = nullptr;
  };
  static constexpr size_t kNumVerbs = 13;
  const VerbSeries& FindVerb(const std::string& verb) const;

  Options options_;
  const std::chrono::steady_clock::time_point start_;
  std::atomic<bool> read_only_{false};
  std::atomic<bool> log_enabled_{false};  ///< lock-free mirror for HEALTH

  /// Declared before transport_ and replication_: both bind references
  /// into the registry at construction.
  MetricsRegistry metrics_;
  TransportStats transport_;
  ReplicationStats replication_;

  /// Hot-path metric caches (stable registry references).
  Counter* requests_total_ = nullptr;
  Counter* sessions_total_ = nullptr;
  std::array<VerbSeries, kNumVerbs> verbs_{};
  Histogram* delta_apply_hist_ = nullptr;

  Mutex slow_log_mu_;  ///< serializes slow-query records
  std::FILE* slow_log_file_ GUARDED_BY(slow_log_mu_) = nullptr;  ///< owned; null = stderr

  /// Serializes every state transition (LOAD, mutation verbs, replica
  /// installs) end to end — build, journal, swap — so the journal order
  /// and the published epoch order can never disagree. Queries never
  /// take it. Lock order where both are held: mutate_mu_ then mu_.
  Mutex mutate_mu_ ACQUIRED_BEFORE(mu_);
  std::unique_ptr<DurableLog> log_
      GUARDED_BY(mutate_mu_);  ///< null = off

  mutable Mutex mu_;  ///< guards the snapshot swap + SYNC tail below
  std::shared_ptr<const ShardedBoundSolver> solver_ GUARDED_BY(mu_);
  std::string snapshot_path_ GUARDED_BY(mu_);
  /// Recent records for SYNC shipping, oldest first; contiguous epochs
  /// (tail_floor_, tail_floor_ + tail_.size()].
  std::vector<DeltaRecord> tail_ GUARDED_BY(mu_);
  uint64_t tail_floor_ GUARDED_BY(mu_) = 0;  ///< epoch *before* tail_.front()
};

/// Formats a non-OK Status as the wire error reply — "ERR <CODE>
/// <one-line message>\n". The one definition shared by HandleLine and
/// the event loop's coalesced BOUND path, so typed errors cannot drift
/// between transports.
std::string FormatErrorReply(const Status& status);

/// Shared request-parsing helpers: the server's command dispatch and
/// the typed client REPL of `pcx_serve --connect` parse the same lines
/// with the same code, so request syntax cannot drift between the two
/// sides of the protocol.

/// "BOUND <AGG> <attr> [{box}...]" -> AggQuery (tokens[0] ignored).
StatusOr<AggQuery> ParseBoundRequest(const std::vector<std::string>& tokens,
                                     size_t num_attrs);

struct GroupByRequest {
  AggQuery query;
  size_t group_attr = 0;
  std::vector<double> values;
};
/// "GROUPBY <AGG> <attr> <group_attr> <v1,v2,...> [{box}...]".
StatusOr<GroupByRequest> ParseGroupByRequest(
    const std::vector<std::string>& tokens, size_t num_attrs);

/// Writes the "<label>lo=... hi=... defined=... empty_possible=..."
/// reply body (numbers in round-trippable pc/serialization formatting,
/// so a client parses back bit-identical ranges).
void PrintResultRange(std::ostream& out, const char* label,
                      const ResultRange& range);

}  // namespace pcx

#endif  // PCX_SERVE_SERVER_H_
