#ifndef PCX_SERVE_EVENT_LOOP_H_
#define PCX_SERVE_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "serve/server.h"

namespace pcx {

/// True when an accept() failure with this errno is transient — one bad
/// or unlucky client (ECONNABORTED, EPROTO), or momentary resource
/// exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) — and the accept loop
/// should keep serving everyone else. Persistent failures (EBADF,
/// EINVAL, ENOTSOCK...) mean the listener itself is broken.
bool IsTransientAcceptError(int error_code);

/// The TCP transport for BoundServer: one epoll loop owns every
/// connection, so ten thousand idle or slow clients cost one fd each
/// instead of one blocked thread each (the C10K architecture). Binding
/// and serving are separate so a port-0 (kernel-assigned ephemeral)
/// listener can report the actual port before the loop starts — tests
/// and CI need no fixed-port reservations:
///
///   PCX_ASSIGN_OR_RETURN(EventLoopListener listener,
///                        EventLoopListener::Bind(0));
///   std::printf("PORT %u\n", listener.port());
///   return listener.Serve(server);
///
/// BOUNDs are batched naturally, with no timer: at the end of each epoll
/// sweep, a free solver-pool worker takes its share of the outstanding
/// BOUNDs (pending plus solving) — from any connection — as one
/// ShardedBoundSolver::BoundBatch: ceil(outstanding / workers), at most
/// 256. A lone client is therefore served at once, while BOUNDs that
/// arrive while every worker is busy pile up and form the next batch,
/// so fan-in still coalesces. While another batch is solving, a pending
/// backlog shorter than floor(outstanding / workers) waits for more, so
/// a group of requests read across two sweeps is not split for good.
/// Batch execution pins the snapshot once, so every reply in a batch is
/// computed at exactly one epoch, and BoundBatch's bit-identity
/// guarantee makes a coalesced answer byte-identical to a sequential
/// one.
///
/// Everything except the BOUND fast path is answered by the same
/// BoundServer::HandleLine as stdio serving, and BOUND uses the same
/// parser and reply formatter, so replies are byte-identical across
/// stdio and TCP. GROUPBY/LOAD run on pool workers; every other verb
/// (HEALTH, STATS, APPEND, RETIRE, CHECKPOINT, SYNC...) answers inline
/// on the loop thread. Replies on one connection always come back in
/// request order (per-connection reply slots).
///
/// Admission control instead of unbounded queueing: a request that
/// would push the solver queue past `max_queue`, or one connection past
/// `max_conn_pending` outstanding replies, is answered immediately with
/// a typed "ERR UNAVAILABLE ..." line — the client sees overload as a
/// retryable error (RemoteBackend::RetryPolicy) instead of an
/// ever-growing latency. Rejections, queue depth, and coalesced batch
/// sizes are reported through STATS/HEALTH (BoundServer::TransportStats).
/// A request line is capped at kMaxRequestLineBytes: a client streaming
/// an endless newline-less request gets one typed ERR and is hung up on.
/// Client disconnects, mid-reply drops included, cost only that
/// connection (no SIGPIPE); transient accept() failures pause accepting
/// briefly instead of taking the listener down.
///
/// Linux-only (epoll): Bind returns kUnimplemented elsewhere, where
/// BoundServer::ServeStream (stdio) remains the way to serve.
class EventLoopListener {
 public:
  /// listen(2) backlog used when Bind is not given one: a C10K connect
  /// burst should queue in the kernel, not get connection-refused.
  static constexpr int kDefaultBacklog = 1024;

  /// Upper bound on one request line (bytes before the '\n'). Far
  /// beyond any legitimate BOUND/GROUPBY line, small enough that an
  /// adversarial newline-less stream cannot balloon a connection buffer.
  static constexpr size_t kMaxRequestLineBytes = 1 << 20;

  struct Options {
    /// Serve returns once this many accepted connections have fully
    /// ended (0 = serve until Shutdown).
    size_t max_clients = 0;
    /// Workers executing coalesced BOUND batches and GROUPBY/LOAD
    /// requests (0 = 2). The loop thread itself never solves.
    size_t solver_threads = 2;
    /// Admission cap: BOUND/GROUPBY/LOAD requests admitted but not yet
    /// answered, across all connections. Beyond it: ERR UNAVAILABLE.
    size_t max_queue = 1024;
    /// Admission cap per connection: outstanding (unanswered) requests
    /// one client may pipeline. Beyond it: ERR UNAVAILABLE.
    size_t max_conn_pending = 64;
  };

  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral).
  static StatusOr<EventLoopListener> Bind(uint16_t port,
                                          int backlog = kDefaultBacklog);

  EventLoopListener(EventLoopListener&& other) noexcept;
  EventLoopListener& operator=(EventLoopListener&& other) noexcept;
  EventLoopListener(const EventLoopListener&) = delete;
  EventLoopListener& operator=(const EventLoopListener&) = delete;
  ~EventLoopListener();

  /// The actual bound port (the kernel's pick when Bind got 0).
  uint16_t port() const { return port_; }

  /// Runs the event loop until Shutdown (or `max_clients` sessions have
  /// ended). Single-threaded: the calling thread becomes the loop.
  Status Serve(BoundServer& server, const Options& options);
  Status Serve(BoundServer& server) { return Serve(server, Options()); }

  /// Stops a Serve running on another thread: the port stops accepting
  /// (later connects are refused), in-flight connections are
  /// disconnected (idle ones included), queued solver work is drained,
  /// Serve returns OK. Safe to call from any thread, any number of times.
  void Shutdown();

 private:
  EventLoopListener(int fd, uint16_t port, int wake_read, int wake_write);

  int fd_ = -1;
  uint16_t port_ = 0;
  /// Self-pipe: Shutdown() and pool workers write one byte to wake the
  /// epoll loop. Created at Bind so Shutdown works in any Serve state.
  int wake_read_ = -1;
  int wake_write_ = -1;
  /// Heap-allocated so Shutdown() stays valid across moves.
  std::shared_ptr<std::atomic<bool>> stopping_;
};

}  // namespace pcx

#endif  // PCX_SERVE_EVENT_LOOP_H_
