#include "serve/event_loop.h"

#include <cerrno>

namespace pcx {

bool IsTransientAcceptError(int error_code) {
  switch (error_code) {
    case ECONNABORTED:  // client gave up during the handshake
    case EPROTO:        // protocol error on the nascent connection
    case EINTR:
    case EAGAIN:
#if EAGAIN != EWOULDBLOCK
    case EWOULDBLOCK:
#endif
    case EMFILE:   // fd exhaustion: per-process...
    case ENFILE:   // ...or system-wide — connections ending will free fds
    case ENOBUFS:
    case ENOMEM:
      return true;
    default:
      return false;  // EBADF, EINVAL, ENOTSOCK, EFAULT...: listener broken
  }
}

}  // namespace pcx

#if defined(__linux__)

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/text.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace pcx {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// epoll_event.data.u64 tags: the listener and the wake pipe get fixed
/// ids; connections count up from kFirstConnId and are never reused, so
/// a completion for a closed connection can only miss, never hit a
/// recycled one.
constexpr uint64_t kListenerId = 0;
constexpr uint64_t kWakeId = 1;
constexpr uint64_t kFirstConnId = 2;

/// Most BOUNDs one coalesced batch carries; a longer backlog is split
/// across consecutive batches.
constexpr size_t kMaxBatch = 256;

/// One finished async request: which connection, which reply slot, the
/// reply text. Produced by pool workers, applied by the loop thread.
struct Completion {
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  std::string text;
};

/// Worker -> loop channel. Shared by shared_ptr so a worker finishing
/// after Serve returned (Shutdown drain) writes into an orphan queue
/// instead of freed memory.
struct CompletionQueue {
  Mutex mu;
  std::vector<Completion> items GUARDED_BY(mu);

  void Push(std::vector<Completion> batch) {
    MutexLock lock(mu);
    for (Completion& c : batch) items.push_back(std::move(c));
  }
  std::vector<Completion> Drain() {
    MutexLock lock(mu);
    return std::exchange(items, {});
  }
};

/// A reply slot: replies on one connection go back in request order
/// even though they complete out of order (HEALTH inline, BOUND with
/// its batch, GROUPBY whenever its worker finishes). Slots are filled
/// by seq and flushed from the front only once done.
struct Slot {
  uint64_t seq = 0;
  bool done = false;
  std::string text;
};

/// Per-connection state: everything the C10K design needs per client is
/// this struct plus one fd — no thread, no blocking read.
struct Conn {
  int fd = -1;
  uint64_t id = 0;
  std::string rbuf;   ///< bytes read, not yet framed into lines
  std::string wbuf;   ///< reply bytes accepted by us, not by the kernel
  std::deque<Slot> slots;
  uint64_t next_seq = 0;
  size_t outstanding = 0;  ///< slots not yet done (per-conn admission)
  /// Peer half-closed its write side: no more requests will arrive;
  /// close once every slot is flushed.
  bool eof = false;
  /// QUIT (or a fatal protocol violation) seen: later input is ignored
  /// and the connection closes once every slot is flushed.
  bool closing = false;
  /// Oversized-line state: discard input until this many bytes have
  /// been thrown away (then close) — a bounded post-ERR drain, so the
  /// ERR reply survives teardown.
  size_t discard_budget = 0;
  bool discarding = false;
  bool want_write = false;  ///< EPOLLOUT currently requested
  /// Per-connection protocol state (TRACE toggle). shared_ptr: pool
  /// workers capture it, so a connection destroyed with a request still
  /// in flight cannot dangle the worker's session pointer.
  std::shared_ptr<BoundServer::Session> session =
      std::make_shared<BoundServer::Session>();
};

/// An admitted BOUND waiting for a free worker to take its batch.
struct PendingBound {
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  AggQuery query;
  std::string line;  ///< raw request, for the slow-query log
  SteadyClock::time_point enqueued;
};

std::string FormatRangeReply(const StatusOr<ResultRange>& range) {
  if (!range.ok()) return FormatErrorReply(range.status());
  std::ostringstream out;
  PrintResultRange(out, "RANGE ", *range);
  return out.str();
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK) failed");
  }
  return Status::OK();
}

/// The whole Serve invocation's state. Owned by the loop thread; the
/// solver pool only ever touches `server`, `completions`, and the wake
/// pipe (all thread-safe).
class Loop {
 public:
  Loop(BoundServer& server, const EventLoopListener::Options& options,
       int listener_fd, int wake_read, int wake_write,
       std::atomic<bool>& stopping)
      : server_(server),
        options_(options),
        listener_fd_(listener_fd),
        wake_read_(wake_read),
        wake_write_(wake_write),
        stopping_(stopping),
        completions_(std::make_shared<CompletionQueue>()),
        queue_wait_hist_(&server.metrics().GetHistogram(
            "pcx_queue_wait_us", {},
            "Time from solver-queue admission to worker start "
            "(microseconds)")),
        coalesce_wait_hist_(&server.metrics().GetHistogram(
            "pcx_coalesce_wait_us", {},
            "Time a BOUND waited for a free solver worker before its "
            "batch was dispatched (microseconds)")),
        pool_(options.solver_threads == 0 ? 2 : options.solver_threads) {}

  Status Run();

 private:
  // -- epoll plumbing -------------------------------------------------

  Status EpollAdd(int fd, uint64_t id, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = id;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      return Status::Internal(std::string("epoll_ctl(ADD) failed: ") +
                              std::strerror(errno));
    }
    return Status::OK();
  }

  void UpdateWriteInterest(Conn& conn) {
    const bool want = !conn.wbuf.empty();
    if (want == conn.want_write) return;
    conn.want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = conn.id;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  /// Wakes the loop from a pool worker (completions are ready, and a
  /// worker is free for the next batch).
  void Wake() {
    const char byte = 1;
    ssize_t ignored = ::write(wake_write_, &byte, 1);
    (void)ignored;  // pipe full = a wake is already pending
  }

  // -- connection lifecycle -------------------------------------------

  void AcceptReady();
  void DestroyConn(uint64_t id);
  Conn* FindConn(uint64_t id) {
    const auto it = conns_.find(id);
    return it == conns_.end() ? nullptr : it->second.get();
  }

  // -- request path ---------------------------------------------------

  void ReadReady(Conn& conn);
  void ProcessBuffered(Conn& conn);
  void DispatchLine(Conn& conn, const std::string& line);
  Slot& NewSlot(Conn& conn);
  void CompleteInline(Conn& conn, Slot& slot, std::string text);
  void SubmitHandleLineTask(Conn& conn, Slot& slot, std::string line);
  /// Runs `task` on the pool, counted in pool_tasks_ (and its `bounds`
  /// BOUNDs in bounds_in_flight_) until it returns.
  void SubmitToPool(std::function<void()> task, size_t bounds = 0);
  /// Natural batching, run once at the end of every epoll sweep (never
  /// per line): while a worker is free, it takes its share of the
  /// outstanding BOUNDs (pending plus in flight), ceil(outstanding /
  /// workers) and at most kMaxBatch. While another batch is solving, a
  /// backlog shorter than floor(outstanding / workers) waits for more.
  void DispatchWhileWorkersFree();
  /// Moves the first `take` pending BOUNDs into one batch on the pool.
  void DispatchBoundBatch(size_t take);

  // -- reply path -----------------------------------------------------

  void ApplyCompletions();
  void FillSlot(Conn& conn, uint64_t seq, std::string text);
  void FlushSlots(Conn& conn);
  void WriteReady(Conn& conn);
  /// Close the fd once nothing more can be sent or received on it.
  void MaybeFinish(Conn& conn);

  // -- bookkeeping ----------------------------------------------------

  void NoteQueued() {
    const int64_t depth = server_.transport().queue_depth.Add(1);
    server_.transport().queue_high_water.MaxWith(depth);
  }

  bool AcceptingMore() const {
    return !listener_disarmed_ &&
           (options_.max_clients == 0 || accepted_ < options_.max_clients);
  }

  BoundServer& server_;
  const EventLoopListener::Options& options_;
  const int listener_fd_;
  const int wake_read_;
  const int wake_write_;
  std::atomic<bool>& stopping_;

  int epfd_ = -1;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = kFirstConnId;
  size_t accepted_ = 0;
  bool listener_disarmed_ = false;
  /// Re-arm time after fd/memory exhaustion paused accepting (level-
  /// triggered epoll would otherwise spin on the still-readable
  /// listener).
  std::optional<SteadyClock::time_point> accept_rearm_at_;

  std::vector<PendingBound> pending_bounds_;
  /// Pool tasks (BOUND batches, GROUPBY/LOAD/traced requests) submitted
  /// and not yet finished. The worker decrements it before it wakes the
  /// loop, so the sweep that wake starts sees the worker as free.
  std::atomic<size_t> pool_tasks_{0};
  /// BOUNDs in the batches counted in pool_tasks_, decremented first.
  std::atomic<size_t> bounds_in_flight_{0};

  std::shared_ptr<CompletionQueue> completions_;
  std::vector<uint64_t> doomed_;  ///< conns to destroy after event sweep
  /// Cached registry series (stable for the server's lifetime).
  Histogram* const queue_wait_hist_;
  Histogram* const coalesce_wait_hist_;
  ThreadPool pool_;
};

void Loop::AcceptReady() {
  while (AcceptingMore()) {
    const int client = ::accept4(listener_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client < 0) {
      const int error_code = errno;
      if (error_code == EAGAIN || error_code == EWOULDBLOCK) return;
      if (error_code == EINTR) continue;
      if (IsTransientAcceptError(error_code)) {
        // Under fd/memory exhaustion, pause accepting briefly: sessions
        // ending will free fds, and the pause keeps the level-triggered
        // loop from spinning on the un-accepted backlog.
        epoll_event ev{};
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, listener_fd_, &ev);
        listener_disarmed_ = true;
        accept_rearm_at_ = SteadyClock::now() + std::chrono::milliseconds(50);
        return;
      }
      // Persistent listener failure: stop accepting; existing
      // connections keep being served until they finish.
      epoll_event ev{};
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, listener_fd_, &ev);
      listener_disarmed_ = true;
      accept_rearm_at_.reset();
      return;
    }
    // Each reply goes out in one send; with Nagle on, a reply sent while
    // the previous one is unacknowledged waits out the client's delayed
    // ACK (tens of milliseconds).
    const int enable = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    auto conn = std::make_unique<Conn>();
    conn->fd = client;
    conn->id = next_conn_id_++;
    if (!EpollAdd(client, conn->id, EPOLLIN).ok()) {
      ::close(client);
      continue;
    }
    ++accepted_;
    server_.NoteSessionStart();
    server_.transport().open_connections.Add(1);
    conns_.emplace(conn->id, std::move(conn));
  }
  if (!AcceptingMore() && !listener_disarmed_) {
    epoll_event ev{};
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, listener_fd_, &ev);
    listener_disarmed_ = true;
  }
}

void Loop::DestroyConn(uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  epoll_event ev{};
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, it->second->fd, &ev);
  ::close(it->second->fd);
  conns_.erase(it);
  server_.transport().open_connections.Sub(1);
}

Slot& Loop::NewSlot(Conn& conn) {
  conn.slots.push_back(Slot{conn.next_seq++, false, {}});
  ++conn.outstanding;
  return conn.slots.back();
}

void Loop::CompleteInline(Conn& conn, Slot& slot, std::string text) {
  slot.done = true;
  slot.text = std::move(text);
  --conn.outstanding;
}

void Loop::SubmitToPool(std::function<void()> task, size_t bounds) {
  pool_tasks_.fetch_add(1);
  bounds_in_flight_.fetch_add(bounds);
  pool_.Submit([this, bounds, task = std::move(task)] {
    task();
    bounds_in_flight_.fetch_sub(bounds);
    pool_tasks_.fetch_sub(1);
    Wake();
  });
}

void Loop::SubmitHandleLineTask(Conn& conn, Slot& slot, std::string line) {
  NoteQueued();
  SubmitToPool([this, conn_id = conn.id, seq = slot.seq,
                line = std::move(line), session = conn.session,
                enqueued = SteadyClock::now()] {
    // HandleLine is thread-safe and does its own epoch pinning, so a
    // GROUPBY block here is single-epoch exactly like on stdio. The
    // requests counter is bumped by HandleLine itself.
    queue_wait_hist_->Observe(MicrosSince(enqueued));
    std::ostringstream out;
    server_.HandleLine(line, out, session.get());
    server_.transport().queue_depth.Sub(1);
    completions_->Push({Completion{conn_id, seq, out.str()}});
  });
}

void Loop::DispatchLine(Conn& conn, const std::string& line) {
  const std::vector<std::string> tokens = SplitWhitespace(line);
  if (tokens.empty() || tokens[0][0] == '#') return;  // comment/blank
  std::string cmd = tokens[0];
  for (char& c : cmd) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  if (cmd == "EXIT") cmd = "QUIT";

  // Requests the loop answers itself (QUIT, rejections, BOUNDs that
  // fail before the coalescer) are counted and timed here, the rest by
  // HandleLine or the BOUND batch.
  const SteadyClock::time_point start = SteadyClock::now();
  auto answer = [&](Slot& slot, std::string text) {
    CompleteInline(conn, slot, std::move(text));
    server_.NoteRequestLatency(cmd, line, MicrosSince(start));
  };
  // Admission control: true when the request in `slot` was rejected
  // (answered UNAVAILABLE).
  auto rejected = [&](Slot& slot) {
    // outstanding was already bumped for this slot, hence the ">" (the
    // request itself is not evidence of overload).
    const bool conn_full = conn.outstanding > options_.max_conn_pending;
    const bool queue_full = server_.transport().queue_depth.value() >=
                            static_cast<int64_t>(options_.max_queue);
    if (!conn_full && !queue_full) return false;
    server_.transport().overload_rejections.Increment();
    server_.NoteRequestVerb(cmd);
    answer(slot, FormatErrorReply(Status::Unavailable(
                     conn_full
                         ? "connection pipeline over max_conn_pending; retry"
                         : "solver queue over max_queue; retry")));
    return true;
  };

  if (cmd == "QUIT") {
    server_.NoteRequestVerb(cmd);
    answer(NewSlot(conn), "BYE\n");
    conn.closing = true;  // replies before this slot still flush first
    return;
  }

  if (cmd == "BOUND") {
    Slot& slot = NewSlot(conn);
    if (rejected(slot)) return;
    if (conn.session->trace.load(std::memory_order_relaxed)) {
      // Traced BOUNDs skip the coalescer: the trace context is per-
      // request state a shared batch cannot carry, and a traced client
      // has opted into per-request handling anyway. HandleLine counts
      // and times the request itself.
      SubmitHandleLineTask(conn, slot, line);
      return;
    }
    // The coalescing fast path: parse here (cheap), batch the solve at
    // the end of the sweep.
    server_.NoteRequestVerb(cmd);
    const std::shared_ptr<const ShardedBoundSolver> pinned = server_.solver();
    if (pinned == nullptr) {
      answer(slot, FormatErrorReply(Status::FailedPrecondition(
                       "no snapshot loaded (use LOAD <path>)")));
      return;
    }
    StatusOr<AggQuery> query =
        ParseBoundRequest(tokens, pinned->constraints().num_attrs());
    if (!query.ok()) {
      answer(slot, FormatErrorReply(query.status()));
      return;
    }
    NoteQueued();
    pending_bounds_.push_back(PendingBound{conn.id, slot.seq,
                                           *std::move(query), line,
                                           SteadyClock::now()});
    return;
  }

  if (cmd == "GROUPBY" || cmd == "LOAD") {
    // Solver-pool work (GROUPBY solves; LOAD builds a whole solver):
    // must not stall the loop, and counts against the admission caps.
    Slot& slot = NewSlot(conn);
    if (rejected(slot)) return;
    SubmitHandleLineTask(conn, slot, line);
    return;
  }

  // Everything else — HEALTH, STATS, the mutation verbs, SYNC, unknown
  // verbs — answers inline through the one shared dispatcher, so
  // replies and typed errors are byte-identical to stdio serving's.
  Slot& slot = NewSlot(conn);
  std::ostringstream out;
  server_.HandleLine(line, out, conn.session.get());
  CompleteInline(conn, slot, out.str());
}

void Loop::DispatchWhileWorkersFree() {
  const size_t workers = pool_.num_threads();
  while (!pending_bounds_.empty() && pool_tasks_.load() < workers) {
    const size_t in_flight = bounds_in_flight_.load();
    const size_t outstanding = pending_bounds_.size() + in_flight;
    // A batch's replies go out together and its clients answer
    // together, so taking whatever this sweep happened to read would
    // split such a group whenever its lines straddle two sweeps, and
    // the pieces would keep cycling as batches of their own. Holding a
    // short backlog while another batch solves lets the group gather:
    // batch sizes then follow the load, not each run's timing.
    if (in_flight > 0 &&
        pending_bounds_.size() < std::min(kMaxBatch, outstanding / workers)) {
      return;
    }
    DispatchBoundBatch(
        std::min(kMaxBatch, (outstanding + workers - 1) / workers));
  }
}

void Loop::DispatchBoundBatch(size_t take) {
  take = std::min(take, pending_bounds_.size());
  std::vector<PendingBound> batch(
      std::make_move_iterator(pending_bounds_.begin()),
      std::make_move_iterator(pending_bounds_.begin() + take));
  pending_bounds_.erase(pending_bounds_.begin(),
                        pending_bounds_.begin() + take);
  server_.transport().coalesce_batch_size.Observe(
      static_cast<double>(batch.size()));
  server_.transport().max_batch.MaxWith(static_cast<int64_t>(batch.size()));
  for (const PendingBound& p : batch) {
    coalesce_wait_hist_->Observe(MicrosSince(p.enqueued));
  }
  SubmitToPool([this, batch = std::move(batch)] {
    // Pin once for the whole batch: every reply it scatters is computed
    // at exactly this epoch, and BoundBatch is bit-identical to solving
    // the requests one by one.
    const std::shared_ptr<const ShardedBoundSolver> pinned = server_.solver();
    std::vector<Completion> done;
    done.reserve(batch.size());
    if (pinned == nullptr) {
      // A LOAD raced ahead of us and failed, or the server never had a
      // snapshot: same typed error the sequential path gives.
      const std::string err = FormatErrorReply(Status::FailedPrecondition(
          "no snapshot loaded (use LOAD <path>)"));
      for (const PendingBound& p : batch) {
        done.push_back(Completion{p.conn_id, p.seq, err});
      }
    } else {
      std::vector<AggQuery> queries;
      queries.reserve(batch.size());
      for (const PendingBound& p : batch) queries.push_back(p.query);
      std::vector<ShardedBoundSolver::RouteInfo> routes;
      const std::vector<StatusOr<ResultRange>> results =
          pinned->BoundBatch(queries, nullptr, &routes);
      for (size_t i = 0; i < batch.size(); ++i) {
        done.push_back(Completion{batch[i].conn_id, batch[i].seq,
                                  FormatRangeReply(results[i])});
      }
      // Per-request latency (admission to reply ready) feeds the same
      // verb histogram and slow-query log the sequential path uses,
      // routing diagnostics included.
      for (size_t i = 0; i < batch.size(); ++i) {
        server_.NoteRequestLatency("BOUND", batch[i].line,
                                   MicrosSince(batch[i].enqueued), &routes[i]);
      }
      server_.transport().queue_depth.Sub(static_cast<int64_t>(done.size()));
      completions_->Push(std::move(done));
      return;
    }
    for (const PendingBound& p : batch) {
      server_.NoteRequestLatency("BOUND", p.line, MicrosSince(p.enqueued));
    }
    server_.transport().queue_depth.Sub(static_cast<int64_t>(done.size()));
    completions_->Push(std::move(done));
  }, take);
}

void Loop::ApplyCompletions() {
  char drain[256];
  while (::read(wake_read_, drain, sizeof(drain)) > 0) {
  }
  for (Completion& c : completions_->Drain()) {
    Conn* conn = FindConn(c.conn_id);
    if (conn == nullptr) continue;  // client left before its answer
    FillSlot(*conn, c.seq, std::move(c.text));
  }
}

void Loop::FillSlot(Conn& conn, uint64_t seq, std::string text) {
  for (Slot& slot : conn.slots) {
    if (slot.seq != seq) continue;
    if (!slot.done) {
      slot.done = true;
      slot.text = std::move(text);
      --conn.outstanding;
    }
    break;
  }
  FlushSlots(conn);
}

void Loop::FlushSlots(Conn& conn) {
  while (!conn.slots.empty() && conn.slots.front().done) {
    conn.wbuf += conn.slots.front().text;
    conn.slots.pop_front();
  }
  WriteReady(conn);
}

void Loop::WriteReady(Conn& conn) {
  while (!conn.wbuf.empty()) {
    const ssize_t w = ::send(conn.fd, conn.wbuf.data(), conn.wbuf.size(),
                             MSG_NOSIGNAL);
    if (w > 0) {
      conn.wbuf.erase(0, static_cast<size_t>(w));
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer is gone mid-reply: costs exactly this connection.
    doomed_.push_back(conn.id);
    return;
  }
  UpdateWriteInterest(conn);
  MaybeFinish(conn);
}

void Loop::MaybeFinish(Conn& conn) {
  if (!conn.wbuf.empty() || !conn.slots.empty()) return;
  if (conn.discarding && !conn.eof) {
    // Every reply (the oversize ERR included) has reached the kernel:
    // half-close so the FIN trails the ERR, then keep discarding the
    // client's backlog until EOF or the budget runs out — closing with
    // unread bytes queued would RST the ERR away.
    ::shutdown(conn.fd, SHUT_WR);
    return;
  }
  if (conn.closing || conn.eof) doomed_.push_back(conn.id);
}

void Loop::ProcessBuffered(Conn& conn) {
  size_t at;
  while (!conn.closing && !conn.discarding &&
         (at = conn.rbuf.find('\n')) != std::string::npos) {
    std::string line = conn.rbuf.substr(0, at);
    conn.rbuf.erase(0, at + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    DispatchLine(conn, line);
  }
  if (!conn.closing && !conn.discarding &&
      conn.rbuf.size() > EventLoopListener::kMaxRequestLineBytes) {
    // A newline-less stream past the cap can only be abuse or a broken
    // client: one typed ERR, then the connection winds down (with a
    // bounded discard of what the client keeps sending, so the ERR
    // survives the teardown).
    Slot& slot = NewSlot(conn);
    CompleteInline(
        conn, slot,
        "ERR INVALID_ARGUMENT request line exceeds " +
            std::to_string(EventLoopListener::kMaxRequestLineBytes) +
            " bytes\n");
    conn.discarding = true;
    conn.discard_budget = 8 * EventLoopListener::kMaxRequestLineBytes;
    conn.rbuf.clear();
    conn.rbuf.shrink_to_fit();
  }
}

void Loop::ReadReady(Conn& conn) {
  char chunk[16384];
  while (true) {
    const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0) {
      doomed_.push_back(conn.id);
      return;
    }
    if (n == 0) {
      conn.eof = true;
      if (!conn.closing && !conn.discarding && !conn.rbuf.empty()) {
        // EOF with a residual un-terminated line still gets an answer —
        // exactly what ServeStream's getline path does on stdio.
        std::string line = std::move(conn.rbuf);
        conn.rbuf.clear();
        if (!line.empty() && line.back() == '\r') line.pop_back();
        DispatchLine(conn, line);
      }
      // Even mid-discard, flush pending replies (the oversize ERR) out
      // before the close; MaybeFinish dooms the conn once wbuf drains.
      FlushSlots(conn);
      MaybeFinish(conn);
      return;
    }
    if (conn.discarding) {
      const size_t got = static_cast<size_t>(n);
      conn.discard_budget -= std::min(conn.discard_budget, got);
      if (conn.discard_budget == 0) {
        doomed_.push_back(conn.id);
        return;
      }
      continue;
    }
    if (!conn.closing) conn.rbuf.append(chunk, static_cast<size_t>(n));
    ProcessBuffered(conn);
  }
  FlushSlots(conn);
}

Status Loop::Run() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) return Status::Internal("epoll_create1 failed");
  Status status = SetNonBlocking(listener_fd_);
  if (status.ok()) status = EpollAdd(listener_fd_, kListenerId, EPOLLIN);
  if (status.ok()) status = EpollAdd(wake_read_, kWakeId, EPOLLIN);
  if (!status.ok()) {
    ::close(epfd_);
    return status;
  }

  epoll_event events[256];
  while (true) {
    if (stopping_.load()) break;
    // Serve-N-clients mode is done once the last session has ended.
    if (!AcceptingMore() && !accept_rearm_at_.has_value() &&
        conns_.empty() && options_.max_clients != 0) {
      break;
    }

    // The only timer is the accept re-arm after resource exhaustion.
    int timeout_ms = -1;
    if (accept_rearm_at_.has_value()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          *accept_rearm_at_ - SteadyClock::now());
      timeout_ms = static_cast<int>(std::max<long long>(0, left.count() + 1));
    }

    const int n = ::epoll_wait(epfd_, events, 256, timeout_ms);
    if (n < 0 && errno != EINTR) {
      status = Status::Internal(std::string("epoll_wait failed: ") +
                                std::strerror(errno));
      break;
    }
    for (int i = 0; i < std::max(n, 0); ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenerId) {
        AcceptReady();
        continue;
      }
      if (id == kWakeId) {
        ApplyCompletions();
        continue;
      }
      Conn* conn = FindConn(id);
      if (conn == nullptr) continue;  // closed earlier in this sweep
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        doomed_.push_back(id);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) WriteReady(*conn);
      if (FindConn(id) == nullptr) continue;
      if ((events[i].events & (EPOLLIN | EPOLLHUP)) != 0) ReadReady(*conn);
    }
    for (const uint64_t id : doomed_) DestroyConn(id);
    doomed_.clear();
    DispatchWhileWorkersFree();
    if (accept_rearm_at_.has_value() &&
        SteadyClock::now() >= *accept_rearm_at_) {
      accept_rearm_at_.reset();
      if (AcceptingMore() || options_.max_clients == 0) {
        listener_disarmed_ = false;
        if (!EpollAdd(listener_fd_, kListenerId, EPOLLIN).ok()) {
          listener_disarmed_ = true;
        }
        AcceptReady();
      }
    }
  }

  // Dispatch any BOUNDs still waiting for a worker, then drain the pool
  // so no worker touches `server_` after Serve returns. Replies that
  // never made it out die with their connections: Shutdown disconnects
  // every in-flight session.
  while (!pending_bounds_.empty()) DispatchBoundBatch(kMaxBatch);
  pool_.Wait();
  for (auto& [id, conn] : conns_) {
    ::close(conn->fd);
    server_.transport().open_connections.Sub(1);
  }
  conns_.clear();
  ::close(epfd_);
  return status;
}

}  // namespace

StatusOr<EventLoopListener> EventLoopListener::Bind(uint16_t port,
                                                    int backlog) {
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener < 0) return Status::Internal("socket() failed");
  const int enable = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listener);
    return Status::InvalidArgument("bind() failed on port " +
                                   std::to_string(port));
  }
  if (::listen(listener, backlog) < 0) {
    ::close(listener);
    return Status::Internal("listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    ::close(listener);
    return Status::Internal("getsockname() failed");
  }
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) {
    ::close(listener);
    return Status::Internal("pipe2() failed");
  }
  return EventLoopListener(listener, ntohs(bound.sin_port), pipe_fds[0],
                           pipe_fds[1]);
}

EventLoopListener::EventLoopListener(int fd, uint16_t port, int wake_read,
                                     int wake_write)
    : fd_(fd),
      port_(port),
      wake_read_(wake_read),
      wake_write_(wake_write),
      stopping_(std::make_shared<std::atomic<bool>>(false)) {}

EventLoopListener::EventLoopListener(EventLoopListener&& other) noexcept
    : fd_(other.fd_),
      port_(other.port_),
      wake_read_(other.wake_read_),
      wake_write_(other.wake_write_),
      stopping_(other.stopping_) {
  other.fd_ = -1;
  other.wake_read_ = -1;
  other.wake_write_ = -1;
}

EventLoopListener& EventLoopListener::operator=(
    EventLoopListener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    if (wake_read_ >= 0) ::close(wake_read_);
    if (wake_write_ >= 0) ::close(wake_write_);
    fd_ = other.fd_;
    port_ = other.port_;
    wake_read_ = other.wake_read_;
    wake_write_ = other.wake_write_;
    stopping_ = other.stopping_;
    other.fd_ = -1;
    other.wake_read_ = -1;
    other.wake_write_ = -1;
  }
  return *this;
}

EventLoopListener::~EventLoopListener() {
  if (fd_ >= 0) ::close(fd_);
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

void EventLoopListener::Shutdown() {
  if (stopping_ != nullptr) stopping_->store(true);
  // Stop listening at once: a client connecting after Shutdown is
  // refused (and can fail over) instead of waiting in a backlog nobody
  // accepts from. The fd itself stays open until destruction, so a
  // racing move cannot double-close it.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  if (wake_write_ >= 0) {
    const char byte = 1;
    ssize_t ignored = ::write(wake_write_, &byte, 1);
    (void)ignored;
  }
}

Status EventLoopListener::Serve(BoundServer& server, const Options& options) {
  if (fd_ < 0) return Status::FailedPrecondition("listener is closed");
  Loop loop(server, options, fd_, wake_read_, wake_write_, *stopping_);
  return loop.Run();
}

}  // namespace pcx

#else  // !__linux__

namespace pcx {

StatusOr<EventLoopListener> EventLoopListener::Bind(uint16_t, int) {
  return Status::Unimplemented("EventLoopListener: Linux epoll only");
}
EventLoopListener::EventLoopListener(int fd, uint16_t port, int wake_read,
                                     int wake_write)
    : fd_(fd), port_(port), wake_read_(wake_read), wake_write_(wake_write) {}
EventLoopListener::EventLoopListener(EventLoopListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}
EventLoopListener& EventLoopListener::operator=(
    EventLoopListener&& other) noexcept {
  fd_ = other.fd_;
  port_ = other.port_;
  other.fd_ = -1;
  return *this;
}
EventLoopListener::~EventLoopListener() = default;
void EventLoopListener::Shutdown() {}
Status EventLoopListener::Serve(BoundServer&, const Options&) {
  return Status::Unimplemented("EventLoopListener: Linux epoll only");
}

}  // namespace pcx

#endif
