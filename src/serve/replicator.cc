#include "serve/replicator.h"

#include <vector>

#include "common/random.h"
#include "common/text.h"
#include "serve/delta_log.h"
#include "serve/snapshot.h"

namespace pcx {
namespace {

StatusOr<uint64_t> HeaderField(const std::vector<std::string>& tokens,
                               const std::string& key) {
  const std::string needle = key + "=";
  for (const std::string& t : tokens) {
    if (t.rfind(needle, 0) == 0) return ParseU64(t.substr(needle.size()));
  }
  return Status::ProtocolError("SYNC reply lacks '" + key + "='");
}

}  // namespace

ReplicaTailer::ReplicaTailer(BoundServer& server, Options options)
    : server_(server), options_(std::move(options)) {}

ReplicaTailer::~ReplicaTailer() { Stop(); }

void ReplicaTailer::Start() {
  MutexLock lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  server_.replication().replica.store(true);
  thread_ = std::thread([this] { Run(); });
}

void ReplicaTailer::Stop() {
  // Claim the thread handle under the lock — running_ flips false
  // BEFORE the join, so a concurrent Stop returns instead of joining
  // the same thread twice (which throws std::system_error). The join
  // itself happens outside the lock: the Run thread takes mu_ in
  // SleepFor and would deadlock against a join-while-held.
  std::thread claimed;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    stop_ = true;
    running_ = false;
    claimed = std::move(thread_);
    cv_.NotifyAll();
  }
  claimed.join();
}

bool ReplicaTailer::SleepFor(uint32_t ms) {
  MutexLock lock(mu_);
  cv_.WaitFor(mu_, std::chrono::milliseconds(ms),
              [this]() REQUIRES(mu_) { return stop_; });
  return !stop_;
}

StatusOr<uint64_t> ReplicaTailer::SyncOnce(LineTransport& transport,
                                           BoundServer& server) {
  const std::shared_ptr<const ShardedBoundSolver> current = server.solver();
  const std::string from =
      current != nullptr ? std::to_string(current->epoch()) : "none";
  PCX_RETURN_IF_ERROR(transport.SendLine("SYNC " + from));
  PCX_ASSIGN_OR_RETURN(const std::string header, transport.ReadLine());
  if (header.rfind("ERR ", 0) == 0) return ParseErrorReply(header);
  const std::vector<std::string> tokens = SplitWhitespace(header);
  if (tokens.empty() || tokens[0] != "SYNC") {
    return Status::ProtocolError("expected 'SYNC epoch=... base_lines=... "
                                 "records=...', got '" +
                                 header + "'");
  }
  PCX_ASSIGN_OR_RETURN(const uint64_t primary_epoch,
                       HeaderField(tokens, "epoch"));
  PCX_ASSIGN_OR_RETURN(const uint64_t base_lines,
                       HeaderField(tokens, "base_lines"));
  PCX_ASSIGN_OR_RETURN(const uint64_t num_records,
                       HeaderField(tokens, "records"));

  if (base_lines > 0) {
    // Full resync: the primary streamed a whole pcxsnap document.
    std::string text;
    for (uint64_t i = 0; i < base_lines; ++i) {
      PCX_ASSIGN_OR_RETURN(const std::string line, transport.ReadLine());
      text += line;
      text += '\n';
    }
    PCX_ASSIGN_OR_RETURN(const Snapshot snap, ParseSnapshot(text));
    PCX_RETURN_IF_ERROR(server.InstallSnapshot(snap).status());
    server.replication().snapshots_installed.Increment();
  }
  if (num_records > 0) {
    // Tail shipping: records in (our epoch, primary epoch], crc-checked
    // per line (chain links are a file property; wire records carry 0)
    // and epoch-contiguity-checked by ApplyRecords.
    const std::shared_ptr<const ShardedBoundSolver> base = server.solver();
    if (base == nullptr) {
      return Status::ProtocolError(
          "primary shipped records to an empty replica");
    }
    const size_t num_attrs = base->constraints().num_attrs();
    std::vector<DeltaRecord> records;
    records.reserve(static_cast<size_t>(num_records));
    for (uint64_t i = 0; i < num_records; ++i) {
      PCX_ASSIGN_OR_RETURN(const std::string line, transport.ReadLine());
      PCX_ASSIGN_OR_RETURN(DeltaRecord rec,
                           ParseDeltaRecordLine(line, num_attrs, nullptr));
      records.push_back(std::move(rec));
    }
    PCX_RETURN_IF_ERROR(server.ApplyRecords(records).status());
    server.replication().records_applied.Increment(num_records);
  }
  server.replication().primary_epoch.Set(static_cast<int64_t>(primary_epoch));
  server.replication().syncs.Increment();
  // The epoch gap is 0 right after a successful sync unless the primary
  // advanced while we applied.
  const std::shared_ptr<const ShardedBoundSolver> after = server.solver();
  const uint64_t local_epoch = after != nullptr ? after->epoch() : 0;
  server.replication().lag.Set(
      primary_epoch >= local_epoch
          ? static_cast<int64_t>(primary_epoch - local_epoch)
          : 0);
  return primary_epoch;
}

void ReplicaTailer::Run() {
  Rng rng(options_.jitter_seed);
  RemoteBackend::RetryPolicy backoff;
  backoff.backoff_ms = options_.reconnect_min_ms;
  backoff.max_backoff_ms = options_.reconnect_max_ms;
  std::unique_ptr<TcpClientTransport> transport;
  uint32_t backoff_ms = options_.reconnect_min_ms;
  while (true) {
    if (transport == nullptr) {
      auto connected = TcpClientTransport::Connect(options_.host,
                                                   options_.port);
      if (!connected.ok()) {
        server_.replication().sync_failures.Increment();
        // Decorrelated jitter: a fleet of replicas reconnecting to a
        // restarted primary spreads out instead of stampeding in lockstep.
        backoff_ms = NextRetryBackoffMs(backoff, backoff_ms, rng);
        if (!SleepFor(backoff_ms)) return;
        continue;
      }
      transport = std::move(*connected);
      backoff_ms = options_.reconnect_min_ms;
    }
    const StatusOr<uint64_t> synced = SyncOnce(*transport, server_);
    if (!synced.ok()) {
      server_.replication().sync_failures.Increment();
      if (synced.status().code() == StatusCode::kUnavailable ||
          synced.status().code() == StatusCode::kProtocolError) {
        // The session is gone or desynced; only a fresh connection has
        // a known reply-stream offset.
        transport.reset();
      }
      // Non-transport errors (e.g. the primary has no snapshot yet)
      // keep the session and just retry on the poll cadence.
    }
    if (!SleepFor(options_.poll_ms)) return;
  }
}

}  // namespace pcx
