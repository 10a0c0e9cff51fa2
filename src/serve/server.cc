#include "serve/server.h"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/text.h"
#include "common/trace.h"
#include "pc/serialization.h"

namespace pcx {
namespace {

std::string ToUpper(std::string s) {
  for (char& c : s) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return s;
}

/// Error text must stay a single protocol line.
std::string OneLine(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  std::replace(s.begin(), s.end(), '\r', ' ');
  return s;
}

/// In-place CRLF tolerance — the one definition of the CR rule shared
/// by every session front end (stream getline, TCP line loop, TCP EOF
/// residual), so stdio/TCP framing parity is structural here rather
/// than three hand-kept copies.
void StripTrailingCr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

StatusOr<AggFunc> ParseAgg(const std::string& token) {
  const std::string up = ToUpper(token);
  if (up == "COUNT") return AggFunc::kCount;
  if (up == "SUM") return AggFunc::kSum;
  if (up == "AVG") return AggFunc::kAvg;
  if (up == "MIN") return AggFunc::kMin;
  if (up == "MAX") return AggFunc::kMax;
  return Status::InvalidArgument("unknown aggregate '" + token +
                                 "' (want COUNT/SUM/AVG/MIN/MAX)");
}

StatusOr<size_t> ParseIndex(const std::string& token,
                            const std::string& what) {
  const auto v = ParseU64(token);
  if (!v.ok()) {
    return Status::InvalidArgument("bad " + what + " '" + token + "'");
  }
  return static_cast<size_t>(*v);
}

/// Conjoins the box literals in tokens[from..] into a WHERE predicate
/// (nullopt when there are none).
StatusOr<std::optional<Predicate>> ParseWhere(
    const std::vector<std::string>& tokens, size_t from, size_t num_attrs) {
  if (from >= tokens.size()) return std::optional<Predicate>{};
  Box where(num_attrs);
  for (size_t t = from; t < tokens.size(); ++t) {
    PCX_ASSIGN_OR_RETURN(const Box box, ParseBox(tokens[t], num_attrs));
    where.IntersectWith(box);
  }
  return std::optional<Predicate>(Predicate(std::move(where)));
}

}  // namespace

StatusOr<AggQuery> ParseBoundRequest(const std::vector<std::string>& tokens,
                                     size_t num_attrs) {
  if (tokens.size() < 3) {
    return Status::InvalidArgument(
        "usage: BOUND <COUNT|SUM|AVG|MIN|MAX> <attr> [{a:[lo,hi],...}...]");
  }
  AggQuery query;
  PCX_ASSIGN_OR_RETURN(query.agg, ParseAgg(tokens[1]));
  PCX_ASSIGN_OR_RETURN(query.attr, ParseIndex(tokens[2], "attribute index"));
  PCX_ASSIGN_OR_RETURN(query.where, ParseWhere(tokens, 3, num_attrs));
  return query;
}

StatusOr<GroupByRequest> ParseGroupByRequest(
    const std::vector<std::string>& tokens, size_t num_attrs) {
  if (tokens.size() < 5) {
    return Status::InvalidArgument(
        "usage: GROUPBY <AGG> <attr> <group_attr> <v1,v2,...> [{box}...]");
  }
  GroupByRequest request;
  PCX_ASSIGN_OR_RETURN(request.query.agg, ParseAgg(tokens[1]));
  PCX_ASSIGN_OR_RETURN(request.query.attr,
                       ParseIndex(tokens[2], "attribute index"));
  PCX_ASSIGN_OR_RETURN(request.group_attr,
                       ParseIndex(tokens[3], "group attribute"));
  {
    std::istringstream is(tokens[4]);
    std::string part;
    while (std::getline(is, part, ',')) {
      if (part.empty()) continue;
      PCX_ASSIGN_OR_RETURN(const double v, ParseNumber(part));
      request.values.push_back(v);
    }
  }
  if (request.values.empty()) {
    return Status::InvalidArgument("empty group value list '" + tokens[4] +
                                   "'");
  }
  PCX_ASSIGN_OR_RETURN(request.query.where, ParseWhere(tokens, 5, num_attrs));
  return request;
}

std::string FormatErrorReply(const Status& status) {
  // The code name travels with the message so typed clients
  // (engine/remote_backend.h) reconstruct the exact pcx::StatusCode.
  return "ERR " + std::string(StatusCodeToString(status.code())) + " " +
         OneLine(status.message()) + "\n";
}

void PrintResultRange(std::ostream& out, const char* label,
                      const ResultRange& range) {
  out << label << "lo=" << FormatNumber(range.lo)
      << " hi=" << FormatNumber(range.hi)
      << " defined=" << (range.defined ? 1 : 0)
      << " empty_possible=" << (range.empty_instance_possible ? 1 : 0)
      << "\n";
}

BoundServer::TransportStats::TransportStats(MetricsRegistry& metrics)
    : queue_depth(metrics.GetGauge(
          "pcx_queue_depth", {},
          "Requests admitted to the solver queue and not yet answered")),
      queue_high_water(metrics.GetGauge("pcx_queue_high_water", {},
                                        "Largest queue depth seen")),
      coalesce_batch_size(metrics.GetHistogram(
          "pcx_coalesce_batch_size", {},
          "Requests per dispatched coalesced BOUND batch")),
      max_batch(metrics.GetGauge("pcx_max_batch", {},
                                 "Largest coalesced batch dispatched")),
      overload_rejections(metrics.GetCounter(
          "pcx_overload_rejections_total", {},
          "Requests answered ERR UNAVAILABLE by admission control")),
      open_connections(metrics.GetGauge("pcx_open_connections", {},
                                        "Open event-loop connections")) {}

BoundServer::ReplicationStats::ReplicationStats(MetricsRegistry& m)
    : primary_epoch(m.GetGauge("pcx_replication_primary_epoch", {},
                               "Primary epoch at the last SYNC")),
      syncs(m.GetCounter("pcx_replication_syncs_total", {},
                         "Successful SYNC rounds against the primary")),
      sync_failures(m.GetCounter("pcx_replication_sync_failures_total", {},
                                 "Failed connects or SYNC rounds")),
      records_applied(m.GetCounter("pcx_replication_records_applied_total",
                                   {}, "Delta records applied by the tailer")),
      snapshots_installed(
          m.GetCounter("pcx_replication_snapshots_installed_total", {},
                       "Full snapshot resyncs installed by the tailer")),
      lag(m.GetGauge("pcx_replication_lag", {},
                     "Primary epoch minus local epoch after the last sync")) {}

BoundServer::BoundServer() : BoundServer(Options{}) {}

BoundServer::BoundServer(Options options)
    : options_(std::move(options)),
      start_(std::chrono::steady_clock::now()),
      transport_(metrics_),
      replication_(metrics_) {
  // Every solver a LOAD/APPLY constructs counts into this server's
  // registry, whatever the caller put in Options.
  options_.solver.metrics = &metrics_;
  requests_total_ = &metrics_.GetCounter("pcx_requests_total", {},
                                         "Protocol requests dispatched");
  sessions_total_ = &metrics_.GetCounter("pcx_sessions_total", {},
                                         "Sessions opened since start");
  static constexpr const char* kVerbs[kNumVerbs] = {
      "BOUND", "GROUPBY", "LOAD",    "APPEND", "RETIRE", "CHECKPOINT", "SYNC",
      "STATS", "HEALTH",  "METRICS", "TRACE",  "QUIT",   "OTHER"};
  for (size_t i = 0; i < kNumVerbs; ++i) {
    verbs_[i].verb = kVerbs[i];
    verbs_[i].count =
        &metrics_.GetCounter("pcx_requests_verb_total", {{"verb", kVerbs[i]}},
                             "Protocol requests dispatched, by verb");
    verbs_[i].latency = &metrics_.GetHistogram(
        "pcx_request_latency_us", {{"verb", kVerbs[i]}},
        "End-to-end request handling latency (microseconds)");
  }
  delta_apply_hist_ = &metrics_.GetHistogram(
      "pcx_delta_apply_latency_us", {},
      "ApplyDeltas build latency per mutation batch (microseconds)");
  if (!options_.slow_log_path.empty()) {
    slow_log_file_ = std::fopen(options_.slow_log_path.c_str(), "a");
    if (slow_log_file_ == nullptr) {
      std::fprintf(stderr,
                   "pcx_serve: cannot open slow-query log %s; "
                   "falling back to stderr\n",
                   options_.slow_log_path.c_str());
    }
  }
}

BoundServer::~BoundServer() {
  if (slow_log_file_ != nullptr) std::fclose(slow_log_file_);
}

const BoundServer::VerbSeries& BoundServer::FindVerb(
    const std::string& verb) const {
  for (const VerbSeries& v : verbs_) {
    if (verb == v.verb) return v;
  }
  return verbs_.back();  // "OTHER"
}

void BoundServer::NoteRequestVerb(const std::string& verb) {
  requests_total_->Increment();
  FindVerb(verb).count->Increment();
}

void BoundServer::NoteRequestLatency(
    const std::string& verb, const std::string& line, double us,
    const ShardedBoundSolver::RouteInfo* route) {
  FindVerb(verb).latency->Observe(us);
  MaybeLogSlowQuery(verb, line, us, route);
}

void BoundServer::MaybeLogSlowQuery(
    const std::string& verb, const std::string& line, double us,
    const ShardedBoundSolver::RouteInfo* route) {
  if (options_.slow_query_us == 0 ||
      us < static_cast<double>(options_.slow_query_us)) {
    return;
  }
  // One structured line, greppable by prefix; the request is quoted,
  // escaped, and truncated so a pathological line cannot flood the log.
  constexpr size_t kMaxLoggedLine = 512;
  std::string quoted;
  quoted.reserve(std::min(line.size(), kMaxLoggedLine) + 8);
  for (char c : line) {
    if (quoted.size() >= kMaxLoggedLine) {
      quoted += "...";
      break;
    }
    if (c == '"' || c == '\\') quoted += '\\';
    if (c == '\n' || c == '\r') c = ' ';
    quoted += c;
  }
  // Routing diagnostics ride after the quoted line (appended, so
  // prefix-matching consumers of existing records keep working).
  char route_suffix[24] = "";
  if (route != nullptr) {
    std::snprintf(route_suffix, sizeof(route_suffix), " shards=%u",
                  route->shards);
  }
  MutexLock lock(slow_log_mu_);
  std::FILE* dest = slow_log_file_ != nullptr ? slow_log_file_ : stderr;
  std::fprintf(dest,
               "pcx_slow_query us=%.1f threshold_us=%llu verb=%s line=\"%s\"%s\n",
               us, static_cast<unsigned long long>(options_.slow_query_us),
               verb.c_str(), quoted.c_str(), route_suffix);
  std::fflush(dest);
}

std::shared_ptr<const ShardedBoundSolver> BoundServer::solver() const {
  MutexLock lock(mu_);
  return solver_;
}

uint64_t BoundServer::uptime_seconds() const {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::seconds>(
                                   std::chrono::steady_clock::now() - start_)
                                   .count());
}

void BoundServer::SwapSolver(std::shared_ptr<const ShardedBoundSolver> next,
                             std::span<const DeltaRecord> records) {
  MutexLock lock(mu_);
  solver_ = std::move(next);
  if (records.empty()) {
    // A snapshot-level swap (LOAD, replica resync): the delta history
    // no longer leads to the served state, so record shipping restarts
    // from the new epoch.
    tail_.clear();
    tail_floor_ = solver_->epoch();
  } else {
    tail_.insert(tail_.end(), records.begin(), records.end());
    while (tail_.size() > kMaxTailRecords) {
      tail_floor_ = tail_.front().epoch;
      tail_.erase(tail_.begin());
    }
  }
}

StatusOr<std::shared_ptr<const ShardedBoundSolver>> BoundServer::LoadAndSwap(
    const std::string& path) {
  // mutate_mu_ serializes the whole load against other mutations and
  // keeps the journal in published order; concurrent *queries* keep
  // answering on the old epoch for the whole build — the swap itself is
  // a pointer assignment under mu_.
  MutexLock lock(mutate_mu_);
  PCX_ASSIGN_OR_RETURN(const Snapshot snap, LoadSnapshot(path));
  auto solver = std::make_shared<const ShardedBoundSolver>(snap,
                                                           options_.solver);
  // Journal before publish: if persisting the new base fails, the
  // served snapshot must not move past what the log can recover.
  if (log_ != nullptr) PCX_RETURN_IF_ERROR(log_->Reset(snap));
  SwapSolver(solver, {});
  {
    MutexLock swap_lock(mu_);
    snapshot_path_ = path;
  }
  return solver;
}

Status BoundServer::LoadSnapshotFile(const std::string& path) {
  return LoadAndSwap(path).status();
}

Status BoundServer::EnableDurableLog(const std::string& dir) {
  MutexLock lock(mutate_mu_);
  DurableLog::Recovered recovered;
  PCX_ASSIGN_OR_RETURN(std::unique_ptr<DurableLog> log,
                       DurableLog::Open(dir, &recovered));
  if (recovered.dropped_records > 0) {
    std::fprintf(stderr,
                 "pcx_serve: %s: truncated torn tail (%zu record(s) "
                 "dropped): %s\n",
                 DurableLogLogPath(dir).c_str(), recovered.dropped_records,
                 recovered.truncation_reason.c_str());
  }
  if (recovered.has_base) {
    auto base = std::make_shared<const ShardedBoundSolver>(recovered.base,
                                                           options_.solver);
    std::shared_ptr<const ShardedBoundSolver> current = base;
    if (!recovered.tail.empty()) {
      PCX_ASSIGN_OR_RETURN(current, base->ApplyDeltas(recovered.tail));
    }
    MutexLock swap_lock(mu_);
    solver_ = current;
    // The replayed tail doubles as shippable SYNC history, so a replica
    // of a restarted primary can catch up without a full resync.
    tail_ = std::move(recovered.tail);
    tail_floor_ = recovered.base.epoch;
    while (tail_.size() > kMaxTailRecords) {
      tail_floor_ = tail_.front().epoch;
      tail_.erase(tail_.begin());
    }
  } else if (solver() != nullptr) {
    // Log attached to an already-loaded server over an empty directory:
    // seed the base from the served snapshot.
    PCX_RETURN_IF_ERROR(log->Reset(solver()->ToSnapshot()));
  }
  log->set_metrics(&metrics_);
  log_ = std::move(log);
  log_enabled_.store(true);
  return Status::OK();
}

StatusOr<std::shared_ptr<const ShardedBoundSolver>>
BoundServer::InstallSnapshot(const Snapshot& snap) {
  MutexLock lock(mutate_mu_);
  auto solver = std::make_shared<const ShardedBoundSolver>(snap,
                                                           options_.solver);
  if (log_ != nullptr) PCX_RETURN_IF_ERROR(log_->Reset(snap));
  SwapSolver(solver, {});
  return solver;
}

StatusOr<std::shared_ptr<const ShardedBoundSolver>> BoundServer::ApplyRecords(
    std::span<const DeltaRecord> records) {
  MutexLock lock(mutate_mu_);
  return ApplyRecordsLocked(records);
}

StatusOr<std::shared_ptr<const ShardedBoundSolver>>
BoundServer::ApplyRecordsLocked(std::span<const DeltaRecord> records) {
  const std::shared_ptr<const ShardedBoundSolver> current = solver();
  if (current == nullptr) {
    return Status::FailedPrecondition("no snapshot loaded (use LOAD <path>)");
  }
  // Order of operations: validate + build first (a bad record must not
  // touch the journal), journal with fsync second (a crash after the
  // ack must recover to the acked epoch), publish last.
  const auto apply_start = std::chrono::steady_clock::now();
  PCX_ASSIGN_OR_RETURN(std::shared_ptr<const ShardedBoundSolver> next,
                       current->ApplyDeltas(records));
  delta_apply_hist_->Observe(MicrosSince(apply_start));
  bool checkpointed = false;
  if (log_ != nullptr && log_->initialized()) {
    for (const DeltaRecord& rec : records) {
      PCX_RETURN_IF_ERROR(log_->Append(rec));
    }
  }
  for (const DeltaRecord& rec : records) {
    checkpointed |= rec.op == DeltaOp::kCheckpoint;
  }
  SwapSolver(next, records);
  if (checkpointed && log_ != nullptr) {
    // Compact: the current state becomes the base and the journal
    // restarts empty. Runs on the primary's CHECKPOINT verb and — via
    // the shipped record — at the same epoch on logging replicas.
    PCX_RETURN_IF_ERROR(log_->Reset(next->ToSnapshot()));
  }
  return next;
}

Status BoundServer::HandleMutation(const std::string& cmd,
                                   const std::string& body,
                                   std::ostream& out) {
  MutexLock lock(mutate_mu_);
  const std::shared_ptr<const ShardedBoundSolver> current = solver();
  if (current == nullptr) {
    return Status::FailedPrecondition("no snapshot loaded (use LOAD <path>)");
  }
  DeltaRecord rec;
  rec.epoch = current->epoch() + 1;
  if (cmd == "APPEND") {
    if (body.empty()) {
      return Status::InvalidArgument(
          "usage: APPEND pred={...} values={...} freq=[lo,hi]");
    }
    rec.op = DeltaOp::kAppend;
    PCX_ASSIGN_OR_RETURN(
        rec.pc, ParsePcBody(body, current->constraints().num_attrs()));
  } else if (cmd == "RETIRE") {
    rec.op = DeltaOp::kRetire;
    const std::vector<std::string> args = SplitWhitespace(body);
    if (args.size() != 1) {
      return Status::InvalidArgument("usage: RETIRE <global-index>");
    }
    PCX_ASSIGN_OR_RETURN(const uint64_t idx, ParseU64(args[0]));
    rec.retire_index = static_cast<size_t>(idx);
  } else {
    rec.op = DeltaOp::kCheckpoint;
    if (!body.empty()) return Status::InvalidArgument("usage: CHECKPOINT");
  }
  PCX_ASSIGN_OR_RETURN(const std::shared_ptr<const ShardedBoundSolver> next,
                       ApplyRecordsLocked(std::span<const DeltaRecord>(
                           &rec, 1)));
  out << "OK epoch=" << next->epoch() << " pcs=" << next->constraints().size()
      << " shards=" << next->num_shards() << "\n";
  return Status::OK();
}

Status BoundServer::HandleSync(const std::vector<std::string>& tokens,
                               std::ostream& out) {
  if (tokens.size() != 2) {
    return Status::InvalidArgument("usage: SYNC <epoch|none>");
  }
  // One consistent read of {served snapshot, shippable tail}: the tail
  // always leads exactly to the solver published beside it.
  std::shared_ptr<const ShardedBoundSolver> current;
  std::vector<DeltaRecord> records;
  uint64_t floor = 0;
  {
    MutexLock lock(mu_);
    current = solver_;
    records = tail_;
    floor = tail_floor_;
  }
  if (current == nullptr) {
    return Status::FailedPrecondition(
        "no snapshot loaded; nothing to replicate");
  }
  const uint64_t epoch = current->epoch();
  bool have_from = false;
  uint64_t from = 0;
  if (tokens[1] != "none") {
    PCX_ASSIGN_OR_RETURN(from, ParseU64(tokens[1]));
    have_from = true;
  }
  if (have_from && from == epoch) {
    out << "SYNC epoch=" << epoch << " base_lines=0 records=0\n";
    return Status::OK();
  }
  if (have_from && from >= floor && from < epoch) {
    // The replica is within the retained tail: ship just the records in
    // (from, epoch]. Wire records carry chain=0 — the chain links files,
    // not streams; the replica validates crc + epoch contiguity.
    size_t count = 0;
    for (const DeltaRecord& r : records) count += r.epoch > from ? 1 : 0;
    out << "SYNC epoch=" << epoch << " base_lines=0 records=" << count
        << "\n";
    for (const DeltaRecord& r : records) {
      if (r.epoch > from) out << SerializeDeltaRecord(r, 0, nullptr) << "\n";
    }
    return Status::OK();
  }
  // Fresh replica, one behind the trimmed tail, or ahead of this
  // primary (a failover edge): full snapshot resync.
  const std::string text = SerializeSnapshot(current->ToSnapshot());
  const size_t lines =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
  out << "SYNC epoch=" << epoch << " base_lines=" << lines << " records=0\n"
      << text;
  return Status::OK();
}

Status BoundServer::HandleBound(
    const ShardedBoundSolver& solver, const std::vector<std::string>& tokens,
    std::ostream& out, std::optional<ShardedBoundSolver::RouteInfo>* route) {
  // The TraceSpans are no-ops (no clock reads) unless this request's
  // session turned TRACE on; route/solve stages are recorded inside
  // Bound itself.
  const StatusOr<AggQuery> query = [&] {
    TraceSpan parse_span("parse");
    return ParseBoundRequest(tokens, solver.constraints().num_attrs());
  }();
  PCX_RETURN_IF_ERROR(query.status());
  // The RouteInfo is emplaced before Bound so a post-routing failure
  // still leaves its diagnostics for the slow-query log.
  ShardedBoundSolver::RouteInfo* info =
      route != nullptr ? &route->emplace() : nullptr;
  PCX_ASSIGN_OR_RETURN(const ResultRange range, solver.Bound(*query, info));
  {
    TraceSpan serialize_span("serialize");
    PrintResultRange(out, "RANGE ", range);
  }
  return Status::OK();
}

Status BoundServer::HandleGroupBy(const ShardedBoundSolver& solver,
                                  const std::vector<std::string>& tokens,
                                  std::ostream& out) {
  PCX_ASSIGN_OR_RETURN(
      const GroupByRequest request,
      ParseGroupByRequest(tokens, solver.constraints().num_attrs()));
  PCX_ASSIGN_OR_RETURN(
      const std::vector<GroupRange> groups,
      solver.BoundGroupBy(request.query, request.group_attr, request.values));
  out << "GROUPS " << groups.size() << "\n";
  for (const GroupRange& g : groups) {
    out << "GROUP " << FormatNumber(g.group_value) << " ";
    PrintResultRange(out, "", g.range);
  }
  return Status::OK();
}

Status BoundServer::HandleStats(const ShardedBoundSolver& solver,
                                std::ostream& out) {
  const ShardedBoundSolver::ServeStats s = solver.stats();
  char imbalance[32];
  std::snprintf(imbalance, sizeof(imbalance), "%.3f",
                solver.partition().ImbalanceRatio());
  out << "STATS epoch=" << solver.epoch() << " shards=" << solver.num_shards()
      << " pcs=" << solver.constraints().size()
      << " attrs=" << solver.constraints().num_attrs()
      << " components=" << solver.partition().num_components
      << " largest_component=" << solver.partition().largest_component
      << " imbalance=" << imbalance << " queries=" << s.queries
      << " single_shard=" << s.single_shard_queries
      << " multi_shard=" << s.multi_shard_queries
      << " no_shard=" << s.no_shard_queries
      << " union_solvers=" << s.union_solvers_built
      << " num_cells=" << s.solve.num_cells
      << " sat_calls=" << s.solve.sat_calls
      << " sat_cache_hits=" << s.solve.sat_cache_hits
      << " milp_nodes=" << s.solve.milp_nodes
      << " lp_solves=" << s.solve.lp_solves
      << " lp_pivots=" << s.solve.lp_pivots
      << " queue_depth=" << transport_.queue_depth.value()
      << " queue_high_water=" << transport_.queue_high_water.value()
      << " coalesced_batches=" << transport_.coalesce_batch_size.count()
      << " coalesced_reqs="
      << static_cast<uint64_t>(transport_.coalesce_batch_size.sum())
      << " max_batch=" << transport_.max_batch.value()
      << " overload_rejects=" << transport_.overload_rejections.value();
  // Routing-index shape, appended at the end so existing
  // prefix-matching consumers keep working.
  const route::RouteIndexStats route_totals = solver.RouteIndexTotals();
  out << " route_nodes=" << route_totals.num_entries
      << " route_depth=" << route_totals.depth << "\n";
  return Status::OK();
}

void BoundServer::HandleHealth(const ShardedBoundSolver* solver,
                               std::ostream& out) {
  // HEALTH must answer even before the first LOAD: a replica that is up
  // but empty is a different operational state from one that is down,
  // and a health checker needs to tell them apart without tripping the
  // FAILED_PRECONDITION that queries get.
  out << "HEALTH loaded=" << (solver != nullptr ? 1 : 0);
  if (solver != nullptr) {
    out << " epoch=" << solver->epoch() << " shards=" << solver->num_shards()
        << " pcs=" << solver->constraints().size()
        << " attrs=" << solver->constraints().num_attrs();
  } else {
    out << " epoch=0 shards=0 pcs=0 attrs=0";
  }
  out << " uptime_s=" << uptime_seconds() << " sessions=" << sessions()
      << " requests=" << requests()
      << " open_conns=" << transport_.open_connections.value()
      << " queue_depth=" << transport_.queue_depth.value()
      << " overload_rejects=" << transport_.overload_rejections.value();
  // Durability + replication posture, appended at the end so existing
  // prefix-matching health checks keep working. `lag` is the epoch
  // distance to the primary's last report (0 when not a replica).
  uint64_t tail_records = 0;
  {
    MutexLock lock(mu_);
    tail_records = tail_.size();
  }
  const bool replica = replication_.replica.load();
  const uint64_t primary_epoch =
      static_cast<uint64_t>(replication_.primary_epoch.value());
  const uint64_t local_epoch = solver != nullptr ? solver->epoch() : 0;
  const uint64_t lag =
      replica && primary_epoch > local_epoch ? primary_epoch - local_epoch : 0;
  out << " log=" << (log_enabled_.load() ? 1 : 0)
      << " log_records=" << tail_records << " replica=" << (replica ? 1 : 0)
      << " primary_epoch=" << primary_epoch << " lag=" << lag
      << " sync_errors=" << replication_.sync_failures.value() << "\n";
}

void BoundServer::HandleMetrics(const ShardedBoundSolver* solver,
                                std::ostream& out) {
  // Scrape-time gauges: state that has an authoritative owner elsewhere
  // (the pinned solver, the process clock) is refreshed at scrape
  // instead of being double-maintained.
  metrics_.GetGauge("pcx_uptime_seconds", {}, "Process uptime")
      .Set(static_cast<int64_t>(uptime_seconds()));
  metrics_.GetGauge("pcx_loaded", {}, "1 once a snapshot is served")
      .Set(solver != nullptr ? 1 : 0);
  metrics_.GetGauge("pcx_epoch", {}, "Epoch of the served snapshot")
      .Set(solver != nullptr ? static_cast<int64_t>(solver->epoch()) : 0);
  metrics_.GetGauge("pcx_shards", {}, "Shards in the served snapshot")
      .Set(solver != nullptr ? static_cast<int64_t>(solver->num_shards()) : 0);
  metrics_
      .GetGauge("pcx_read_only", {},
                "1 when serving as a read-only replica")
      .Set(read_only_.load() ? 1 : 0);
  const std::string text = metrics_.Exposition();
  // Counted block framing (like GROUPS/SYNC): a typed client reads
  // exactly `n` lines and cannot desync on the multi-line body.
  const size_t lines =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
  out << "METRICS " << lines << "\n" << text;
}

Status BoundServer::HandleTrace(const std::vector<std::string>& tokens,
                                Session* session, std::ostream& out) {
  if (session == nullptr) {
    return Status::FailedPrecondition(
        "TRACE is per-session; this transport did not attach session state");
  }
  if (tokens.size() != 2) {
    return Status::InvalidArgument("usage: TRACE ON|OFF");
  }
  const std::string arg = ToUpper(tokens[1]);
  if (arg != "ON" && arg != "OFF") {
    return Status::InvalidArgument("usage: TRACE ON|OFF");
  }
  const bool on = arg == "ON";
  session->trace.store(on, std::memory_order_relaxed);
  out << "OK trace=" << (on ? 1 : 0) << "\n";
  return Status::OK();
}

bool BoundServer::DispatchLine(
    const std::string& cmd, const std::vector<std::string>& tokens,
    const std::string& line, std::ostream& out, Session* session,
    std::optional<ShardedBoundSolver::RouteInfo>* route) {
  if (cmd == "QUIT" || cmd == "EXIT") {
    out << "BYE\n";
    return false;
  }

  // Pin the snapshot once per request: everything below runs against
  // this one immutable solver, so a concurrent LOAD can never tear a
  // reply across epochs.
  const std::shared_ptr<const ShardedBoundSolver> pinned = solver();

  if (cmd == "HEALTH") {
    HandleHealth(pinned.get(), out);
    return true;
  }
  if (cmd == "METRICS") {
    HandleMetrics(pinned.get(), out);
    return true;
  }

  Status status = Status::OK();
  if (cmd == "TRACE") {
    status = HandleTrace(tokens, session, out);
    if (!status.ok()) out << FormatErrorReply(status);
    return true;
  }
  if (cmd == "LOAD" || cmd == "APPEND" || cmd == "RETIRE" ||
      cmd == "CHECKPOINT") {
    if (read_only_.load()) {
      status = Status::FailedPrecondition(
          "server is a read-only replica (send mutations to the primary)");
      out << FormatErrorReply(status);
      return true;
    }
  }
  if (cmd == "APPEND" || cmd == "RETIRE" || cmd == "CHECKPOINT") {
    // The body is everything after the verb in the *raw* line: an
    // APPEND payload is three whitespace-separated fields, so token
    // re-joining would be lossy.
    const size_t start = line.find_first_not_of(" \t");
    const size_t space = line.find_first_of(" \t", start);
    const std::string body =
        space == std::string::npos ? "" : TrimWhitespace(line.substr(space));
    status = HandleMutation(cmd, body, out);
    if (!status.ok()) out << FormatErrorReply(status);
    return true;
  }
  if (cmd == "SYNC") {
    status = HandleSync(tokens, out);
    if (!status.ok()) out << FormatErrorReply(status);
    return true;
  }
  if (cmd == "LOAD") {
    if (tokens.size() != 2) {
      status = Status::InvalidArgument("usage: LOAD <snapshot-path>");
    } else {
      const StatusOr<std::shared_ptr<const ShardedBoundSolver>> loaded =
          LoadAndSwap(tokens[1]);
      status = loaded.status();
      if (status.ok()) {
        // Reply from the solver this LOAD installed, not a re-read of
        // the shared slot — a racing LOAD must not leak its epoch into
        // this session's OK line.
        out << "OK epoch=" << (*loaded)->epoch()
            << " shards=" << (*loaded)->num_shards()
            << " pcs=" << (*loaded)->constraints().size()
            << " attrs=" << (*loaded)->constraints().num_attrs() << "\n";
      }
    }
  } else if (cmd == "BOUND" || cmd == "GROUPBY" || cmd == "STATS") {
    if (pinned == nullptr) {
      status =
          Status::FailedPrecondition("no snapshot loaded (use LOAD <path>)");
    } else if (cmd == "BOUND") {
      status = HandleBound(*pinned, tokens, out, route);
    } else if (cmd == "GROUPBY") {
      status = HandleGroupBy(*pinned, tokens, out);
    } else {
      status = HandleStats(*pinned, out);
    }
  } else {
    status = Status::InvalidArgument(
        "unknown command '" + tokens[0] +
        "' (want LOAD/BOUND/GROUPBY/APPEND/RETIRE/CHECKPOINT/SYNC/STATS/"
        "HEALTH/METRICS/TRACE/QUIT)");
  }
  if (!status.ok()) out << FormatErrorReply(status);
  return true;
}

bool BoundServer::HandleLine(const std::string& line, std::ostream& out,
                             Session* session) {
  const std::vector<std::string> tokens = SplitWhitespace(line);
  if (tokens.empty() || tokens[0][0] == '#') return true;  // comment/blank
  const std::string cmd = ToUpper(tokens[0]);
  NoteRequestVerb(cmd == "EXIT" ? "QUIT" : cmd);

  // Tracing covers the dispatch only (the reply is already written when
  // the comment is appended); TRACE itself is never traced, so "TRACE
  // ON" output starts at the next request.
  const bool traced = session != nullptr &&
                      session->trace.load(std::memory_order_relaxed) &&
                      cmd != "TRACE";
  const auto start = std::chrono::steady_clock::now();
  std::optional<ShardedBoundSolver::RouteInfo> route;
  bool keep_going;
  if (traced) {
    TraceContext ctx;
    ScopedTrace scoped(&ctx);
    keep_going = DispatchLine(cmd, tokens, line, out, session, &route);
    out << ctx.FormatComment();
  } else {
    keep_going = DispatchLine(cmd, tokens, line, out, session, &route);
  }
  NoteRequestLatency(cmd == "EXIT" ? "QUIT" : cmd, line, MicrosSince(start),
                     route.has_value() ? &*route : nullptr);
  return keep_going;
}

void BoundServer::ServeStream(std::istream& in, std::ostream& out) {
  NoteSessionStart();
  Session session;
  std::string line;
  while (std::getline(in, line)) {
    StripTrailingCr(line);
    const bool keep_going = HandleLine(line, out, &session);
    out.flush();
    if (!keep_going) return;
  }
}

}  // namespace pcx
