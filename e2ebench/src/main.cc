// e2e_bench — the layered end-to-end benchmark of pcx (see README.md).
//
//   e2e_bench --workload fanin|overlap|mutate --seed N --seconds S
//             --trace 0|1 --out-dir DIR
//
// Generates the workload's inputs from the seed, runs the served
// workloads against the shipped pcx_serve (--event-loop) and overlap
// in-process through Engine::Open("local:..."), checks every answer,
// and prints one metric per line followed by a JSON result as the last
// stdout line. --trace 1 instead reports the per-layer split from an
// in-process replay (spans written to DIR/traces).

#include <poll.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <csignal>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "inputs.h"
#include "layers.h"
#include "measure.h"
#include "process.h"
#include "wire.h"

namespace e2e {
namespace {

// The timed phase is cut into this many segments. The write probe's
// cycles and the extra set-ups run between them, so every metric
// samples the whole run. On a shared machine the speed moves from one
// second to the next (RETIRE's cost flips between about 21 and 32 ms),
// and a probe run in a few stretches catches a few speeds: over ten
// overlap seeds its retire_p50_us spread 28% with 8 segments.
constexpr int kSegments = 16;
// pcx_serve starts per served run: one before the timed phase, the
// rest spread evenly between its segments; setup_s is their median.
constexpr int kServedSetups = 4;
// Engine::Open calls per overlap run, timed in groups: one open takes
// well under a millisecond, so setup_s is the median over the groups
// of a group's time per open.
constexpr int kOverlapOpenGroups = 21;
constexpr int kOverlapOpensPerGroup = 20;
// fanin: 4 connections x 16 BOUNDs in flight, one client thread.
constexpr size_t kFaninConnections = 4;
constexpr size_t kFaninDepth = 16;
// Untimed warm-up cycles of mutate (each is APPEND, RETIRE, BOUND).
constexpr size_t kMutateWarmupCycles = 8;
// The write probe of the other workloads (see WriteProbe): warm-up and
// timed cycles (each is APPEND, RETIRE), the latter split over the
// segments; 192 leave 38 samples beyond the p80 tail.
constexpr size_t kProbeWarmupCycles = 4;
constexpr size_t kProbeCycles = 192;
static_assert(kProbeCycles % kSegments == 0);
// A reply later than this counts as missing and ends the run.
constexpr int kReplyTimeoutMs = 30000;
// A pcx_serve of 20k constraints builds in a few seconds; a minute
// means it is stuck.
constexpr double kStartTimeoutS = 60.0;

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / percentile, printed, not in JSON
};

struct Result {
  std::vector<Metric> metrics;
  size_t attempted = 0;
  size_t failed = 0;
};

/// Latencies by operation type (indexed by OpKind, never pooled), the
/// time they were measured over, and answer counts. The timed stretches
/// of successive closed loops add up; the pauses between them are left
/// out.
struct Tally {
  std::array<std::vector<double>, 3> us;
  double elapsed_us = 0.0;  ///< timed time so far
  size_t attempted = 0;
  size_t correct = 0;

  const std::vector<double>& Latencies(OpKind kind) const {
    return us[static_cast<size_t>(kind)];
  }
};

/// The epoch and constraint count a mutation reply must name.
struct Expect {
  uint64_t epoch = 0;
  uint64_t pcs = 0;
};

std::string SelfBinary() {
  std::error_code ec;
  return std::filesystem::read_symlink("/proc/self/exe", ec).string();
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::exit(1);
}

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

std::map<std::string, double> Fields(const std::string& line) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : ParseReply(line).fields) {
    out[key] = std::strtod(value.c_str(), nullptr);
  }
  return out;
}

bool CheckReply(const Op& op, const std::string& reply, Expect* state) {
  switch (op.kind) {
    case OpKind::kRead:
      return CheckRead(reply, op.expect);
    case OpKind::kAppend:
      return CheckMutation(reply, ++state->epoch, state->pcs + 1);
    case OpKind::kRetire:
      return CheckMutation(reply, ++state->epoch, state->pcs);
  }
  return false;
}

// Closed loop: each connection keeps up to `depth` requests in flight
// and sends the next panel op as soon as a reply arrives. Requests sent
// before `stop` are timed. The pipeline stays full until the last of
// them is answered, so none is timed while the load drains; then the
// rest are drained, checked but untimed. At most `max_ops` requests
// are sent (0 = no cap).
void RunClosedLoop(const std::vector<Connection*>& conns, size_t depth,
                   const std::vector<const Op*>& panel, size_t* cursor,
                   Clock::time_point stop, size_t max_ops, Expect* state,
                   Tally* tally) {
  struct Pending {
    const Op* op;
    Clock::time_point sent;
    bool timed;
  };
  std::vector<std::deque<Pending>> inflight(conns.size());
  std::vector<bool> alive(conns.size(), true);
  size_t issued = 0;
  size_t timed_outstanding = 0;
  const Clock::time_point origin = Clock::now();
  Clock::time_point last = origin;
  auto fill = [&](size_t c) {
    while (alive[c] && inflight[c].size() < depth &&
           (max_ops == 0 || issued < max_ops)) {
      const Clock::time_point sent = Clock::now();
      const bool timed = sent < stop;
      if (!timed && timed_outstanding == 0) return;
      const Op* op = panel[(*cursor)++ % panel.size()];
      ++issued;
      if (!conns[c]->Send(op->line)) {
        ++tally->attempted;
        alive[c] = false;
        return;
      }
      inflight[c].push_back({op, sent, timed});
      timed_outstanding += timed ? 1 : 0;
    }
  };
  for (size_t c = 0; c < conns.size(); ++c) fill(c);

  std::vector<pollfd> fds(conns.size());
  std::vector<std::string> lines;
  while (true) {
    size_t outstanding = 0;
    for (size_t c = 0; c < conns.size(); ++c) {
      outstanding += inflight[c].size();
      fds[c] = {conns[c]->fd(), static_cast<short>(alive[c] ? POLLIN : 0), 0};
    }
    if (outstanding == 0) break;
    const int ready =
        poll(fds.data(), static_cast<nfds_t>(fds.size()), kReplyTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      std::fprintf(stderr, "e2e_bench: %zu replies missing after %d ms\n",
                   outstanding, kReplyTimeoutMs);
      tally->attempted += outstanding;
      break;
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      if (fds[c].revents == 0) continue;
      lines.clear();
      const bool open = conns[c]->ReadAvailable(&lines);
      const Clock::time_point now = Clock::now();
      for (const std::string& line : lines) {
        if (inflight[c].empty()) break;
        const Pending p = inflight[c].front();
        inflight[c].pop_front();
        ++tally->attempted;
        if (CheckReply(*p.op, line, state)) {
          ++tally->correct;
        } else {
          std::fprintf(stderr, "e2e_bench: wrong reply to '%.60s': '%.120s'\n",
                       p.op->line.c_str(), line.c_str());
        }
        if (!p.timed) continue;
        --timed_outstanding;
        tally->us[static_cast<size_t>(p.op->kind)].push_back(
            MicrosBetween(p.sent, now));
        last = now;
      }
      if (!open) {
        tally->attempted += inflight[c].size();
        for (const Pending& p : inflight[c]) timed_outstanding -= p.timed;
        inflight[c].clear();
        alive[c] = false;
        continue;
      }
      fill(c);
    }
  }
  tally->elapsed_us += MicrosBetween(origin, last);
}

/// Starts pcx_serve (--event-loop) on the snapshot of `in`; a durable
/// one (`log_dir` set) gets tmpfs flush semantics (src/tmpfs_sync.cc).
Served Serve(const Inputs& in, const std::string& log_dir) {
  std::vector<std::string> args = {
      E2E_PCX_SERVE_PATH,
      "--snapshot=" + in.snapshot_path,
      "--port=0",
      "--event-loop",
      "--serve-threads=" + std::to_string(kPoolWidth),
      "--threads=" + std::to_string(kPoolWidth)};
  std::vector<std::string> env;
  if (!log_dir.empty()) {
    args.push_back("--log-dir=" + log_dir);
    env.push_back(std::string("LD_PRELOAD=") + E2E_TMPFS_SYNC_PATH);
  }
  std::string error;
  Served served = StartServer(args, env, kStartTimeoutS, &error);
  if (served.process == nullptr) Fail("pcx_serve did not start: " + error);
  return served;
}

/// A started pcx_serve and the benchmark's connections to it, replaying
/// one panel in a closed loop; successive runs continue the panel.
class Client {
 public:
  Client(Served served, size_t connections, size_t depth,
         std::vector<const Op*> panel, Expect state)
      : served_(std::move(served)),
        depth_(depth),
        panel_(std::move(panel)),
        state_(state) {
    for (size_t c = 0; c < connections; ++c) {
      std::string error;
      owned_.push_back(Connection::Open(served_.port, &error));
      if (owned_.back() == nullptr) Fail("connect failed: " + error);
      conns_.push_back(owned_.back().get());
    }
  }

  /// Runs until `seconds` pass or `max_ops` are issued (0 = no cap).
  void Run(double seconds, size_t max_ops, Tally* tally) {
    RunClosedLoop(conns_, depth_, panel_, &cursor_, After(seconds), max_ops,
                  &state_, tally);
  }

  /// The server's STATS counters.
  std::map<std::string, double> Stats() {
    std::string line;
    if (!conns_[0]->Call("STATS", &line, 10.0)) return {};
    return Fields(line);
  }

  const Served& served() const { return served_; }

 private:
  Served served_;
  std::vector<std::unique_ptr<Connection>> owned_;
  std::vector<Connection*> conns_;
  size_t depth_;
  std::vector<const Op*> panel_;
  size_t cursor_ = 0;
  Expect state_;
};

std::vector<const Op*> Select(const Inputs& in, bool writes_only) {
  std::vector<const Op*> out;
  for (const Op& op : in.panel) {
    if (!writes_only || op.kind != OpKind::kRead) out.push_back(&op);
  }
  return out;
}

/// The APPEND/RETIRE cycle of mutate against a 2k-PC durable server of
/// its own, run between the timed segments of fanin and overlap. Every
/// workload must report every end-to-end metric, each measured and
/// never 0, and neither workload has writes of its own: overlap's
/// engine takes none, and a RETIRE on fanin's 20k set spends over a
/// second in ApplyDeltas, which would stall and cool the reads it
/// measures. So their append/retire metrics repeat mutate's on the
/// same inputs.
class WriteProbe {
 public:
  WriteProbe(uint64_t seed, const std::string& dir)
      : inputs_(Prepare(seed, dir)),
        client_(Serve(inputs_, dir + "/log"), 1, 1, Select(inputs_, true),
                Expect{inputs_.epoch, inputs_.num_pcs}) {
    client_.Run(3600.0, 2 * kProbeWarmupCycles, &warmup_);
  }

  void Cycles(size_t n) { client_.Run(3600.0, 2 * n, &timed_); }

  const Tally& warmup() const { return warmup_; }
  const Tally& timed() const { return timed_; }

 private:
  static Inputs Prepare(uint64_t seed, const std::string& dir) {
    std::filesystem::create_directories(dir);
    return Generate("mutate", seed, dir);
  }

  Inputs inputs_;
  Client client_;
  Tally warmup_, timed_;
};

/// One served run: `setups` pcx_serve starts (the first serves; the
/// others are measured between segments and stopped at once), an
/// untimed warm-up pass, then `segments` timed segments of the closed
/// loop over `seconds` in all, with `probe` cycles after each.
struct ServedRun {
  std::vector<double> setup_s;
  double rss_mb = 0.0;
  Tally warmup;
  Tally timed;
  std::map<std::string, double> stats_before, stats_after;
};

ServedRun RunServed(const Inputs& in, const std::string& dir, int setups,
                    int segments, double seconds, WriteProbe* probe) {
  ServedRun run;
  const bool mutate = in.workload == "mutate";
  const bool fanin = in.workload == "fanin";
  auto log_dir = [&](int i) {
    return mutate ? dir + "/log" + std::to_string(i) : std::string();
  };
  const std::vector<const Op*> panel = Select(in, false);
  Client client(Serve(in, log_dir(0)), fanin ? kFaninConnections : 1,
                fanin ? kFaninDepth : 1, panel, Expect{in.epoch, in.num_pcs});
  run.setup_s.push_back(client.served().setup_s);
  client.Run(3600.0, mutate ? 3 * kMutateWarmupCycles : panel.size(),
             &run.warmup);
  run.stats_before = client.Stats();
  for (int s = 0; s < segments; ++s) {
    client.Run(seconds / segments, 0, &run.timed);
    if (probe != nullptr) probe->Cycles(kProbeCycles / segments);
    const int started = static_cast<int>(run.setup_s.size());
    if (started < setups && (s + 1) % (segments / setups) == 0) {
      run.setup_s.push_back(Serve(in, log_dir(started)).setup_s);
    }
  }
  run.stats_after = client.Stats();
  run.rss_mb = client.served().process->PeakRssMb();
  return run;
}

/// The overlap workload's serving process: this binary in
/// "overlap-serve" mode, so peak_rss_mb is the engine's alone. It opens
/// the engine (see kOverlapOpenGroups) and runs one untimed pass, then
/// runs the closed loop of reports in `segments` segments over
/// `seconds` in all, with `probe` cycles after each.
std::map<std::string, double> RunOverlap(const Inputs& in, double seconds,
                                         int segments, WriteProbe* probe) {
  std::string error;
  auto child = Child::Spawn({SelfBinary(), "overlap-serve", in.pcset_path,
                             in.int_attrs, in.reports_path,
                             std::to_string(in.num_attrs)},
                            {}, &error);
  if (child == nullptr) Fail("overlap-serve did not start: " + error);
  std::string line;
  if (!child->ReadLine(&line, kStartTimeoutS) || line != "READY") {
    Fail("overlap-serve did not get ready");
  }
  for (int s = 0; s < segments; ++s) {
    if (!child->WriteLine("RUN " + std::to_string(seconds / segments)) ||
        !child->ReadLine(&line, seconds + kStartTimeoutS) || line != "DONE") {
      Fail("overlap-serve failed a segment");
    }
    if (probe != nullptr) probe->Cycles(kProbeCycles / segments);
  }
  if (!child->WriteLine("END") || !child->ReadLine(&line, kStartTimeoutS) ||
      !child->Wait(kStartTimeoutS)) {
    Fail("overlap-serve failed");
  }
  return Fields(line);
}

std::string Describe(const Latency& l) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "n=%zu tail=p%g beyond=%zu%s", l.n,
                l.tail_pct, l.beyond,
                l.tail_trusted() ? "" : " (too few beyond the tail)");
  return buf;
}

void AddLatency(Result* r, const std::string& prefix, const Latency& l) {
  if (!l.tail_trusted()) {
    std::fprintf(stderr,
                 "e2e_bench: %s_tail_us has %zu samples beyond p%g; it needs "
                 "%zu, so run longer\n",
                 prefix.c_str(), l.beyond, l.tail_pct, kMinBeyondTail);
  }
  r->metrics.push_back({prefix + "_p50_us", l.p50, "us", Describe(l)});
  r->metrics.push_back({prefix + "_tail_us", l.tail, "us", Describe(l)});
}

Result EndToEnd(const Flags& f, const Inputs& in, const std::string& dir) {
  Result r;
  std::optional<WriteProbe> probe;
  if (in.workload != "mutate") probe.emplace(f.seed, dir + "/probe");
  WriteProbe* const probe_ptr = probe ? &*probe : nullptr;
  Latency append, retire;
  size_t attempted = 0, correct = 0;
  auto count = [&](const Tally& t) {
    attempted += t.attempted;
    correct += t.correct;
  };
  const double tail_pct = TailPercentile(in.workload);
  if (in.workload == "overlap") {
    auto o = RunOverlap(in, f.seconds, kSegments, probe_ptr);
    r.metrics.push_back(
        {"setup_s", o["setup_s"], "s",
         "median of " + std::to_string(kOverlapOpenGroups) + " groups of " +
             std::to_string(kOverlapOpensPerGroup) + " opens"});
    r.metrics.push_back({"peak_rss_mb", o["rss_mb"], "MB", ""});
    Latency read;
    read.n = static_cast<size_t>(o["n"]);
    read.p50 = o["p50_us"];
    read.tail = o["tail_us"];
    read.tail_pct = tail_pct;
    read.beyond = SamplesBeyond(read.n, tail_pct);
    AddLatency(&r, "read", read);
    const std::string note = Describe(read) + " (reports)";
    r.metrics.push_back({"read_qps", o["qps"], "1/s", note});
    attempted += static_cast<size_t>(o["attempted"]);
    correct += static_cast<size_t>(o["correct"]);
  } else {
    ServedRun s = RunServed(in, dir, kServedSetups, kSegments, f.seconds,
                            probe_ptr);
    r.metrics.push_back({"setup_s", Median(s.setup_s), "s",
                         "median of " + std::to_string(s.setup_s.size())});
    r.metrics.push_back({"peak_rss_mb", s.rss_mb, "MB", ""});
    const Latency read = Summarize(s.timed.Latencies(OpKind::kRead), tail_pct);
    AddLatency(&r, "read", read);
    r.metrics.push_back(
        {"read_qps", Rate(read.n, s.timed.elapsed_us), "1/s", Describe(read)});
    append = Summarize(s.timed.Latencies(OpKind::kAppend), tail_pct);
    retire = Summarize(s.timed.Latencies(OpKind::kRetire), tail_pct);
    count(s.warmup);
    count(s.timed);
  }
  if (probe) {
    // The probe is mutate's cycle, so it takes mutate's tail.
    const double probe_pct = TailPercentile("mutate");
    append = Summarize(probe->timed().Latencies(OpKind::kAppend), probe_pct);
    retire = Summarize(probe->timed().Latencies(OpKind::kRetire), probe_pct);
    count(probe->warmup());
    count(probe->timed());
  }
  AddLatency(&r, "append", append);
  AddLatency(&r, "retire", retire);
  r.metrics.push_back({"ok_ratio",
                       attempted == 0 ? 0.0
                                      : static_cast<double>(correct) /
                                            static_cast<double>(attempted),
                       "ratio", std::to_string(attempted) + " attempted"});
  r.attempted = attempted;
  r.failed = attempted - correct;
  return r;
}

// Per-layer metrics in report order, with units.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"snapshot.load_ms", "ms"},
    {"sharded_solver.build_ms", "ms"},
    {"bound_solver.build_ms", "ms"},
    {"server.parse_us", "us"},
    {"server.handle_us", "us"},
    {"server.handle_tail_us", "us"},
    {"server.serialize_us", "us"},
    {"event_loop.overhead_us", "us"},
    {"event_loop.batch_avg", "count"},
    {"event_loop.batches", "count"},
    {"event_loop.rejects", "count"},
    {"event_loop.queue_high_water", "count"},
    {"route.mask_us", "us"},
    {"route.fanout_avg", "count"},
    {"route.multi_shard_share", "ratio"},
    {"sharded_solver.bound_us", "us"},
    {"sharded_solver.bound_tail_us", "us"},
    {"sharded_solver.batch_us_per_query", "us"},
    {"sharded_solver.union_built", "count"},
    {"sharded_solver.append_us", "us"},
    {"sharded_solver.retire_us", "us"},
    {"delta_log.append_us", "us"},
    {"delta_log.bytes_per_record", "bytes"},
    {"bound_solver.bound_us", "us"},
    {"bound_solver.bound_tail_us", "us"},
    {"bound_solver.fast_path_share", "ratio"},
    {"bound_solver.cells_per_query", "count"},
    {"cell_decomposition.us", "us"},
    {"cell_decomposition.nodes_visited", "count"},
    {"sat.calls_per_query", "count"},
    {"sat.cache_hit_ratio", "ratio"},
    {"milp.self_us", "us"},
    {"milp.nodes_per_query", "count"},
    {"milp.lp_solves_per_query", "count"},
    {"milp.lp_pivots_per_query", "count"},
    {"trace.overhead_ratio", "ratio"},
};

Result Traced(const Flags& f, const Inputs& in, const std::string& dir) {
  Result r;
  std::map<std::string, double> v;
  size_t attempted = 0, correct = 0;
  // Served workloads: half the time serves (for the event-loop
  // counters and overhead), half replays. overlap has no transport.
  double replay_seconds = f.seconds;
  double read_p50_us = 0.0;
  if (in.workload != "overlap") {
    replay_seconds = f.seconds / 2.0;
    ServedRun s = RunServed(in, dir, 1, 1, replay_seconds, nullptr);
    read_p50_us = Median(s.timed.Latencies(OpKind::kRead));
    auto delta = [&](const char* key) {
      return s.stats_after[key] - s.stats_before[key];
    };
    v["event_loop.batches"] = delta("coalesced_batches");
    v["event_loop.batch_avg"] =
        v["event_loop.batches"] > 0.0
            ? delta("coalesced_reqs") / v["event_loop.batches"]
            : 0.0;
    v["event_loop.rejects"] = delta("overload_rejects");
    v["event_loop.queue_high_water"] = s.stats_after["queue_high_water"];
    attempted += s.warmup.attempted + s.timed.attempted;
    correct += s.warmup.correct + s.timed.correct;
  }

  Tracer tracer(true);
  const LayerMetrics layers =
      ReplayLayers(in, dir + "/replay-log", replay_seconds, tracer);
  for (const auto& [name, value] : layers.values) v[name] = value;
  if (in.workload != "overlap") {
    v["event_loop.overhead_us"] = read_p50_us - v["server.handle_us"];
  }

  const std::string trace_dir = f.out_dir + "/traces";
  std::filesystem::create_directories(trace_dir);
  const std::string trace_path = trace_dir + "/" + in.workload + "-seed" +
                                 std::to_string(f.seed) + ".spans.tsv";
  if (!tracer.WriteTsv(trace_path)) Fail("cannot write " + trace_path);
  std::fprintf(stderr, "e2e_bench: %zu spans written to %s\n",
               tracer.spans().size(), trace_path.c_str());

  for (const auto& [name, unit] : kLayerMetrics) {
    r.metrics.push_back({name, v[name], unit, ""});
  }
  r.attempted = attempted + layers.attempted;
  r.failed = attempted - correct + layers.failed;
  return r;
}

std::string Number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void Print(Result r) {
  for (Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "e2e_bench: %s is not finite\n", m.name.c_str());
      m.value = 0.0;
      ++r.failed;
    }
    std::printf("%-36s %16.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// overlap-serve PCSET INT_ATTRS REPORTS NUM_ATTRS: opens the engine
// kOverlapOpenGroups x kOverlapOpensPerGroup times (set-up) and runs one
// untimed pass over the reports, then prints READY. Each "RUN <seconds>" on stdin runs the
// closed loop of reports that long and prints DONE; "END" prints one
// "OK key=value ..." line of results and exits.
int OverlapServe(int argc, char** argv) {
  if (argc != 6) Fail("usage: overlap-serve PCSET INT REPORTS ATTRS");
  const std::string uri = std::string("local:") + argv[2] +
                          (argv[3][0] != '\0' ? std::string("?int=") + argv[3]
                                              : std::string());
  const size_t num_attrs = std::strtoul(argv[5], nullptr, 10);

  std::vector<double> setup_s;
  std::optional<pcx::Engine> engine;
  for (int g = 0; g < kOverlapOpenGroups; ++g) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kOverlapOpensPerGroup; ++i) {
      auto opened = pcx::Engine::Open(uri);
      if (!opened.ok()) Fail("Engine::Open: " + opened.status().ToString());
      engine = std::move(*opened);
    }
    setup_s.push_back(MicrosBetween(t0, Clock::now()) / 1e6 /
                      kOverlapOpensPerGroup);
  }
  std::vector<Report> reports;
  std::string error;
  if (!LoadReports(argv[4], num_attrs, &reports, &error)) Fail(error);
  std::vector<std::array<pcx::AggQuery, kReportSize>> queries;
  for (const Report& report : reports) {
    std::array<pcx::AggQuery, kReportSize> q;
    for (size_t j = 0; j < kReportSize; ++j) {
      q[j] = pcx::AggQuery{kReportAggs[j], kAggAttr, report.where};
    }
    queries.push_back(std::move(q));
  }

  size_t attempted = 0, correct = 0;
  std::vector<double> latencies;
  double elapsed_us = 0.0;  // the segments' timed time
  // One report; its latency covers the five bounds, not the check.
  auto run = [&](size_t i, bool timed) {
    std::array<std::optional<pcx::StatusOr<pcx::ResultRange>>, kReportSize>
        got;
    const Clock::time_point t0 = Clock::now();
    for (size_t j = 0; j < kReportSize; ++j) {
      got[j].emplace(engine->Bound(queries[i][j]));
    }
    if (timed) latencies.push_back(MicrosBetween(t0, Clock::now()));
    bool ok = true;
    for (size_t j = 0; j < kReportSize; ++j) {
      ok = ok && got[j]->ok() &&
           Encloses(**got[j], kReportAggs[j], reports[i].truth[j]);
    }
    ++attempted;
    correct += ok ? 1 : 0;
  };
  for (size_t i = 0; i < reports.size(); ++i) run(i, false);
  std::printf("READY\n");
  std::fflush(stdout);

  size_t next = 0;
  std::string command;
  while (std::getline(std::cin, command) && command.rfind("RUN ", 0) == 0) {
    const Clock::time_point origin = Clock::now();
    const Clock::time_point stop =
        After(std::strtod(command.c_str() + 4, nullptr));
    while (Clock::now() < stop) run(next++ % reports.size(), true);
    elapsed_us += MicrosBetween(origin, Clock::now());
    std::printf("DONE\n");
    std::fflush(stdout);
  }
  if (command != "END") Fail("overlap-serve: expected END, got '" + command + "'");

  double rss_kb = 0.0;
  {
    std::FILE* status = std::fopen("/proc/self/status", "r");
    char key[64];
    double value = 0.0;
    while (status != nullptr && std::fscanf(status, "%63s %lf", key, &value) >= 1) {
      if (std::string(key) == "VmHWM:") rss_kb = value;
      std::fscanf(status, "%*[^\n]");
    }
    if (status != nullptr) std::fclose(status);
  }
  const Latency l = Summarize(latencies, TailPercentile("overlap"));
  std::printf(
      "OK setup_s=%s rss_mb=%s p50_us=%s tail_us=%s n=%zu qps=%s "
      "attempted=%zu correct=%zu\n",
      Number(Median(setup_s)).c_str(), Number(rss_kb / 1024.0).c_str(),
      Number(l.p50).c_str(), Number(l.tail).c_str(), l.n,
      Number(Rate(l.n, elapsed_us)).c_str(), attempted, correct);
  return 0;
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      f.workload = value;
    } else if (key == "--seed") {
      f.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      f.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = true;
    } else if (key == "--trace") {
      f.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--out-dir") {
      f.out_dir = value;
    } else {
      Fail("unknown flag " + key);
    }
  }
  if (argc % 2 != 1 || !IsWorkload(f.workload) || !have_seed ||
      !have_seconds || !(f.seconds > 0.0) || !have_trace || f.out_dir.empty()) {
    Fail(
        "usage: e2e_bench --workload fanin|overlap|mutate --seed N "
        "--seconds S --trace 0|1 --out-dir DIR");
  }
  return f;
}

int Main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dead child shows as a failed write
  if (argc > 1 && std::string(argv[1]) == "overlap-serve") {
    return OverlapServe(argc, argv);
  }
  const Flags f = ParseFlags(argc, argv);
  const std::string dir = f.out_dir + "/run-" + f.workload + "-" +
                          std::to_string(f.seed) + "-" +
                          std::to_string(getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Inputs in = Generate(f.workload, f.seed, dir);
  const Result r = f.trace ? Traced(f, in, dir) : EndToEnd(f, in, dir);
  std::filesystem::remove_all(dir);
  Print(r);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
