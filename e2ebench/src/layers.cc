#include "layers.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>

#include "common/text.h"
#include "pc/bound_solver.h"
#include "pc/cell_decomposition.h"
#include "pc/serialization.h"
#include "serve/delta_log.h"
#include "serve/server.h"
#include "serve/sharded_solver.h"
#include "serve/snapshot.h"
#include "wire.h"

namespace e2e {

namespace {

// Snapshot loads timed per replay; the median is reported.
constexpr int kSnapshotLoads = 3;
// APPEND/RETIRE cycles of the in-process write replay.
constexpr size_t kWriteCycles = 24;
// Reads replayed: the panel's first ones, all of fanin's and mutate's
// and 256 of overlap's reports. A replayed read runs every layer's call
// (about four bounds), so a pass over overlap's 4096 reports would
// take longer than the run.
constexpr size_t kMaxReplayReads = 1280;

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Per-request duration of the spans called `name`.
std::map<int64_t, double> ByRequest(const Tracer& tracer, const char* name) {
  std::map<int64_t, double> out;
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) == name) out[s.request] = s.end_us - s.start_us;
  }
  return out;
}

// Runs `fn` inside a span and returns its result.
template <typename Fn>
auto Timed(Tracer& tracer, const char* name, int64_t parent, int64_t request,
           Fn&& fn) {
  Scope span(tracer, name, parent, request);
  return fn();
}

// Counters of one pass over the reads (deterministic for a seed).
struct Counts {
  std::vector<double> fanout, fast_path, cells, nodes_visited, sat_calls,
      milp_nodes, lp_solves, lp_pivots;
  double sat_hits = 0.0, sat_total = 0.0;
};

}  // namespace

int64_t Tracer::Begin(const char* name, int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.request = request;
  span.start_us = MicrosBetween(origin_, Clock::now());
  spans_.push_back(span);
  return span.id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_us = MicrosBetween(origin_, Clock::now());
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_us\tend_us\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%lld\t%lld\t%lld\t%s\t%.3f\t%.3f\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name, s.start_us,
                 s.end_us);
  }
  return std::fclose(f) == 0;
}

LayerMetrics ReplayLayers(const Inputs& in, const std::string& log_dir,
                          double seconds, Tracer& tracer) {
  LayerMetrics m;
  auto& v = m.values;
  auto expect = [&m](bool ok, const char* what) {
    ++m.attempted;
    if (!ok) {
      ++m.failed;
      std::fprintf(stderr, "e2e_bench: replay check failed: %s\n", what);
    }
    return ok;
  };

  // Set-up layers.
  tracer.set_enabled(true);
  std::optional<pcx::Snapshot> snapshot;
  for (int i = 0; i < kSnapshotLoads; ++i) {
    Scope span(tracer, "snapshot.load", -1, -1);
    auto loaded = pcx::LoadSnapshot(in.snapshot_path);
    if (!expect(loaded.ok(), "LoadSnapshot")) return m;
    snapshot = std::move(*loaded);
  }
  pcx::ShardedBoundSolver::Options sharded_options;
  sharded_options.num_threads = kPoolWidth;
  sharded_options.solver.persistent_sat_cache = true;  // as pcx_serve
  std::unique_ptr<const pcx::ShardedBoundSolver> sharded;
  {
    Scope span(tracer, "sharded_solver.build", -1, -1);
    sharded = std::make_unique<const pcx::ShardedBoundSolver>(*snapshot,
                                                              sharded_options);
  }
  const pcx::PredicateConstraintSet flat = snapshot->Flatten();
  std::unique_ptr<const pcx::PcBoundSolver> unsharded;
  {
    Scope span(tracer, "bound_solver.build", -1, -1);
    unsharded =
        std::make_unique<const pcx::PcBoundSolver>(flat, snapshot->domains);
  }
  pcx::BoundServer::Options server_options;
  server_options.solver = sharded_options;
  pcx::BoundServer server(server_options);
  if (!expect(server.LoadSnapshotFile(in.snapshot_path).ok(),
              "BoundServer::LoadSnapshotFile")) {
    return m;
  }

  std::vector<const Op*> reads;
  std::vector<pcx::AggQuery> queries;
  for (const Op& op : in.panel) {
    if (op.kind != OpKind::kRead) continue;
    if (reads.size() == kMaxReplayReads) break;
    reads.push_back(&op);
    queries.push_back(op.query);
  }

  // One read through every layer's public call; `counts`, when set,
  // collects the work counters.
  auto replay = [&](size_t i, int64_t request, Counts* counts) {
    const Op& op = *reads[i];
    std::string served;
    pcx::ShardMask mask = 0;
    {
      Scope root(tracer, "request", -1, request);
      const auto query = Timed(tracer, "server.parse", root.id(), request, [&] {
        return pcx::ParseBoundRequest(pcx::SplitWhitespace(op.line),
                                      in.num_attrs);
      });
      if (!expect(query.ok(), "ParseBoundRequest")) return;
      mask = Timed(tracer, "route.mask", root.id(), request,
                   [&] { return sharded->RouteMask(*query); });
      const auto range =
          Timed(tracer, "sharded_solver.bound", root.id(), request,
                [&] { return sharded->Bound(*query); });
      if (!expect(range.ok(), "ShardedBoundSolver::Bound")) return;
      served = Timed(tracer, "server.serialize", root.id(), request,
                     [&] { return FormatRange(*range); });
      expect(op.expect.empty() ? Encloses(*range, op.query.agg, op.truth)
                               : served == op.expect,
             "sharded answer");
    }
    std::ostringstream handled;
    {
      Scope span(tracer, "server.handle", -1, request);
      server.HandleLine(op.line, handled);
    }
    expect(handled.str() == served + "\n", "BoundServer::HandleLine");

    pcx::PcBoundSolver::SolveStats stats;
    const auto reference =
        Timed(tracer, "bound_solver.bound", -1, request,
              [&] { return unsharded->BoundWithStats(op.query, stats); });
    expect(reference.ok() && FormatRange(*reference) == served,
           "PcBoundSolver::BoundWithStats");

    // The decomposition the solver runs off the disjoint fast path;
    // on the fast path it runs none, and neither does the replay.
    pcx::DecompositionResult cells;
    if (!stats.used_disjoint_fast_path) {
      Scope span(tracer, "cell_decomposition", -1, request);
      std::vector<uint32_t> relevant;
      const pcx::route::RouteIndex* index = unsharded->route_index();
      if (index != nullptr) {
        index->CollectIntersecting(op.query.where->box(), &relevant);
      }
      cells = pcx::DecomposeCells(flat, op.query.where,
                                  unsharded->options().decomposition,
                                  snapshot->domains,
                                  index != nullptr ? &relevant : nullptr);
    }
    if (counts == nullptr) return;
    counts->fanout.push_back(std::popcount(mask));
    counts->fast_path.push_back(stats.used_disjoint_fast_path ? 1.0 : 0.0);
    counts->cells.push_back(static_cast<double>(stats.num_cells));
    counts->milp_nodes.push_back(static_cast<double>(stats.milp_nodes));
    counts->lp_solves.push_back(static_cast<double>(stats.lp_solves));
    counts->lp_pivots.push_back(static_cast<double>(stats.lp_pivots));
    counts->nodes_visited.push_back(static_cast<double>(cells.nodes_visited));
    counts->sat_calls.push_back(static_cast<double>(cells.sat_calls));
    counts->sat_hits += static_cast<double>(cells.sat_cache_hits);
    counts->sat_total += static_cast<double>(cells.sat_calls);
  };
  auto check_batch = [&](const std::vector<pcx::StatusOr<pcx::ResultRange>>& batch) {
    for (size_t i = 0; i < batch.size(); ++i) {
      expect(batch[i].ok() && (reads[i]->expect.empty()
                                   ? Encloses(*batch[i], reads[i]->query.agg,
                                              reads[i]->truth)
                                   : FormatRange(*batch[i]) == reads[i]->expect),
             "ShardedBoundSolver::BoundBatch");
    }
  };

  // Warm-up pass (untraced; fills the solvers' caches and the counters).
  tracer.set_enabled(false);
  Counts counts;
  for (size_t i = 0; i < reads.size(); ++i) replay(i, -1, &counts);
  check_batch(sharded->BoundBatch(queries));

  // Timed passes until the time is spent. Each read runs twice, traced
  // and untraced, in alternating order so cache warmth favours neither;
  // the two sums give the tracing overhead.
  double traced_us = 0.0, untraced_us = 0.0;
  const Clock::time_point start = Clock::now();
  for (int64_t p = 0;
       p == 0 || MicrosBetween(start, Clock::now()) < seconds * 1e6; ++p) {
    for (size_t i = 0; i < reads.size(); ++i) {
      const int64_t request =
          p * static_cast<int64_t>(reads.size()) + static_cast<int64_t>(i);
      for (size_t rep = 0; rep < 2; ++rep) {
        const bool traced = (i + rep + static_cast<size_t>(p)) % 2 == 0;
        tracer.set_enabled(traced);
        const Clock::time_point t0 = Clock::now();
        replay(i, request, nullptr);
        (traced ? traced_us : untraced_us) += MicrosBetween(t0, Clock::now());
      }
    }
    tracer.set_enabled(true);
    check_batch(Timed(tracer, "sharded_solver.batch", -1, -1,
                      [&] { return sharded->BoundBatch(queries); }));
  }

  // Writes (mutate's panel only): the APPEND/RETIRE cycle through
  // ApplyDeltas and the delta log.
  std::vector<double> log_bytes;
  const bool has_writes =
      std::any_of(in.panel.begin(), in.panel.end(),
                  [](const Op& op) { return op.kind != OpKind::kRead; });
  if (has_writes) {
    std::shared_ptr<const pcx::ShardedBoundSolver> current =
        std::make_shared<const pcx::ShardedBoundSolver>(*snapshot,
                                                        sharded_options);
    pcx::DurableLog::Recovered recovered;
    auto log = pcx::DurableLog::Open(log_dir, &recovered);
    if (!expect(log.ok() && (*log)->Reset(*snapshot).ok(),
                "DurableLog::Open")) {
      return m;
    }
    const std::string log_path = pcx::DurableLogLogPath(log_dir);
    const auto size_before = std::filesystem::file_size(log_path);
    size_t records = 0;
    for (const Op& op : in.panel) {
      if (op.kind == OpKind::kRead) continue;
      if (records == 2 * kWriteCycles) break;
      pcx::DeltaRecord rec;
      rec.epoch = current->epoch() + 1;
      const bool append = op.kind == OpKind::kAppend;
      if (append) {
        rec.op = pcx::DeltaOp::kAppend;
        auto pc = pcx::ParsePcBody(op.line.substr(7), in.num_attrs);
        if (!expect(pc.ok(), "ParsePcBody")) return m;
        rec.pc = std::move(*pc);
      } else {
        rec.op = pcx::DeltaOp::kRetire;
        rec.retire_index = in.num_pcs;
      }
      const int64_t request = static_cast<int64_t>(records);
      const auto next = Timed(
          tracer, append ? "sharded_solver.append" : "sharded_solver.retire",
          -1, request, [&] {
            return current->ApplyDeltas(
                std::span<const pcx::DeltaRecord>(&rec, 1));
          });
      if (!expect(next.ok() && (*next)->constraints().size() ==
                                   in.num_pcs + (append ? 1 : 0),
                  "ShardedBoundSolver::ApplyDeltas")) {
        return m;
      }
      {
        Scope span(tracer, "delta_log.append", -1, request);
        expect((*log)->Append(rec).ok(), "DurableLog::Append");
      }
      current = *next;
      ++records;
    }
    log_bytes.push_back(
        static_cast<double>(std::filesystem::file_size(log_path) - size_before) /
        static_cast<double>(records));
  }

  // Derivation from the spans.
  auto median = [&](const char* name) { return Median(tracer.Durations(name)); };
  auto tail = [&](const char* name) {
    return Summarize(tracer.Durations(name), TailPercentile(in.workload)).tail;
  };
  v["snapshot.load_ms"] = median("snapshot.load") / 1e3;
  v["sharded_solver.build_ms"] = median("sharded_solver.build") / 1e3;
  v["bound_solver.build_ms"] = median("bound_solver.build") / 1e3;
  v["server.parse_us"] = median("server.parse");
  v["server.handle_us"] = median("server.handle");
  v["server.handle_tail_us"] = tail("server.handle");
  v["server.serialize_us"] = median("server.serialize");
  v["route.mask_us"] = median("route.mask");
  v["route.fanout_avg"] = Mean(counts.fanout);
  size_t multi = 0;
  for (const double f : counts.fanout) multi += f >= 2.0 ? 1 : 0;
  v["route.multi_shard_share"] =
      counts.fanout.empty()
          ? 0.0
          : static_cast<double>(multi) / static_cast<double>(counts.fanout.size());
  v["sharded_solver.bound_us"] = median("sharded_solver.bound");
  v["sharded_solver.bound_tail_us"] = tail("sharded_solver.bound");
  v["sharded_solver.batch_us_per_query"] =
      median("sharded_solver.batch") / static_cast<double>(reads.size());
  v["sharded_solver.union_built"] =
      static_cast<double>(sharded->stats().union_solvers_built);
  v["sharded_solver.append_us"] = median("sharded_solver.append");
  v["sharded_solver.retire_us"] = median("sharded_solver.retire");
  v["delta_log.append_us"] = median("delta_log.append");
  v["delta_log.bytes_per_record"] = Median(log_bytes);
  v["bound_solver.bound_us"] = median("bound_solver.bound");
  v["bound_solver.bound_tail_us"] = tail("bound_solver.bound");
  v["bound_solver.fast_path_share"] = Mean(counts.fast_path);
  v["bound_solver.cells_per_query"] = Mean(counts.cells);
  v["cell_decomposition.us"] = median("cell_decomposition");
  v["cell_decomposition.nodes_visited"] = Mean(counts.nodes_visited);
  v["sat.calls_per_query"] = Mean(counts.sat_calls);
  v["sat.cache_hit_ratio"] =
      counts.sat_total > 0.0 ? counts.sat_hits / counts.sat_total : 0.0;
  // MILP self time: the unsharded bound minus the decomposition of the
  // same request, over the reads that left the disjoint fast path (the
  // fast path runs neither; 0 when every read takes it).
  const auto bound = ByRequest(tracer, "bound_solver.bound");
  const auto decomposition = ByRequest(tracer, "cell_decomposition");
  std::vector<double> milp_self;
  for (const auto& [request, us] : bound) {
    const size_t read = static_cast<size_t>(request) % reads.size();
    const auto it = decomposition.find(request);
    if (counts.fast_path[read] == 0.0 && it != decomposition.end()) {
      milp_self.push_back(us - it->second);
    }
  }
  v["milp.self_us"] = Median(milp_self);
  v["milp.nodes_per_query"] = Mean(counts.milp_nodes);
  v["milp.lp_solves_per_query"] = Mean(counts.lp_solves);
  v["milp.lp_pivots_per_query"] = Mean(counts.lp_pivots);
  v["trace.overhead_ratio"] = traced_us / untraced_us;

  return m;
}

}  // namespace e2e
