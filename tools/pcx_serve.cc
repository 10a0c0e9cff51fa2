// pcx_serve — the serving front end of the predicate-constraint engine.
//
// Serve mode (default): load a snapshot and answer the line protocol on
// stdin/stdout or a localhost TCP port (Linux epoll event loop):
//
//   pcx_serve --snapshot=examples/snapshots/sensors.pcxsnap
//   pcx_serve --snapshot=... --port=7070
//   pcx_serve --snapshot=... --port=0     # ephemeral: prints "PORT <n>"
//
// Client mode: connect a typed engine backend (engine/remote_backend.h)
// to a running server — or any Engine::Open URI — and drive it with the
// same command syntax. BOUND and GROUPBY replies are parsed into
// StatusOr<ResultRange> and re-printed, so client-mode output for a
// query is byte-identical to serve-mode output exactly when the wire
// round-trip is lossless; server verbs (STATS, HEALTH, LOAD, ...) print
// the server's own reply line:
//
//   pcx_serve --connect=tcp:127.0.0.1:7070
//
// Build mode: partition a plain pcset text file (pc/serialization
// format) into a versioned sharded snapshot:
//
//   pcx_serve --build-snapshot --pcset=sensors.pcset --shards=2
//             --strategy=range --int-attrs=0,1 --epoch=1
//             --out=sensors.pcxsnap        (one command line)
//
// See docs/ARCHITECTURE.md ("Serving", "Engine & backends") for the
// protocol and the snapshot format specification.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/text.h"
#include "engine/engine.h"
#include "pc/serialization.h"
#include "serve/event_loop.h"
#include "serve/replicator.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace {

struct Flags {
  std::string snapshot;
  std::string connect;
  int port = -1;
  size_t threads = 0;
  size_t serve_threads = 4;  // TCP solver-pool workers
  int backlog = pcx::EventLoopListener::kDefaultBacklog;
  bool persistent_sat_cache = true;  // serving wants the cross-query cache
  size_t serve_clients = 0;          // exit after N TCP sessions (0 = forever)
  size_t max_queue = 1024;           // TCP admission cap (global)
  size_t max_conn_pending = 64;      // TCP admission cap (per conn)
  std::string log_dir;               // durable delta log (crash recovery)
  std::string replica;               // tail a primary: tcp:host:port
  unsigned long sync_ms = 200;       // replica poll cadence
  unsigned long long slow_query_us = 0;  // slow-query log threshold (0 = off)
  std::string log_file;              // slow-query log sink (empty = stderr)

  bool build_snapshot = false;
  std::string pcset;
  size_t shards = 1;
  std::string strategy = "range";
  std::string int_attrs;
  unsigned long long epoch = 0;
  std::string out;

  bool help = false;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string needle = std::string("--") + name + "=";
  if (arg.rfind(needle, 0) != 0) return false;
  *value = arg.substr(needle.size());
  return true;
}

void Usage() {
  std::fprintf(
      stderr,
      "pcx_serve — sharded predicate-constraint bound server\n\n"
      "Serve mode:\n"
      "  pcx_serve [--snapshot=PATH] [--port=N] [--threads=N]\n"
      "            [--serve-threads=N] [--backlog=N] [--serve-clients=N]\n"
      "            [--max-queue=N] [--max-conn-pending=N]\n"
      "            [--no-sat-cache] [--serve-once]\n"
      "    Without --port, speaks the protocol on stdin/stdout.\n"
      "    Without --snapshot, waits for a LOAD command.\n"
      "    --port=0 binds an ephemeral port and prints 'PORT <n>' on\n"
      "    stdout before serving. TCP serving is Linux-only: one epoll\n"
      "    loop holds every connection (an fd each, not a thread), BOUNDs\n"
      "    from all connections are batched whenever a solver worker is\n"
      "    free, and overload is answered with ERR UNAVAILABLE. Stdio\n"
      "    serving works everywhere.\n"
      "    --serve-threads=N sizes the solver pool (default 4);\n"
      "    --threads=N sets a batch's fan-out width (0 = hardware\n"
      "    concurrency, 1 = sequential);\n"
      "    --max-queue=N / --max-conn-pending=N set the admission caps\n"
      "    (defaults 1024/64); --backlog=N sets the listen(2) queue\n"
      "    depth; --serve-clients=N exits after N sessions\n"
      "    (--serve-once is shorthand for --serve-clients=1).\n"
      "    --event-loop is accepted and ignored (TCP always uses the\n"
      "    event loop).\n"
      "    --log-dir=DIR journals APPEND/RETIRE/CHECKPOINT to a durable\n"
      "    fsync'd delta log; on restart the server recovers the exact\n"
      "    pre-crash epoch (base snapshot + log replay, torn tails\n"
      "    truncated). --replica=tcp:HOST:PORT makes this server a\n"
      "    read-only replica tailing that primary via the SYNC verb\n"
      "    (--sync-ms=N sets the poll cadence, default 200).\n"
      "    --slow-query-us=N logs a structured record for every request\n"
      "    slower than N microseconds (to stderr, or --log-file=PATH).\n"
      "    METRICS returns Prometheus text exposition; TRACE ON appends\n"
      "    '#trace ...' stage timings after each reply (per session).\n\n"
      "Client mode:\n"
      "  pcx_serve --connect=URI\n"
      "    Typed client REPL against an Engine::Open URI\n"
      "    (tcp:host:port, failover:uri|uri, local:set.pcset,\n"
      "    snapshot:v.pcxsnap?shards=K); same command syntax. STATS,\n"
      "    HEALTH, LOAD, APPEND, RETIRE, CHECKPOINT and TRACE print the\n"
      "    server's own reply line; in-process URIs answer them\n"
      "    UNIMPLEMENTED (serve the set with --snapshot= instead).\n\n"
      "Build mode:\n"
      "  pcx_serve --build-snapshot --pcset=PATH --out=PATH [--shards=K]\n"
      "            [--strategy=range|roundrobin] [--int-attrs=0,1,...]\n"
      "            [--epoch=N]\n\n"
      "Protocol: LOAD <path> | BOUND <AGG> <attr> [{a:[lo,hi],...}...] |\n"
      "          GROUPBY <AGG> <attr> <group_attr> <v1,v2,...> [{box}...] |\n"
      "          STATS | HEALTH | METRICS | TRACE ON|OFF | QUIT\n");
}

int BuildSnapshot(const Flags& flags) {
  if (flags.pcset.empty() || flags.out.empty()) {
    std::fprintf(stderr, "--build-snapshot needs --pcset= and --out=\n");
    return 2;
  }
  std::ifstream in(flags.pcset);
  if (!in) {
    std::fprintf(stderr, "cannot open pcset '%s'\n", flags.pcset.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto pcs = pcx::ParsePcSet(buf.str());
  if (!pcs.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 pcs.status().message().c_str());
    return 1;
  }

  std::vector<pcx::AttrDomain> domains(pcs->num_attrs(),
                                       pcx::AttrDomain::kContinuous);
  if (!flags.int_attrs.empty()) {
    for (const std::string& part : pcx::SplitOn(flags.int_attrs, ',')) {
      const auto attr = pcx::ParseU64(pcx::TrimWhitespace(part));
      if (!attr.ok() || *attr >= domains.size()) {
        std::fprintf(stderr,
                     "--int-attrs entry '%s' is not a valid attribute index "
                     "(want 0..%zu)\n",
                     part.c_str(), domains.size() - 1);
        return 2;
      }
      domains[static_cast<size_t>(*attr)] = pcx::AttrDomain::kInteger;
    }
  }

  pcx::PartitionOptions popts;
  popts.num_shards = flags.shards;
  if (flags.strategy == "range") {
    popts.strategy = pcx::PartitionStrategy::kAttributeRange;
  } else if (flags.strategy == "roundrobin") {
    popts.strategy = pcx::PartitionStrategy::kRoundRobin;
  } else {
    std::fprintf(stderr, "unknown --strategy=%s\n", flags.strategy.c_str());
    return 2;
  }

  const pcx::Partition partition =
      pcx::PartitionPcSet(*pcs, domains, popts);
  const pcx::Snapshot snap =
      pcx::MakeSnapshot(*pcs, domains, partition, flags.epoch);
  const pcx::Status status = pcx::WriteSnapshot(snap, flags.out);
  if (!status.ok()) {
    std::fprintf(stderr, "write error: %s\n", status.message().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "wrote %s: epoch=%llu shards=%zu pcs=%zu components=%zu "
               "largest=%zu imbalance=%.3f\n",
               flags.out.c_str(),
               static_cast<unsigned long long>(snap.epoch),
               snap.shards.size(), snap.total_pcs(),
               partition.num_components, partition.largest_component,
               partition.ImbalanceRatio());
  return 0;
}

// The typed-client REPL: the same command vocabulary as the server. A
// BOUND or GROUPBY line becomes a BoundBackend call on an Engine::Open'd
// backend and the typed result is printed back; against "tcp:" this
// exercises the full client-side protocol path (request formatting,
// reply parsing, typed error codes) end to end — CI drives its remote
// smoke test through here. Server verbs are forwarded as typed and the
// server's reply line is printed unchanged: one rendering per reply.
int RunClient(const std::string& uri) {
  const pcx::StatusOr<pcx::Engine> engine = pcx::Engine::Open(uri);
  if (!engine.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "connected to %s (attrs=%zu)\n",
               engine->name().c_str(), engine->num_attrs());

  std::string line;
  while (std::getline(std::cin, line)) {
    const std::vector<std::string> tokens = pcx::SplitWhitespace(line);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    std::string cmd = tokens[0];
    for (char& c : cmd) c = static_cast<char>(std::toupper(c));

    pcx::Status error = pcx::Status::OK();
    if (cmd == "QUIT" || cmd == "EXIT") {
      std::cout << "BYE\n" << std::flush;
      return 0;
    } else if (cmd == "BOUND") {
      const auto query = pcx::ParseBoundRequest(tokens, engine->num_attrs());
      if (!query.ok()) {
        error = query.status();
      } else if (const auto range = engine->Bound(*query); range.ok()) {
        pcx::PrintResultRange(std::cout, "RANGE ", *range);
      } else {
        error = range.status();
      }
    } else if (cmd == "GROUPBY") {
      const auto request =
          pcx::ParseGroupByRequest(tokens, engine->num_attrs());
      if (!request.ok()) {
        error = request.status();
      } else if (const auto groups = engine->BoundGroupBy(
                     request->query, request->group_attr, request->values);
                 groups.ok()) {
        std::cout << "GROUPS " << groups->size() << "\n";
        for (const pcx::GroupRange& g : *groups) {
          std::cout << "GROUP " << pcx::FormatNumber(g.group_value) << " ";
          pcx::PrintResultRange(std::cout, "", g.range);
        }
      } else {
        error = groups.status();
      }
    } else if (cmd == "LOAD" || cmd == "APPEND" || cmd == "RETIRE" ||
               cmd == "CHECKPOINT" || cmd == "TRACE" || cmd == "STATS" ||
               cmd == "HEALTH") {
      // Server verbs. The '#trace' annotations that TRACE ON adds after
      // later replies are skipped by the typed client; use a raw
      // transport (nc, the stdio server) to see them.
      if (const auto reply = engine->backend()->Command(line); reply.ok()) {
        std::cout << *reply << "\n";
      } else {
        error = reply.status();
      }
    } else if (cmd == "METRICS") {
      // The server's Prometheus exposition, printed raw (no counted
      // header) — `pcx_serve --connect=tcp:... <<< METRICS` is a scrape;
      // through failover: it scrapes the picked candidate.
      if (const auto body = engine->backend()->Metrics(); body.ok()) {
        std::cout << *body;
      } else {
        error = body.status();
      }
    } else {
      error = pcx::Status::InvalidArgument(
          "unknown command '" + tokens[0] +
          "' (want LOAD/BOUND/GROUPBY/APPEND/RETIRE/CHECKPOINT/STATS/"
          "HEALTH/METRICS/TRACE/QUIT)");
    }
    if (!error.ok()) {
      std::cout << "ERR " << pcx::StatusCodeToString(error.code()) << " "
                << error.message() << "\n";
    }
    std::cout << std::flush;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      flags.help = true;
    } else if (ParseFlag(arg, "snapshot", &value)) {
      flags.snapshot = value;
    } else if (ParseFlag(arg, "connect", &value)) {
      flags.connect = value;
    } else if (ParseFlag(arg, "port", &value)) {
      flags.port = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "threads", &value)) {
      flags.threads = std::strtoul(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "serve-threads", &value)) {
      flags.serve_threads = std::strtoul(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "backlog", &value)) {
      flags.backlog = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "serve-clients", &value)) {
      flags.serve_clients = std::strtoul(value.c_str(), nullptr, 10);
    } else if (arg == "--event-loop") {
      // Accepted for existing scripts: the event loop is the only TCP
      // transport.
    } else if (ParseFlag(arg, "max-queue", &value)) {
      flags.max_queue = std::strtoul(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "max-conn-pending", &value)) {
      flags.max_conn_pending = std::strtoul(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "log-dir", &value)) {
      flags.log_dir = value;
    } else if (ParseFlag(arg, "replica", &value)) {
      flags.replica = value;
    } else if (ParseFlag(arg, "sync-ms", &value)) {
      flags.sync_ms = std::strtoul(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "slow-query-us", &value)) {
      flags.slow_query_us = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "log-file", &value)) {
      flags.log_file = value;
    } else if (arg == "--no-sat-cache") {
      flags.persistent_sat_cache = false;
    } else if (arg == "--serve-once") {
      flags.serve_clients = 1;
    } else if (arg == "--build-snapshot") {
      flags.build_snapshot = true;
    } else if (ParseFlag(arg, "pcset", &value)) {
      flags.pcset = value;
    } else if (ParseFlag(arg, "shards", &value)) {
      flags.shards = std::strtoul(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "strategy", &value)) {
      flags.strategy = value;
    } else if (ParseFlag(arg, "int-attrs", &value)) {
      flags.int_attrs = value;
    } else if (ParseFlag(arg, "epoch", &value)) {
      flags.epoch = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "out", &value)) {
      flags.out = value;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      Usage();
      return 2;
    }
  }
  if (flags.help) {
    Usage();
    return 0;
  }
  if (flags.build_snapshot) return BuildSnapshot(flags);
  if (!flags.connect.empty()) return RunClient(flags.connect);

  pcx::BoundServer::Options options;
  options.solver.num_threads = flags.threads;
  options.solver.solver.persistent_sat_cache = flags.persistent_sat_cache;
  options.slow_query_us = flags.slow_query_us;
  options.slow_log_path = flags.log_file;
  pcx::BoundServer server(options);

  // Recovery before seeding: an initialized --log-dir IS the state (base
  // snapshot + replayed records, exact pre-crash epoch). --snapshot then
  // only seeds a log that has nothing to recover — silently resetting a
  // recovered log to an older snapshot would lose acknowledged writes.
  if (!flags.log_dir.empty()) {
    const pcx::Status status = server.EnableDurableLog(flags.log_dir);
    if (!status.ok()) {
      std::fprintf(stderr, "--log-dir failed: %s\n",
                   status.message().c_str());
      return 1;
    }
    if (server.solver() != nullptr) {
      std::fprintf(stderr, "recovered %s: epoch=%llu shards=%zu pcs=%zu\n",
                   flags.log_dir.c_str(),
                   static_cast<unsigned long long>(server.solver()->epoch()),
                   server.solver()->num_shards(),
                   server.solver()->constraints().size());
    }
  }

  if (!flags.snapshot.empty()) {
    if (server.solver() != nullptr) {
      std::fprintf(stderr,
                   "ignoring --snapshot=%s: --log-dir recovered epoch %llu\n",
                   flags.snapshot.c_str(),
                   static_cast<unsigned long long>(server.solver()->epoch()));
    } else {
      const pcx::Status status = server.LoadSnapshotFile(flags.snapshot);
      if (!status.ok()) {
        std::fprintf(stderr, "LOAD failed: %s\n", status.message().c_str());
        return 1;
      }
      std::fprintf(stderr, "loaded %s: epoch=%llu shards=%zu pcs=%zu\n",
                   flags.snapshot.c_str(),
                   static_cast<unsigned long long>(server.solver()->epoch()),
                   server.solver()->num_shards(),
                   server.solver()->constraints().size());
    }
  }

  // Replica mode: read-only + a background tailer shipping the
  // primary's delta records via the SYNC verb. The tailer outlives the
  // serve loop below and stops on destruction.
  std::unique_ptr<pcx::ReplicaTailer> tailer;
  if (!flags.replica.empty()) {
    if (flags.replica.rfind("tcp:", 0) != 0) {
      std::fprintf(stderr, "--replica must be tcp:HOST:PORT, got '%s'\n",
                   flags.replica.c_str());
      return 2;
    }
    const std::string hostport = flags.replica.substr(4);
    const size_t colon = hostport.rfind(':');
    const unsigned long port =
        colon == std::string::npos
            ? 0
            : std::strtoul(hostport.c_str() + colon + 1, nullptr, 10);
    if (colon == std::string::npos || colon == 0 || port == 0 ||
        port > 65535) {
      std::fprintf(stderr, "--replica must be tcp:HOST:PORT, got '%s'\n",
                   flags.replica.c_str());
      return 2;
    }
    pcx::ReplicaTailer::Options tail_options;
    tail_options.host = hostport.substr(0, colon);
    tail_options.port = static_cast<uint16_t>(port);
    tail_options.poll_ms = static_cast<uint32_t>(flags.sync_ms);
    server.set_read_only(true);
    tailer = std::make_unique<pcx::ReplicaTailer>(server, tail_options);
    tailer->Start();
    std::fprintf(stderr, "replica: tailing %s every %lums (read-only)\n",
                 flags.replica.c_str(), flags.sync_ms);
  }

  if (flags.port >= 0) {
    // Bind before serving so --port=0 (kernel-assigned ephemeral port)
    // can announce the actual port: human-readable on stderr, a
    // machine-readable "PORT <n>" line on stdout for scripts and CI.
    pcx::StatusOr<pcx::EventLoopListener> listener =
        pcx::EventLoopListener::Bind(static_cast<uint16_t>(flags.port),
                                     flags.backlog);
    if (!listener.ok()) {
      std::fprintf(stderr, "server error: %s\n",
                   listener.status().message().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "serving on localhost:%u (event loop, %zu solver threads, "
                 "max_queue=%zu)\n",
                 listener->port(), flags.serve_threads, flags.max_queue);
    std::printf("PORT %u\n", listener->port());
    std::fflush(stdout);
    pcx::EventLoopListener::Options serve_options;
    serve_options.max_clients = flags.serve_clients;
    serve_options.solver_threads = flags.serve_threads;
    serve_options.max_queue = flags.max_queue;
    serve_options.max_conn_pending = flags.max_conn_pending;
    const pcx::Status status = listener->Serve(server, serve_options);
    if (!status.ok()) {
      std::fprintf(stderr, "server error: %s\n", status.message().c_str());
      return 1;
    }
    return 0;
  }
  server.ServeStream(std::cin, std::cout);
  return 0;
}
