#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "measure.h"

namespace e2e {

/// One timed call into a module's public function, recorded by the
/// benchmark around the call (nothing inside src/ is instrumented).
/// Spans of one request share `request`; `parent` is -1 for a root.
struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;
  double start_us = 0.0;  ///< since the tracer was created
  double end_us = 0.0;
};

/// Keeps spans in memory. A disabled tracer reads no clocks, so the
/// same replay can run traced and untraced to measure the overhead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span and returns its id (-1 when disabled).
  int64_t Begin(const char* name, int64_t parent, int64_t request);
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (us) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Tab-separated: id, parent, request, name, start_us, end_us.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int64_t parent, int64_t request)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

/// Per-layer metrics of one replay, by name (see README.md for the
/// layer each one belongs to).
struct LayerMetrics {
  std::map<std::string, double> values;
  size_t attempted = 0;
  size_t failed = 0;
};

/// Replays the reads of `in` in-process through the public calls of
/// every layer (snapshot, sharded solver, route, server parse/handle/
/// serialize, unsharded bound solver, cell decomposition) for about
/// `seconds`, alternating untraced and traced passes, then the panel's
/// APPEND/RETIRE cycles, if it has any (mutate), through
/// ShardedBoundSolver::ApplyDeltas and DurableLog::Append under
/// `log_dir`; without them the write metrics read 0. Every answer is
/// checked. Spans go to `tracer`.
LayerMetrics ReplayLayers(const Inputs& in, const std::string& log_dir,
                          double seconds, Tracer& tracer);

}  // namespace e2e

#endif  // E2EBENCH_LAYERS_H_
