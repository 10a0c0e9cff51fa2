#ifndef PCX_COMMON_TRACE_H_
#define PCX_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pcx {

/// Per-request stage tracing. A request handler installs a TraceContext
/// with ScopedTrace; any code on that thread (parser, router, solver,
/// serializer) then times itself with RAII TraceSpan stage timers, and
/// the handler renders the assembled trace as a one-line `#trace ...`
/// protocol comment after the reply (the TRACE ON|OFF session toggle).
///
/// When no context is installed — the common case — TraceSpan is a
/// no-op that reads no clocks, so tracing costs nothing when off.
class TraceContext {
 public:
  TraceContext();

  /// Globally monotonic id assigned at construction.
  uint64_t id() const { return id_; }

  /// Appends a named stage duration, in order of completion.
  void AddStage(const char* stage, double us);
  /// Appends one per-shard solve duration; consecutive shard entries
  /// render grouped as `solve_us=[a,b,...]`.
  void AddShardSolve(double us);

  /// Renders `#trace id=N parse_us=12.3 route_us=0.8 solve_us=[410.2]
  /// serialize_us=1.1 total_us=425.0\n`. Stages appear in completion
  /// order; total_us is the sum of all recorded durations.
  std::string FormatComment() const;

  bool empty() const { return entries_.empty(); }

 private:
  struct Entry {
    const char* stage;  ///< nullptr marks a per-shard solve entry
    double us;
  };
  uint64_t id_;
  std::vector<Entry> entries_;
};

/// The TraceContext installed on this thread, or nullptr.
TraceContext* CurrentTrace();

/// Installs `ctx` as the thread's current trace for this scope,
/// restoring the previous one (usually nullptr) on destruction.
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceContext* ctx);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceContext* previous_;
};

/// Microseconds elapsed on the steady clock since `start`.
inline double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// RAII stage timer: records `stage` into the context on destruction.
/// With a null context (tracing off) it does nothing and reads no
/// clocks.
class TraceSpan {
 public:
  explicit TraceSpan(const char* stage, TraceContext* ctx = CurrentTrace());
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* stage_;
  TraceContext* ctx_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pcx

#endif  // PCX_COMMON_TRACE_H_
