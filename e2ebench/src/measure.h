#ifndef E2EBENCH_MEASURE_H_
#define E2EBENCH_MEASURE_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// A tail is trusted only when at least this many samples lie beyond
/// it, so one outlier can never be the tail.
inline constexpr size_t kMinBeyondTail = 10;

/// The tail percentile of a workload's latencies. It is fixed per
/// workload, never chosen from the sample count, so a change in
/// throughput never changes which percentile a run reports: p95 on
/// fanin, p99 on overlap, p80 on mutate (about 800 samples per
/// operation type in a 25 s run). Each is the highest percentile that
/// stays steady from run to run on a shared 4-vCPU machine; above it,
/// fanin's and mutate's tails follow how fast the host wakes the
/// guest's idle threads (over 9 mutate runs, the read p90 spread 29%
/// and p95 47%, against 7.5% at p80).
double TailPercentile(const std::string& workload);

/// Median and tail of one operation type's latencies, pooled over the
/// run. Latencies of different operation types are never pooled into
/// one Latency.
struct Latency {
  size_t n = 0;           ///< samples summarized
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< the percentile `tail` is
  size_t beyond = 0;      ///< samples beyond the tail's rank

  /// Whether enough samples lie beyond the tail to trust it.
  bool tail_trusted() const { return beyond >= kMinBeyondTail; }
};

/// Nearest-rank percentile of an ascending-sorted, non-empty vector.
double Percentile(const std::vector<double>& sorted, double pct);

/// Number of samples strictly beyond the nearest-rank position of
/// `pct` among `n` samples.
size_t SamplesBeyond(size_t n, double pct);

/// Summarizes latencies at tail percentile `tail_pct`. Empty input
/// gives n = 0.
Latency Summarize(std::vector<double> samples, double tail_pct);

/// `count` completions over `elapsed_us`, per second (0 when no time
/// passed).
double Rate(size_t count, double elapsed_us);

/// Median of `v` (any order; the mean of the middle two for an even
/// count; 0 for empty input).
double Median(std::vector<double> v);

}  // namespace e2e

#endif  // E2EBENCH_MEASURE_H_
