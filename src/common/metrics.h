#ifndef PCX_COMMON_METRICS_H_
#define PCX_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pcx {

/// Process observability primitives: named atomic counters, gauges and
/// fixed-bucket latency histograms, collected in a MetricsRegistry and
/// rendered as Prometheus text exposition (the METRICS wire verb).
///
/// Design contract ("lock-cheap"): the registry mutex is taken only on
/// Get* (registration/lookup). Every returned reference is stable for
/// the registry's lifetime, so hot paths resolve their metrics once at
/// setup and then touch nothing but relaxed atomics per event — an
/// Observe() is a couple of fetch_adds, never a lock.

/// Every metric owns its cache lines: serving threads update different
/// series concurrently, and series allocated side by side must not
/// false-share (which series end up neighbours depends on registration
/// order, so without this a change to the set of series moves latency).
inline constexpr size_t kMetricAlign = 64;

/// Monotonic event counter.
class alignas(kMetricAlign) Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that goes up and down (queue depth, lag, open connections).
/// MaxWith maintains high-water marks without a second metric type.
class alignas(kMetricAlign) Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Returns the post-add value (one atomic op — lets a caller feed a
  /// high-water MaxWith without re-reading a racing gauge).
  int64_t Add(int64_t d) {
    return value_.fetch_add(d, std::memory_order_relaxed) + d;
  }
  void Sub(int64_t d) { value_.fetch_sub(d, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if below it (lock-free running maximum).
  void MaxWith(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket latency histogram with log-spaced (power-of-two) bucket
/// bounds: 1, 2, 4, ..., 2^26 (≈67 s in microseconds), plus +Inf. Exact
/// count and sum are kept alongside the buckets, so averages are exact
/// and p50/p90/p99 are derivable to within one bucket's resolution
/// (a factor of 2 — the honest precision of a fixed-layout histogram).
///
/// Concurrency: Observe is wait-free per bucket (one fetch_add) plus a
/// CAS loop on the double-valued sum; readers see each observation's
/// bucket/sum updates independently (a scrape may be mid-observation by
/// one event — the standard Prometheus tolerance), but count() is
/// derived from the buckets so `sum(buckets) == count` always holds in
/// one exposition.
class alignas(kMetricAlign) Histogram {
 public:
  /// Finite bucket upper bounds: 2^0 .. 2^(kNumFiniteBuckets-1).
  static constexpr size_t kNumFiniteBuckets = 27;
  /// Finite buckets + the +Inf overflow bucket.
  static constexpr size_t kNumBuckets = kNumFiniteBuckets + 1;

  /// Upper bound of bucket `i`; +infinity for the last bucket.
  static double BucketBound(size_t i);

  /// Records one observation (negative values clamp to 0).
  void Observe(double value);

  /// Number of observations in bucket `i` (not cumulative).
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Total observations (the sum over all buckets).
  uint64_t count() const;
  /// Exact sum of all observed values.
  double sum() const;

  /// The q-quantile (0 <= q <= 1) estimated by linear interpolation
  /// within the holding bucket; NaN when the histogram is empty.
  double Quantile(double q) const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_bits_{0};  ///< bit-cast double, CAS-added
};

/// Label set of one series, e.g. {{"verb", "BOUND"}}. Order is
/// significant for series identity (callers use a fixed order per
/// family, which every call site in this codebase does).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Registry of named metric families, each holding one series per label
/// set. Get* registers on first use and returns the same stable
/// reference afterwards; asking for an existing name with a different
/// metric type is a programming error (PCX_CHECK).
///
/// Naming follows Prometheus conventions: counters end in "_total",
/// histograms are exposed as <name>_bucket/<name>_sum/<name>_count.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name, const MetricLabels& labels = {},
                      const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const MetricLabels& labels = {},
                  const std::string& help = "");
  Histogram& GetHistogram(const std::string& name,
                          const MetricLabels& labels = {},
                          const std::string& help = "");

  /// Renders every family in Prometheus text exposition format (names
  /// sorted, series sorted within a family, one # TYPE/# HELP pair per
  /// family). Deterministic given fixed metric values.
  std::string Exposition() const;

  /// Process-wide registry for components without a natural owner
  /// (client-side backends). Server processes own their registry so
  /// tests can host several isolated servers.
  static MetricsRegistry& Default();

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Series {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Type type = Type::kCounter;
    std::string help;
    /// Keyed by the rendered label string, so identity is structural.
    std::map<std::string, Series> series;
  };

  Series& GetSeries(const std::string& name, const MetricLabels& labels,
                    const std::string& help, Type type);

  /// Reader/writer: registration (GetSeries) writes the family map,
  /// scrapes (Exposition) only read it — concurrent scrapes never
  /// serialize against each other. The metric values themselves are
  /// atomics reached through stable references, never under this lock.
  mutable SharedMutex mu_;
  std::map<std::string, Family> families_ GUARDED_BY(mu_);
};

/// Renders a label set as `{k1="v1",k2="v2"}` with Prometheus escaping
/// (backslash, quote, newline); empty labels render as "".
std::string FormatMetricLabels(const MetricLabels& labels);

}  // namespace pcx

#endif  // PCX_COMMON_METRICS_H_
