#include "measure.h"

#include <algorithm>
#include <cmath>

namespace e2e {

namespace {

// 0-based index of the nearest-rank percentile. The epsilon keeps
// 99.9% of 1000 at rank 999 despite 99.9 / 100 rounding up.
size_t RankIndex(size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  const size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

double TailPercentile(const std::string& workload) {
  if (workload == "mutate") return 80.0;
  return workload == "fanin" ? 95.0 : 99.0;
}

double Percentile(const std::vector<double>& sorted, double pct) {
  return sorted[RankIndex(sorted.size(), pct)];
}

size_t SamplesBeyond(size_t n, double pct) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, pct);
}

Latency Summarize(std::vector<double> samples, double tail_pct) {
  Latency out;
  out.n = samples.size();
  out.tail_pct = tail_pct;
  if (out.n == 0) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = Percentile(samples, 50.0);
  out.tail = Percentile(samples, tail_pct);
  out.beyond = SamplesBeyond(out.n, tail_pct);
  return out;
}

double Rate(size_t count, double elapsed_us) {
  return elapsed_us > 0.0 ? static_cast<double>(count) / (elapsed_us / 1e6)
                          : 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

}  // namespace e2e
