#include "engine/failover_backend.h"

#include <utility>

#include "common/metrics.h"

namespace pcx {

namespace {

bool IsFailoverWorthy(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kProtocolError;
}

}  // namespace

FailoverBackend::FailoverBackend(std::vector<std::string> uris, Opener opener)
    : uris_(std::move(uris)),
      opener_(std::move(opener)),
      slots_(uris_.size()) {
  // Open and probe the candidates once so num_attrs() answers before the
  // first call: callers parse attribute-indexed queries against it.
  MutexLock lock(mu_);
  (void)PickLocked();
}

std::string FailoverBackend::name() const {
  std::string out = "failover:";
  for (size_t i = 0; i < uris_.size(); ++i) {
    if (i > 0) out += '|';
    out += uris_[i];
  }
  return out;
}

size_t FailoverBackend::num_attrs() const {
  MutexLock lock(mu_);
  for (const std::shared_ptr<BoundBackend>& slot : slots_) {
    if (slot != nullptr && slot->num_attrs() != 0) return slot->num_attrs();
  }
  return 0;
}

StatusOr<size_t> FailoverBackend::PickLocked() {
  // Best = freshest loaded epoch; ties break toward the lowest index so
  // the primary (candidate 0) wins over caught-up replicas. An "up but
  // empty" candidate (loaded=false) is a last resort: it can still
  // answer Health() and typed errors, which beats kUnavailable.
  size_t best = uris_.size();
  uint64_t best_epoch = 0;
  bool best_loaded = false;
  Status last_error = Status::Unavailable("failover: has no candidates");
  for (size_t i = 0; i < uris_.size(); ++i) {
    if (slots_[i] == nullptr) {
      StatusOr<std::shared_ptr<BoundBackend>> opened = opener_(uris_[i]);
      if (!opened.ok()) {
        last_error = opened.status();
        continue;
      }
      slots_[i] = std::move(*opened);
    }
    const StatusOr<HealthInfo> health = slots_[i]->Health();
    if (!health.ok()) {
      last_error = health.status();
      if (IsFailoverWorthy(health.status())) DemoteLocked(i);
      continue;
    }
    const bool better =
        best == uris_.size() || (health->loaded && !best_loaded) ||
        (health->loaded == best_loaded && health->epoch > best_epoch);
    if (better) {
      best = i;
      best_epoch = health->epoch;
      best_loaded = health->loaded;
    }
  }
  if (best == uris_.size()) {
    return Status::Unavailable("failover: no candidate is reachable (last: " +
                               last_error.message() + ")");
  }
  return best;
}

void FailoverBackend::DemoteLocked(size_t i) {
  slots_[i].reset();
  // Client-side event with no owning server registry: the process
  // default is the natural home (one failover stack per process).
  MetricsRegistry::Default()
      .GetCounter("pcx_failover_demotions_total", {},
                  "Candidate backends demoted after a failover-worthy error")
      .Increment();
}

template <typename T>
StatusOr<T> FailoverBackend::WithFailover(
    const std::function<StatusOr<T>(BoundBackend&)>& op) {
  Status last_error = Status::OK();
  // Each candidate gets at most one shot per call: a demotion removes
  // it from the next PickLocked (until re-probed by a later call), and
  // the loop bound stops a pathological flip-flop.
  for (size_t attempt = 0; attempt < uris_.size(); ++attempt) {
    std::shared_ptr<BoundBackend> target;
    size_t index = 0;
    {
      MutexLock lock(mu_);
      PCX_ASSIGN_OR_RETURN(index, PickLocked());
      target = slots_[index];
    }
    // The call itself runs without mu_: backends are internally
    // synchronized, and holding mu_ across a blocking wire round-trip
    // would serialize queries against re-picks.
    StatusOr<T> result = op(*target);
    if (result.ok() || !IsFailoverWorthy(result.status())) return result;
    last_error = result.status();
    MutexLock lock(mu_);
    // Demote only if the slot is still the one we used — a concurrent
    // caller may have already demoted and reopened it.
    if (slots_[index] == target) DemoteLocked(index);
  }
  return last_error;
}

StatusOr<ResultRange> FailoverBackend::Bound(const AggQuery& query) {
  return WithFailover<ResultRange>(
      [&](BoundBackend& b) { return b.Bound(query); });
}

StatusOr<std::vector<GroupRange>> FailoverBackend::BoundGroupBy(
    const AggQuery& query, size_t group_attr,
    const std::vector<double>& group_values) {
  return WithFailover<std::vector<GroupRange>>([&](BoundBackend& b) {
    return b.BoundGroupBy(query, group_attr, group_values);
  });
}

StatusOr<EngineStats> FailoverBackend::Stats() {
  return WithFailover<EngineStats>(
      [](BoundBackend& b) { return b.Stats(); });
}

StatusOr<uint64_t> FailoverBackend::Epoch() {
  return WithFailover<uint64_t>([](BoundBackend& b) { return b.Epoch(); });
}

StatusOr<HealthInfo> FailoverBackend::Health() {
  return WithFailover<HealthInfo>(
      [](BoundBackend& b) { return b.Health(); });
}

StatusOr<std::string> FailoverBackend::Command(const std::string& line) {
  return WithFailover<std::string>(
      [&](BoundBackend& b) { return b.Command(line); });
}

StatusOr<std::string> FailoverBackend::Metrics() {
  return WithFailover<std::string>(
      [](BoundBackend& b) { return b.Metrics(); });
}

}  // namespace pcx
