#ifndef PCX_ENGINE_FAILOVER_BACKEND_H_
#define PCX_ENGINE_FAILOVER_BACKEND_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/backend.h"

namespace pcx {

/// The availability backend: ask ONE candidate and fall over to the
/// next when it dies. Built for the primary/replica serving topology —
/// candidate 0 is the primary, the rest are read-only replicas tailing
/// it via the SYNC verb — but any list of backend URIs works.
///
/// Selection: at construction and before every call, all candidates
/// are probed with Health() (unopened ones are opened first) and the one
/// with the freshest loaded epoch wins; ties go to the lowest index, so
/// a caught-up primary is always preferred over its replicas. A call
/// that fails with kUnavailable or kProtocolError demotes the candidate
/// (its connection is dropped, so a later re-probe reconnects fresh)
/// and retries on the next-best one — each candidate is tried at most
/// once per call. Typed server-side errors (bad query, no snapshot)
/// pass through: the backend answered, failing over would just repeat
/// the same error.
///
/// A replica serves the last epoch it tailed before the primary died,
/// so the failed-over answer can be slightly stale; it is never wrong
/// for its epoch (the bit-identity guarantee is per epoch).
class FailoverBackend : public BoundBackend {
 public:
  /// Opens one candidate URI into a live backend. Injected (rather than
  /// calling Engine::Open directly) so this file does not depend on the
  /// engine layer above it; tests substitute canned backends.
  using Opener =
      std::function<StatusOr<std::shared_ptr<BoundBackend>>(const std::string&)>;

  /// At least one URI. Construction makes one pick, so num_attrs() is
  /// known before the first call; candidates that do not answer stay
  /// closed and are retried by later picks — a dead replica URI (or an
  /// entirely dead list) must not prevent construction.
  FailoverBackend(std::vector<std::string> uris, Opener opener);

  std::string name() const override;
  size_t num_attrs() const override;
  StatusOr<ResultRange> Bound(const AggQuery& query) override;
  StatusOr<std::vector<GroupRange>> BoundGroupBy(
      const AggQuery& query, size_t group_attr,
      const std::vector<double>& group_values) override;
  StatusOr<EngineStats> Stats() override;
  StatusOr<uint64_t> Epoch() override;
  StatusOr<HealthInfo> Health() override;
  /// Forwards the line to the picked candidate, failing over like every
  /// other call.
  StatusOr<std::string> Command(const std::string& line) override;
  /// Scrapes the picked candidate, failing over like every other call.
  StatusOr<std::string> Metrics() override;

  size_t num_candidates() const { return uris_.size(); }

 private:
  /// Index of the best live candidate (mu_ held): opens unopened slots,
  /// probes health, picks the freshest loaded epoch (lowest index on
  /// ties). kUnavailable when nothing answers.
  StatusOr<size_t> PickLocked() REQUIRES(mu_);
  /// Drops slot `i` so the next PickLocked reconnects it from scratch
  /// (mu_ held). A poisoned remote session must not be reused.
  void DemoteLocked(size_t i) REQUIRES(mu_);
  /// Runs `op` against the best candidate, failing over on
  /// kUnavailable/kProtocolError until every candidate was tried once.
  template <typename T>
  StatusOr<T> WithFailover(
      const std::function<StatusOr<T>(BoundBackend&)>& op);

  mutable Mutex mu_;
  std::vector<std::string> uris_;
  Opener opener_;
  std::vector<std::shared_ptr<BoundBackend>> slots_
      GUARDED_BY(mu_);  ///< null = not open
};

}  // namespace pcx

#endif  // PCX_ENGINE_FAILOVER_BACKEND_H_
