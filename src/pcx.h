#ifndef PCX_PCX_H_
#define PCX_PCX_H_

/// \file pcx.h
/// Umbrella header: the public API of the pcx library.
///
/// pcx reproduces the SIGMOD'20 predicate-constraints system: given
/// declarative constraints on *missing* rows ("between lo and hi rows
/// match predicate ψ, with values inside box B"), it computes hard
/// deterministic ranges for aggregate queries over those rows.
///
/// **The primary entry point is the engine/backend API.** One
/// interface, pcx::BoundBackend (engine/backend.h), captures the whole
/// operation — Bound / BoundBatch / BoundGroupBy / Stats / Epoch — and
/// pcx::Engine::Open(uri) (engine/engine.h) selects how it executes:
///
///   - "local:<pcset>"               in-process unsharded solving
///   - "snapshot:<path>?shards=K"    in-process sharded solving
///   - "tcp:<host>:<port>"           a pcx_serve server over the wire
///   - "failover:<uri>|<uri>"        the first live of a primary and its
///                                   replicas
///
/// All backends answer bit-identically at the same epoch, and
/// pcx::QueryBuilder (engine/query_builder.h) builds the AggQuery
/// values they consume from named columns. Code written against
/// Engine/BoundBackend is substrate-agnostic: swapping the URI moves
/// it between in-process, sharded, remote, and replicated execution.
///
/// The layers underneath, in the order a new reader should meet them:
///
///   - pcx::PredicateConstraint / pcx::PredicateConstraintSet
///     (pc/predicate_constraint.h, pc/pc_set.h) — declare what is
///     known about the missing rows.
///   - pcx::AggQuery (pc/query.h) — SUM/COUNT/AVG/MIN/MAX with an
///     optional conjunctive-range WHERE predicate.
///   - pcx::PcBoundSolver (pc/bound_solver.h) — the main solver:
///     Bound(query) -> StatusOr<ResultRange>. Internally runs cell
///     decomposition (pc/cell_decomposition.h) and the MILP engine
///     (solver/milp.h); callers never touch those directly unless they
///     want the Fig. 7 counters or a custom SatChecker.
///   - the serving subsystem (serve/) — versioned snapshots, the
///     skew-aware partitioner, ShardedBoundSolver, and the pcx_serve
///     line protocol the remote backend speaks.
///   - pcx::EdgeCoverJoinBound / pcx::NaiveJoinBound
///     (join/join_bound.h) — combine per-relation single-table bounds
///     into a multi-relation join bound, via a minimum fractional edge
///     cover or the Cartesian product.
///   - pcx::Estimator implementations (baselines/) and the evaluation
///     harness (eval/harness.h) — the paper's §6 comparison machinery:
///     failure rate and median over-estimation over a query workload.
///   - pcx::workload generators (workload/) — synthetic datasets,
///     missingness patterns, and PC/query generators used by the
///     bench/ figure reproductions.
///
/// Everything returns pcx::Status / pcx::StatusOr<T> (common/status.h,
/// common/statusor.h) rather than throwing; error categories are typed
/// pcx::StatusCodes that survive the serving protocol round-trip.
///
/// Fine-grained headers remain available for targeted includes;
/// including this header pulls in the whole library surface.
/// See examples/quickstart.cpp for a complete commented walkthrough and
/// docs/ARCHITECTURE.md for the module graph.

// The backend API (primary entry point) leads the umbrella.
#include "engine/backend.h"
#include "engine/engine.h"
#include "engine/local_backend.h"
#include "engine/query_builder.h"
#include "engine/remote_backend.h"
#include "engine/sharded_backend.h"

// Fine-grained library surface, grouped by module.
#include "baselines/daq.h"
#include "baselines/estimator.h"
#include "baselines/extrapolation.h"
#include "baselines/gmm.h"
#include "baselines/histogram.h"
#include "baselines/pc_estimator.h"
#include "baselines/sampling.h"
#include "common/covering_set.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "eval/harness.h"
#include "join/edge_cover.h"
#include "join/elastic_sensitivity.h"
#include "join/hypergraph.h"
#include "join/join_bound.h"
#include "pc/bound_solver.h"
#include "pc/cell_decomposition.h"
#include "pc/combine.h"
#include "pc/group_by.h"
#include "pc/instance_builder.h"
#include "pc/pc_set.h"
#include "pc/predicate_constraint.h"
#include "pc/query.h"
#include "pc/serialization.h"
#include "predicate/box.h"
#include "predicate/interval.h"
#include "predicate/predicate.h"
#include "predicate/sat.h"
#include "relation/aggregate.h"
#include "relation/csv.h"
#include "relation/join.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "serve/partitioner.h"
#include "serve/server.h"
#include "serve/sharded_solver.h"
#include "serve/snapshot.h"
#include "solver/lp_model.h"
#include "solver/milp.h"
#include "solver/simplex.h"
#include "workload/datasets.h"
#include "workload/missing.h"
#include "workload/pc_gen.h"
#include "workload/query_gen.h"

#endif  // PCX_PCX_H_
