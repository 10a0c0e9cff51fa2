// Quickstart: define predicate-constraints over missing rows, open a
// pcx::Engine over them, and read back deterministic result ranges.
//
// Scenario (paper §4.4): a sales table lost all rows between Nov-11 and
// Nov-13. Two constraints describe the missing days; we bound SUM, COUNT
// and AVG of the missing `price` values.
//
// The walkthrough below exercises the four core concepts:
//
//  1. A PredicateConstraint is a triple (predicate, value box,
//     frequency range): "between lo and hi missing rows satisfy the
//     predicate, and their attribute values lie inside the box". It is
//     knowledge *about* the missing data — no actual rows are needed.
//  2. A PredicateConstraintSet collects the constraints known to hold
//     simultaneously. Constraints are artifacts: serialized to a .pcset
//     file they can be versioned, diffed, and tested like analysis code.
//  3. Engine::Open(uri) is the single entry point to bounding. The URI
//     picks the execution substrate — "local:set.pcset" solves in
//     process (cell decomposition + MILP per query, greedy fast path
//     for disjoint predicates), "snapshot:v.pcxsnap?shards=8" solves
//     sharded, "tcp:host:port" asks a pcx_serve server, and
//     "failover:a|b" asks the first live of a primary and its
//     replicas. Identical code, identical answers, by the engine's
//     bit-identity guarantee.
//  4. Bound returns a StatusOr<ResultRange>: a hard [lo, hi] interval
//     that the true aggregate of the missing rows cannot escape as long
//     as the constraints are correct — unlike a sampling confidence
//     interval, it cannot "fail". Errors are typed StatusCodes, not
//     strings.
//
// Build and run:
//   cmake -B build -S . && cmake --build build -j --target example_quickstart
//   ./build/examples/quickstart

#include <cstdio>
#include <fstream>

#include "engine/engine.h"
#include "pc/serialization.h"

using pcx::AggQuery;
using pcx::Box;
using pcx::Engine;
using pcx::FrequencyConstraint;
using pcx::Interval;
using pcx::Predicate;
using pcx::PredicateConstraint;
using pcx::PredicateConstraintSet;
using pcx::QueryBuilder;

int main() {
  // Schema: attribute 0 = utc (hours since Nov-11 00:00), 1 = price.
  constexpr size_t kUtc = 0;
  constexpr size_t kPrice = 1;
  constexpr size_t kNumAttrs = 2;

  // "Between 50 and 100 items were sold on Nov-11, each priced within
  // [0.99, 129.99]" — and the analogous statement for Nov-12, where the
  // most expensive product costs 149.99. Such statements typically come
  // from business knowledge, SLAs, or historical minima/maxima.
  PredicateConstraintSet constraints;
  {
    // The predicate selects *which* missing rows the statement covers
    // (here: a time range); the box bounds their attribute values.
    Predicate day1(kNumAttrs);
    day1.AddInterval(kUtc, Interval{0.0, 24.0, false, true});  // [0, 24)
    Box values(kNumAttrs);
    values.Constrain(kPrice, Interval::Closed(0.99, 129.99));
    constraints.Add(PredicateConstraint(
        day1, values, FrequencyConstraint::Between(50, 100)));
  }
  {
    Predicate day2(kNumAttrs);
    day2.AddInterval(kUtc, Interval{24.0, 48.0, false, true});  // [24, 48)
    Box values(kNumAttrs);
    values.Constrain(kPrice, Interval::Closed(0.99, 149.99));
    constraints.Add(PredicateConstraint(
        day2, values, FrequencyConstraint::Between(50, 100)));
  }

  // Constraints are artifacts: persist the set, then open an engine
  // over the file. Swapping this URI for "snapshot:...?shards=8" or
  // "tcp:host:port" would run the very same queries sharded or against
  // a remote server — with bit-identical answers. (For an in-memory
  // set, Engine::Local(constraints) skips the file.)
  const char* pcset_path = "/tmp/quickstart_sales.pcset";
  {
    std::ofstream out(pcset_path);
    out << pcx::SerializePcSet(constraints);
  }
  const pcx::StatusOr<Engine> engine =
      Engine::Open(std::string("local:") + pcset_path);
  if (!engine.ok()) {
    std::printf("Engine::Open failed: %s\n",
                engine.status().ToString().c_str());
    return 1;
  }

  // Queries address columns by name through the fluent builder; the
  // engine analyzes the constraint set once (here the two predicates
  // are disjoint, so it uses the greedy partition fast path — no MILP
  // needed) and then answers any number of queries.
  const QueryBuilder base(std::vector<std::string>{"utc", "price"});

  std::printf("Contingency analysis for the Nov-11..Nov-13 outage:\n\n");
  const struct {
    const char* label;
    QueryBuilder query;
  } queries[] = {
      {"SUM(price)  ", QueryBuilder(base).Sum("price")},
      {"COUNT(*)    ", QueryBuilder(base).Count()},
      {"AVG(price)  ", QueryBuilder(base).Avg("price")},
      {"MIN(price)  ", QueryBuilder(base).Min("price")},
      {"MAX(price)  ", QueryBuilder(base).Max("price")},
  };
  for (const auto& [label, query] : queries) {
    const auto range = engine->Bound(query);
    if (!range.ok()) {
      std::printf("%s -> error: %s\n", label,
                  range.status().ToString().c_str());
      continue;
    }
    std::printf("%s in [%10.2f, %10.2f]\n", label, range->lo, range->hi);
  }

  // Queries can carry their own WHERE clause; the solver pushes it into
  // the decomposition (paper Optimization 1), so only constraints
  // overlapping the query region contribute. Restricting to Nov-11
  // drops the Nov-12 constraint from the bound entirely.
  const auto day1_sum = engine->Bound(QueryBuilder(base).Sum("price").WhereIn(
      "utc", Interval{0.0, 24.0, false, true}));  // utc in [0, 24)
  if (day1_sum.ok()) {
    std::printf("\nSUM(price) WHERE utc in Nov-11 only: [%.2f, %.2f]\n",
                day1_sum->lo, day1_sum->hi);
  }

  // The same AggQuery structs the builder produces can be built by hand
  // (pc/query.h) and handed to any backend; see docs/ARCHITECTURE.md
  // ("Engine & backends") for the full picture.
  const auto epoch = engine->Epoch();
  const auto stats = engine->Stats();
  if (epoch.ok() && stats.ok()) {
    std::printf("\nServed %zu queries from epoch %llu (%zu constraints).\n",
                stats->queries, static_cast<unsigned long long>(*epoch),
                stats->num_pcs);
  }
  return 0;
}
