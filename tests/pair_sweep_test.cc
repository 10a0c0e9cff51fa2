// Overlap-sweep oracle tests: route::ForEachIntersectingPair, and the
// two set-level questions built on it (OverlapComponents,
// PredicatesDisjoint), must agree exactly with the brute-force
// all-pairs IntersectionEmpty loop — on seeded random boxes whose
// endpoints collide on purpose (touching and half-open ends, open
// integer gaps, ±inf, empty boxes, duplicates) and on 0-attribute sets.
#include "route/pair_sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "pc/pc_set.h"
#include "serve/partitioner.h"

namespace pcx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Pairs = std::vector<std::pair<size_t, size_t>>;

/// The oracle: every pair, tested directly.
Pairs BrutePairs(const std::vector<Box>& boxes,
                 const std::vector<AttrDomain>& domains) {
  Pairs out;
  for (size_t i = 0; i < boxes.size(); ++i) {
    for (size_t j = i + 1; j < boxes.size(); ++j) {
      if (!boxes[i].IntersectionEmpty(boxes[j], domains)) {
        out.emplace_back(i, j);
      }
    }
  }
  return out;
}

Pairs SweepPairs(const std::vector<Box>& boxes,
                 const std::vector<AttrDomain>& domains) {
  std::vector<const Box*> ptrs;
  for (const Box& b : boxes) ptrs.push_back(&b);
  Pairs out;
  route::ForEachIntersectingPair(ptrs, domains, [&](size_t i, size_t j) {
    out.emplace_back(i, j);
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// Endpoint drawn from a coarse grid so ends collide: half-steps over
/// [-2, 4], sometimes infinite.
double Endpoint(Rng& rng) {
  const int64_t pick = rng.UniformInt(0, 15);
  if (pick == 0) return -kInf;
  if (pick == 1) return kInf;
  return static_cast<double>(rng.UniformInt(-4, 8)) / 2.0;
}

/// A random box: each attribute unbounded, or an interval with random
/// strictness. Endpoints are ordered except occasionally (an inverted,
/// empty interval); open unit intervals like (0, 1) are common, which
/// are empty over an integer domain.
Box RandomBox(Rng& rng, size_t num_attrs) {
  Box box(num_attrs);
  for (size_t d = 0; d < num_attrs; ++d) {
    if (rng.Bernoulli(0.25)) continue;
    Interval iv;
    iv.lo = Endpoint(rng);
    iv.hi = Endpoint(rng);
    if (iv.lo > iv.hi && !rng.Bernoulli(0.1)) std::swap(iv.lo, iv.hi);
    if (rng.Bernoulli(0.15)) {
      iv.lo = static_cast<double>(rng.UniformInt(-2, 3));
      iv.hi = iv.lo + 1.0;
      iv.lo_strict = iv.hi_strict = true;
    } else {
      iv.lo_strict = rng.Bernoulli(0.3);
      iv.hi_strict = rng.Bernoulli(0.3);
    }
    box.SetDim(d, iv);
  }
  return box;
}

std::vector<Box> RandomBoxes(Rng& rng, size_t n, size_t num_attrs) {
  std::vector<Box> boxes;
  for (size_t i = 0; i < n; ++i) {
    if (!boxes.empty() && rng.Bernoulli(0.1)) {
      boxes.push_back(boxes[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(boxes.size()) - 1))]);
    } else {
      boxes.push_back(RandomBox(rng, num_attrs));
    }
  }
  return boxes;
}

std::vector<AttrDomain> RandomDomains(Rng& rng, size_t num_attrs) {
  std::vector<AttrDomain> domains;
  for (size_t d = 0; d < num_attrs; ++d) {
    domains.push_back(rng.Bernoulli(0.5) ? AttrDomain::kInteger
                                         : AttrDomain::kContinuous);
  }
  return domains;
}

PredicateConstraintSet SetOf(const std::vector<Box>& boxes) {
  PredicateConstraintSet pcs;
  for (const Box& b : boxes) {
    pcs.Add(PredicateConstraint(Predicate(b), Box(b.num_attrs()), {0, 1}));
  }
  return pcs;
}

/// Components of the brute-force pair graph, in OverlapComponents'
/// normal form (discovery order by smallest member, members ascending).
std::vector<std::vector<size_t>> BruteComponents(size_t n, const Pairs& pairs) {
  std::vector<size_t> comp(n);
  std::iota(comp.begin(), comp.end(), size_t{0});
  // Relabel to the minimum until stable: quadratic, but obviously right.
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [i, j] : pairs) {
      const size_t m = std::min(comp[i], comp[j]);
      if (comp[i] != m || comp[j] != m) {
        comp[i] = comp[j] = m;
        changed = true;
      }
    }
  }
  std::vector<std::vector<size_t>> out;
  std::vector<size_t> id(n, SIZE_MAX);
  for (size_t i = 0; i < n; ++i) {
    if (id[comp[i]] == SIZE_MAX) {
      id[comp[i]] = out.size();
      out.emplace_back();
    }
    out[id[comp[i]]].push_back(i);
  }
  return out;
}

void ExpectAllAgree(const std::vector<Box>& boxes,
                    const std::vector<AttrDomain>& domains,
                    const std::string& context) {
  const Pairs want = BrutePairs(boxes, domains);
  EXPECT_EQ(SweepPairs(boxes, domains), want) << context;
  const PredicateConstraintSet pcs = SetOf(boxes);
  EXPECT_EQ(pcs.PredicatesDisjoint(domains), want.empty()) << context;
  EXPECT_EQ(OverlapComponents(pcs, domains),
            BruteComponents(boxes.size(), want))
      << context;
}

TEST(PairSweepTest, RandomBoxesMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const size_t num_attrs = static_cast<size_t>(rng.UniformInt(1, 4));
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 80));
    ExpectAllAgree(RandomBoxes(rng, n, num_attrs),
                   RandomDomains(rng, num_attrs),
                   "seed " + std::to_string(seed));
  }
}

TEST(PairSweepTest, CornerCasesMatchBruteForce) {
  const std::vector<AttrDomain> domains = {AttrDomain::kInteger,
                                           AttrDomain::kContinuous};
  std::vector<Box> boxes;
  auto add = [&](Interval a0, Interval a1) {
    Box b(2);
    b.SetDim(0, a0);
    b.SetDim(1, a1);
    boxes.push_back(b);
  };
  add(Interval::Closed(0, 1), Interval::Closed(0, 1));
  add(Interval::Closed(1, 2), Interval::Closed(1, 2));    // touches box 0
  add(Interval{2, 3, true, false}, Interval::Closed(2, 3));  // (2,3]: not 1
  add(Interval{0, 1, true, true}, Interval::All());       // (0,1) over int
  add(Interval::All(), Interval{1, 1, false, true});      // [1,1): empty
  add(Interval::Closed(3, 2), Interval::All());           // inverted
  add(Interval::AtLeast(kInf), Interval::All());          // [inf, inf]
  add(Interval::AtMost(-kInf), Interval::All());          // [-inf,-inf]
  add(Interval::All(), Interval::Closed(-0.0, 0.0));      // -0.0 == 0.0
  add(Interval::All(), Interval::All());                  // universe
  add(Interval::All(), Interval::All());                  // its duplicate
  add(Interval::Closed(1, 2), Interval::Closed(1, 2));    // duplicate of 1
  ExpectAllAgree(boxes, domains, "corners");
  ExpectAllAgree(boxes, {}, "corners, continuous");
}

TEST(PairSweepTest, ZeroAttributeBoxesAllIntersect) {
  const std::vector<Box> boxes(5, Box(0));
  EXPECT_EQ(SweepPairs(boxes, {}).size(), 10u);
  ExpectAllAgree(boxes, {}, "0-attribute");
  ExpectAllAgree({}, {}, "empty set");
  ExpectAllAgree({Box(2)}, {}, "single box");
}

TEST(PairSweepTest, StopsAtTheFirstPairWhenAsked) {
  Rng rng(7);
  const std::vector<Box> boxes = RandomBoxes(rng, 60, 2);
  ASSERT_FALSE(BrutePairs(boxes, {}).empty());
  std::vector<const Box*> ptrs;
  for (const Box& b : boxes) ptrs.push_back(&b);
  size_t calls = 0;
  route::ForEachIntersectingPair(ptrs, {}, [&](size_t, size_t) {
    ++calls;
    return false;
  });
  EXPECT_EQ(calls, 1u);
}

}  // namespace
}  // namespace pcx
