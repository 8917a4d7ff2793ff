// ValidateGraph against the brute-force reference (testing/
// reference_graph_check.h) over seeded mutations of small valid graphs:
// ER and nested-partition graphs, unweighted and with AssignWeights
// weights, each broken by one or two mutations. The verdict and the
// StatusCode must match the reference's, and every rejection must name a
// defect the graph really has; an asymmetry must name a directed entry
// whose mirror is missing.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "gen/erdos_renyi.h"
#include "gen/nested_partition.h"
#include "gen/weight_assign.h"
#include "graph/graph_checks.h"
#include "testing/reference_graph_check.h"
#include "util/random.h"

namespace oca {
namespace {

// Raw CSR arrays that a mutation may leave in any state.
struct Csr {
  std::vector<uint64_t> offsets;
  std::vector<NodeId> nbrs;
  std::vector<double> weights;  // empty: unweighted

  explicit Csr(const Graph& g)
      : offsets(g.offsets().begin(), g.offsets().end()),
        nbrs(g.neighbor_array().begin(), g.neighbor_array().end()),
        weights(g.weight_array().begin(), g.weight_array().end()) {}
  Csr(std::vector<uint64_t> o, std::vector<NodeId> a, std::vector<double> w)
      : offsets(std::move(o)), nbrs(std::move(a)), weights(std::move(w)) {}

  Graph ToGraph() const { return Graph(offsets, nbrs, weights, {}); }
  uint64_t n() const { return offsets.size() - 1; }
  bool weighted() const { return !weights.empty(); }

  // The row holding entry e, on offsets that are still well formed.
  uint64_t RowOf(uint64_t e) const {
    return static_cast<uint64_t>(
        std::upper_bound(offsets.begin(), offsets.end(), e) -
        offsets.begin() - 1);
  }
  void Insert(uint64_t e, uint64_t row, NodeId v, double w) {
    nbrs.insert(nbrs.begin() + static_cast<std::ptrdiff_t>(e), v);
    if (weighted()) {
      weights.insert(weights.begin() + static_cast<std::ptrdiff_t>(e), w);
    }
    for (uint64_t r = row + 1; r < offsets.size(); ++r) ++offsets[r];
  }
  void Erase(uint64_t e) {
    const uint64_t row = RowOf(e);
    nbrs.erase(nbrs.begin() + static_cast<std::ptrdiff_t>(e));
    if (weighted()) {
      weights.erase(weights.begin() + static_cast<std::ptrdiff_t>(e));
    }
    for (uint64_t r = row + 1; r < offsets.size(); ++r) --offsets[r];
  }
};

// Linear scan of row u (rows may be unsorted); `at` gets the position.
bool FindEntry(const Csr& c, uint64_t u, uint64_t v, uint64_t* at) {
  if (u >= c.n()) return false;
  for (uint64_t e = c.offsets[u]; e < c.offsets[u + 1]; ++e) {
    if (c.nbrs[e] == v) {
      *at = e;
      return true;
    }
  }
  return false;
}

enum Mutation {
  kSwapEntries,
  kRetarget,
  kRetargetOutOfRange,
  kRetargetToSelf,
  kDropDirection,
  kDuplicateEntry,
  kStrayEntry,
  kNudgeWeight,
  kNanWeight,
  kZeroWeight,
  kNegativeWeight,
  kBadWeightBothWays,
  kShiftRowBoundary,
  kBreakOffsets,  // last: a second mutation never follows it
  kNumMutations,
};

// Applies `kind` at a random place; false if the graph offers none.
bool Mutate(int kind, Csr* c, Rng* rng) {
  const uint64_t n = c->n();
  const uint64_t m = c->nbrs.size();
  if (m == 0 && kind != kStrayEntry && kind != kBreakOffsets) return false;
  const uint64_t e = m == 0 ? 0 : rng->NextBounded(m);
  switch (kind) {
    case kSwapEntries: {
      const uint64_t f = rng->NextBounded(m);
      std::swap(c->nbrs[e], c->nbrs[f]);
      if (c->weighted()) std::swap(c->weights[e], c->weights[f]);
      return true;
    }
    case kRetarget:
      c->nbrs[e] = static_cast<NodeId>(rng->NextBounded(n));
      return true;
    case kRetargetOutOfRange:
      c->nbrs[e] = rng->NextBool(0.5)
                       ? static_cast<NodeId>(n + rng->NextBounded(3))
                       : std::numeric_limits<NodeId>::max();
      return true;
    case kRetargetToSelf:
      c->nbrs[e] = static_cast<NodeId>(c->RowOf(e));
      return true;
    case kDropDirection:
      c->Erase(e);
      return true;
    case kDuplicateEntry:
      c->Insert(e + 1, c->RowOf(e), c->nbrs[e],
                c->weighted() ? c->weights[e] : 0.0);
      return true;
    case kStrayEntry: {
      // A new entry before the row's first larger one (its sorted place
      // in a sorted row): the edge has no mirror.
      const uint64_t u = rng->NextBounded(n);
      const NodeId v = static_cast<NodeId>(rng->NextBounded(n));
      auto first = c->nbrs.begin() + static_cast<std::ptrdiff_t>(c->offsets[u]);
      auto last =
          c->nbrs.begin() + static_cast<std::ptrdiff_t>(c->offsets[u + 1]);
      if (v == u || std::find(first, last, v) != last) return false;
      auto at = std::find_if(first, last, [v](NodeId x) { return x > v; });
      c->Insert(static_cast<uint64_t>(at - c->nbrs.begin()), u, v,
                0.5 + rng->NextDouble());
      return true;
    }
    case kNudgeWeight:
      if (!c->weighted()) return false;
      c->weights[e] = std::nextafter(
          c->weights[e], rng->NextBool(0.5)
                             ? std::numeric_limits<double>::infinity()
                             : 0.0);
      return true;
    case kNanWeight:
      if (!c->weighted()) return false;
      c->weights[e] = std::numeric_limits<double>::quiet_NaN();
      return true;
    case kZeroWeight:
      if (!c->weighted()) return false;
      c->weights[e] = rng->NextBool(0.5) ? 0.0 : -0.0;
      return true;
    case kNegativeWeight:
      if (!c->weighted()) return false;
      c->weights[e] = -1.0;
      return true;
    case kBadWeightBothWays: {
      // The same bad weight on both directions, so that the mirrors
      // still agree and only the value check can object.
      uint64_t mirror = 0;
      if (!c->weighted() || !FindEntry(*c, c->nbrs[e], c->RowOf(e), &mirror)) {
        return false;
      }
      constexpr double kBad[] = {0.0, -0.0, -1.0,
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};
      c->weights[e] = c->weights[mirror] = kBad[rng->NextBounded(5)];
      return true;
    }
    case kBreakOffsets: {
      if (n < 2) return false;
      const uint64_t i = 1 + rng->NextBounded(n - 1);
      c->offsets[i] = c->offsets[i + 1] + 1 + rng->NextBounded(3);
      return true;
    }
    case kShiftRowBoundary: {
      // Move one entry across the boundary of two adjacent rows; the
      // offsets stay monotone.
      if (n < 2) return false;
      const uint64_t i = 1 + rng->NextBounded(n - 1);
      if (rng->NextBool(0.5) && c->offsets[i] < c->offsets[i + 1]) {
        ++c->offsets[i];
      } else if (c->offsets[i] > c->offsets[i - 1]) {
        --c->offsets[i];
      } else {
        return false;
      }
      return true;
    }
  }
  return false;
}

bool RowHas(const Csr& c, uint64_t u, auto pred) {
  for (uint64_t e = c.offsets[u]; e < c.offsets[u + 1]; ++e) {
    if (pred(e)) return true;
  }
  return false;
}

// The defect `status` names must be one `c` really has.
void ExpectNamesRealDefect(const Csr& c, const Status& status) {
  const std::string& msg = status.message();
  const char* s = msg.c_str();
  uint64_t a = 0, b = 0, ea = 0, eb = 0;
  const uint64_t n = c.n();
  if (std::sscanf(s, "asymmetric edge %" SCNu64 "-%" SCNu64, &a, &b) == 2) {
    EXPECT_TRUE(FindEntry(c, a, b, &ea)) << msg << ": no such entry";
    EXPECT_FALSE(FindEntry(c, b, a, &eb)) << msg << ": the mirror exists";
  } else if (msg.find("weight asymmetric across directions") !=
             std::string::npos) {
    ASSERT_EQ(std::sscanf(s, "edge %" SCNu64 "-%" SCNu64, &a, &b), 2) << msg;
    ASSERT_TRUE(FindEntry(c, a, b, &ea) && FindEntry(c, b, a, &eb)) << msg;
    EXPECT_NE(c.weights[ea], c.weights[eb]) << msg;
  } else if (msg.find("non-finite or non-positive weight") !=
             std::string::npos) {
    ASSERT_EQ(std::sscanf(s, "edge %" SCNu64 "-%" SCNu64, &a, &b), 2) << msg;
    ASSERT_LT(a, n) << msg;
    EXPECT_TRUE(RowHas(c, a, [&](uint64_t e) {
      return c.nbrs[e] == b &&
             !(std::isfinite(c.weights[e]) && c.weights[e] > 0.0);
    })) << msg;
  } else if (std::sscanf(s, "neighbors of node %" SCNu64, &a) == 1) {
    ASSERT_LT(a, n) << msg;
    EXPECT_NE(msg.find("not strictly sorted"), std::string::npos) << msg;
    EXPECT_TRUE(RowHas(c, a, [&](uint64_t e) {
      return e > c.offsets[a] && c.nbrs[e - 1] >= c.nbrs[e];
    })) << msg;
  } else if (std::sscanf(s, "self-loop at node %" SCNu64, &a) == 1) {
    ASSERT_LT(a, n) << msg;
    EXPECT_TRUE(RowHas(c, a, [&](uint64_t e) { return c.nbrs[e] == a; }))
        << msg;
  } else if (std::sscanf(s, "neighbor id out of range at node %" SCNu64,
                         &a) == 1) {
    ASSERT_LT(a, n) << msg;
    EXPECT_TRUE(RowHas(c, a, [&](uint64_t e) { return c.nbrs[e] >= n; }))
        << msg;
  } else if (std::sscanf(s, "CSR offsets not monotone at node %" SCNu64,
                         &a) == 1) {
    ASSERT_LT(a, n) << msg;
    EXPECT_GT(c.offsets[a], c.offsets[a + 1]) << msg;
  } else {
    ADD_FAILURE() << "unrecognised rejection: " << msg;
  }
}

// Checks one (possibly broken) graph; returns true if it was rejected.
bool CheckAgainstReference(const Csr& c) {
  const Graph g = c.ToGraph();
  const Status got = ValidateGraph(g);
  const Status want = testing::ReferenceValidateGraph(g);
  EXPECT_EQ(got.ok(), want.ok()) << "ValidateGraph: '" << got.message()
                                 << "', reference: '" << want.message() << "'";
  EXPECT_EQ(got.code(), want.code());
  if (!got.ok()) ExpectNamesRealDefect(c, got);
  return !got.ok();
}

std::vector<Graph> BaseGraphs() {
  std::vector<Graph> unweighted;
  for (uint64_t seed : {3, 4}) {
    Rng rng(seed);
    unweighted.push_back(ErdosRenyi(24, 0.2, &rng).value());
    unweighted.push_back(ErdosRenyi(40, 0.06, &rng).value());  // isolated nodes
  }
  for (uint64_t seed : {5, 6}) {
    NestedPartitionOptions opt;
    opt.num_supers = 3;
    opt.subs_per_super = 2;
    opt.nodes_per_sub = 8;
    opt.p_sub = 0.8;
    opt.p_super = 0.2;
    opt.p_out = 0.05;
    opt.seed = seed;
    unweighted.push_back(GenerateNestedPartition(opt).value().graph);
  }
  std::vector<Graph> all = unweighted;
  for (const Graph& g : unweighted) all.push_back(AssignWeights(g).value());
  return all;
}

TEST(ValidateGraphDifferentialTest, SeededMutationsMatchReference) {
  const std::vector<Graph> bases = BaseGraphs();
  // Per mutation kind: [0] alone, [1] with a second mutation stacked.
  std::vector<std::array<int, 2>> applied(kNumMutations);
  std::vector<std::array<int, 2>> rejected(kNumMutations);
  Rng rng(2024);
  for (const Graph& base : bases) {
    ASSERT_TRUE(ValidateGraph(base).ok());
    ASSERT_TRUE(testing::ReferenceValidateGraph(base).ok());
    for (int kind = 0; kind < kNumMutations; ++kind) {
      for (int trial = 0; trial < 60; ++trial) {
        Csr c(base);
        if (!Mutate(kind, &c, &rng)) continue;
        // One trial in four stacks a second mutation. Broken offsets
        // end the stack: the others need rows to mutate.
        int stacked = 0;
        if (kind != kBreakOffsets && rng.NextBool(0.25)) {
          stacked = Mutate(static_cast<int>(rng.NextBounded(kBreakOffsets)),
                           &c, &rng);
        }
        ++applied[kind][stacked];
        if (CheckAgainstReference(c)) ++rejected[kind][stacked];
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  for (int kind = 0; kind < kNumMutations; ++kind) {
    EXPECT_GT(applied[kind][0], 0) << "mutation " << kind << " never applied";
    EXPECT_GT(rejected[kind][0] + rejected[kind][1], 0)
        << "mutation " << kind << " never rejected";
  }
  // Alone, these always break the contract.
  for (int kind : {kRetargetOutOfRange, kRetargetToSelf, kDropDirection,
                   kDuplicateEntry, kStrayEntry, kNudgeWeight, kNanWeight,
                   kZeroWeight, kNegativeWeight, kBadWeightBothWays,
                   kBreakOffsets}) {
    EXPECT_EQ(rejected[kind][0], applied[kind][0]) << "mutation " << kind;
  }
}

// Row 3's only entry is below 3 and no row probes row 3, so the walk
// meets it unconsumed on reaching row 3: only the start-of-row check
// sees it.
TEST(ValidateGraphDifferentialTest, UnconsumedLowerEntryCaughtAtRowStart) {
  Csr c({0, 1, 2, 2, 3}, {1, 0, 0}, {});
  EXPECT_TRUE(CheckAgainstReference(c));
  EXPECT_EQ(ValidateGraph(c.ToGraph()).message(), "asymmetric edge 3-0");

  Csr weighted({0, 1, 2, 2, 3}, {1, 0, 0}, {1.5, 1.5, 2.0});
  EXPECT_TRUE(CheckAgainstReference(weighted));
  EXPECT_EQ(ValidateGraph(weighted.ToGraph()).message(),
            "asymmetric edge 3-0");
}

// Row 1 probes row 2 while row 2's cursor still holds 0, whose mirror
// row 0 lacks: the message names that entry, not the edge 1-2 whose
// mirror exists.
TEST(ValidateGraphDifferentialTest, ProbeNamesTheEntryWithoutMirror) {
  Csr c({0, 0, 1, 3}, {2, 0, 1}, {});
  EXPECT_TRUE(CheckAgainstReference(c));
  EXPECT_EQ(ValidateGraph(c.ToGraph()).message(), "asymmetric edge 2-0");
}

TEST(ValidateGraphDifferentialTest, UnsortedAndAsymmetric) {
  // Row 0 = {2, 1} is out of order, and row 1 lists nothing.
  Csr c({0, 2, 2, 3}, {2, 1, 0}, {});
  EXPECT_TRUE(CheckAgainstReference(c));
  // Row 0 = {1} has no mirror, and row 2 = {4, 3} comes later, out of
  // order.
  Csr d({0, 1, 1, 3, 4, 5}, {1, 4, 3, 2, 2}, {});
  EXPECT_TRUE(CheckAgainstReference(d));
}

TEST(ValidateGraphDifferentialTest, WeightMirrorsCompareBits) {
  // Equal weights in both directions pass; one ulp apart fails.
  const double w = 0.7;
  Csr same({0, 1, 2}, {1, 0}, {w, w});
  EXPECT_FALSE(CheckAgainstReference(same));
  Csr off({0, 1, 2}, {1, 0}, {w, std::nextafter(w, 1.0)});
  EXPECT_TRUE(CheckAgainstReference(off));
  EXPECT_NE(ValidateGraph(off.ToGraph()).message().find("weight asymmetric"),
            std::string::npos);
}

}  // namespace
}  // namespace oca
