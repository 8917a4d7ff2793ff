#include "core/oca.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/daisy.h"
#include "gen/lfr.h"
#include "metrics/theta.h"
#include "testing/test_graphs.h"

namespace oca {
namespace {

using testing::KarateClub;
using testing::TwoCliquesBridge;
using testing::TwoCliquesOverlap;

OcaOptions SmallGraphOptions(uint64_t seed = 42) {
  OcaOptions opt;
  opt.seed = seed;
  opt.halting.max_seeds = 50;
  opt.halting.target_coverage = 1.0;
  opt.halting.stagnation_window = 20;
  opt.min_community_size = 3;
  return opt;
}

TEST(OcaTest, FindsBothCliques) {
  Graph g = TwoCliquesBridge();
  auto result = RunOca(g, SmallGraphOptions()).value();
  ASSERT_EQ(result.cover.size(), 2u);
  EXPECT_EQ(result.cover[0], (Community{0, 1, 2, 3, 4}));
  EXPECT_EQ(result.cover[1], (Community{5, 6, 7, 8, 9}));
}

TEST(OcaTest, FindsOverlappingCliques) {
  Graph g = TwoCliquesOverlap();
  auto result = RunOca(g, SmallGraphOptions()).value();
  ASSERT_EQ(result.cover.size(), 2u);
  EXPECT_EQ(result.cover[0], (Community{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(result.cover[1], (Community{4, 5, 6, 7, 8, 9}));
  // Nodes 4 and 5 are in both: genuinely overlapping output.
  EXPECT_EQ(result.cover.TotalMembership(), 12u);
  EXPECT_EQ(result.cover.CoveredNodeCount(), 10u);
}

TEST(OcaTest, CouplingConstantIsResolvedSpectrally) {
  Graph g = TwoCliquesBridge();
  auto result = RunOca(g, SmallGraphOptions()).value();
  EXPECT_GT(result.stats.coupling_constant, 0.0);
  EXPECT_LT(result.stats.coupling_constant, 1.0);
  EXPECT_LT(result.stats.lambda_min, -1.0 + 1e-6);
  EXPECT_NEAR(result.stats.coupling_constant,
              -1.0 / result.stats.lambda_min, 1e-6);
}

TEST(OcaTest, ExplicitCouplingConstantSkipsSpectral) {
  Graph g = TwoCliquesBridge();
  OcaOptions opt = SmallGraphOptions();
  opt.coupling_constant = 0.5;
  auto result = RunOca(g, opt).value();
  EXPECT_DOUBLE_EQ(result.stats.coupling_constant, 0.5);
  EXPECT_DOUBLE_EQ(result.stats.lambda_min, 0.0);  // untouched
  EXPECT_EQ(result.cover.size(), 2u);
}

TEST(OcaTest, DeterministicAcrossRuns) {
  Graph g = KarateClub();
  auto a = RunOca(g, SmallGraphOptions(7)).value();
  auto b = RunOca(g, SmallGraphOptions(7)).value();
  EXPECT_EQ(a.cover, b.cover);
  EXPECT_EQ(a.stats.seeds_expanded, b.stats.seeds_expanded);
}

/// A 300-node LFR graph with sharp communities.
const Graph& LfrGraph300() {
  static const Graph* graph = [] {
    LfrOptions lfr;
    lfr.num_nodes = 300;
    lfr.average_degree = 12.0;
    lfr.max_degree = 30;
    lfr.mixing = 0.15;
    lfr.min_community = 15;
    lfr.max_community = 50;
    lfr.seed = 5;
    return new Graph(GenerateLfr(lfr).value().graph);
  }();
  return *graph;
}

/// One run of LfrGraph300() per halting reason, each with only its own
/// criterion enabled. Coverage and stagnation fire partway through the
/// first 64-seed batch, max_seeds = 70 six seeds into the second, and
/// exhaustion at the top of a batch (that run keeps a seed budget it
/// never reaches, since a run with no criterion at all is rejected).
struct HaltingCase {
  std::string reason;
  OcaOptions options;
};

std::vector<HaltingCase> HaltingCases() {
  OcaOptions base;
  base.seed = 3;
  base.halting.max_seeds = 0;
  base.halting.target_coverage = 2.0;
  base.halting.stagnation_window = 0;
  std::vector<HaltingCase> cases(4, {"", base});
  cases[0].reason = "coverage";
  cases[0].options.halting.target_coverage = 0.9;
  cases[1].reason = "stagnation";
  cases[1].options.halting.stagnation_window = 10;
  cases[2].reason = "max_seeds";
  cases[2].options.halting.max_seeds = 70;
  cases[3].reason = "seeds_exhausted";
  cases[3].options.halting.max_seeds = 10000;
  return cases;
}

TEST(OcaTest, SerialRunClimbsOnlyTheSeedsItRecords) {
  for (const HaltingCase& hc : HaltingCases()) {
    SCOPED_TRACE(hc.reason);
    auto r = RunOca(LfrGraph300(), hc.options).value();
    ASSERT_EQ(r.stats.halting_reason, hc.reason);
    if (hc.reason == "coverage" || hc.reason == "stagnation") {
      EXPECT_LT(r.stats.seeds_expanded, hc.options.batch_size);
    }
    EXPECT_GT(r.stats.seeds_expanded, 0u);
    EXPECT_EQ(r.stats.climbs, r.stats.seeds_expanded);
  }
}

// A pooled run keeps at most 2 slots per worker in flight, so a halt
// mid-batch (coverage and stagnation) leaves at most that many climbs
// past it.
TEST(OcaTest, PooledRunClimbsAtMostTwoSlotsPerThreadAhead) {
  for (const HaltingCase& hc : HaltingCases()) {
    for (size_t threads : {2, 4}) {
      SCOPED_TRACE(hc.reason + " threads=" + std::to_string(threads));
      OcaOptions opt = hc.options;
      opt.num_threads = threads;
      auto r = RunOca(LfrGraph300(), opt).value();
      ASSERT_EQ(r.stats.halting_reason, hc.reason);
      EXPECT_GE(r.stats.climbs, r.stats.seeds_expanded);
      EXPECT_LE(r.stats.climbs, r.stats.seeds_expanded + 2 * threads);
    }
  }
}

/// Every field of OcaRunStats that does not depend on the thread count
/// or the clock.
void ExpectSameDeterministicStats(const OcaRunStats& a, const OcaRunStats& b) {
  EXPECT_EQ(a.coupling_constant, b.coupling_constant);
  EXPECT_EQ(a.lambda_min, b.lambda_min);
  EXPECT_EQ(a.spectral_iterations, b.spectral_iterations);
  EXPECT_EQ(a.seeds_expanded, b.seeds_expanded);
  EXPECT_EQ(a.raw_communities, b.raw_communities);
  EXPECT_EQ(a.discarded_small, b.discarded_small);
  EXPECT_EQ(a.halting_reason, b.halting_reason);
  EXPECT_EQ(a.coverage_fraction, b.coverage_fraction);
  EXPECT_EQ(a.merge.rounds, b.merge.rounds);
  EXPECT_EQ(a.merge.merges, b.merge.merges);
  EXPECT_EQ(a.merge.dropped_small, b.merge.dropped_small);
}

TEST(OcaTest, ParallelMatchesSerial) {
  const Graph karate = KarateClub();
  struct Run {
    std::string name;
    const Graph* graph;
    OcaOptions options;
  };
  std::vector<Run> runs = {{"karate", &karate, SmallGraphOptions(11)}};
  for (const HaltingCase& hc : HaltingCases()) {
    runs.push_back({hc.reason, &LfrGraph300(), hc.options});
  }
  for (const Run& run : runs) {
    auto a = RunOca(*run.graph, run.options).value();
    for (size_t threads : {2, 4}) {
      SCOPED_TRACE(run.name + " threads=" + std::to_string(threads));
      OcaOptions parallel = run.options;
      parallel.num_threads = threads;
      auto b = RunOca(*run.graph, parallel).value();
      EXPECT_EQ(a.cover, b.cover);
      ExpectSameDeterministicStats(a.stats, b.stats);
    }
  }
}

TEST(OcaTest, EmptyGraphErrors) {
  EXPECT_TRUE(RunOca(Graph{}, SmallGraphOptions())
                  .status()
                  .IsInvalidArgument());
}

TEST(OcaTest, EdgelessGraphErrors) {
  Graph g = BuildGraph(5, {}).value();
  EXPECT_TRUE(RunOca(g, SmallGraphOptions())
                  .status()
                  .IsFailedPrecondition());
}

TEST(OcaTest, AllHaltingDisabledErrors) {
  Graph g = TwoCliquesBridge();
  OcaOptions opt = SmallGraphOptions();
  opt.halting.max_seeds = 0;
  opt.halting.target_coverage = 2.0;
  opt.halting.stagnation_window = 0;
  EXPECT_TRUE(RunOca(g, opt).status().IsInvalidArgument());
}

TEST(OcaTest, InvalidCouplingConstantErrors) {
  Graph g = TwoCliquesBridge();
  OcaOptions opt = SmallGraphOptions();
  opt.coupling_constant = 1.5;
  EXPECT_TRUE(RunOca(g, opt).status().IsInvalidArgument());
}

TEST(OcaTest, CouplingBoundIsSharedBetweenSuppliedAndComputed) {
  Graph g = TwoCliquesBridge();
  // Exactly 1.0 is inadmissible on the supplied path...
  OcaOptions opt = SmallGraphOptions();
  opt.coupling_constant = 1.0;
  EXPECT_TRUE(RunOca(g, opt).status().IsInvalidArgument());
  // ...while the largest admissible value is accepted — so a computed c
  // (clamped to the same bound) can always be fed back in verbatim.
  opt.coupling_constant = kMaxCouplingConstant;
  auto supplied = RunOca(g, opt).value();
  EXPECT_DOUBLE_EQ(supplied.stats.coupling_constant, kMaxCouplingConstant);
}

TEST(OcaTest, TriangleBoundaryCouplingStaysAdmissible) {
  // K3's adjacency lambda_min is exactly -1, putting the computed
  // c = -1/lambda_min right at the inadmissible boundary 1.0; the
  // computed path must clamp/bias it below the bound, not error and not
  // run with c = 1.
  Graph g = testing::Triangle();
  OcaOptions opt = SmallGraphOptions();
  auto result = RunOca(g, opt).value();
  EXPECT_GT(result.stats.coupling_constant, 0.9);
  EXPECT_LE(result.stats.coupling_constant, kMaxCouplingConstant);
  EXPECT_NEAR(result.stats.lambda_min, -1.0, 1e-6);
  ASSERT_EQ(result.cover.size(), 1u);
  EXPECT_EQ(result.cover[0], (Community{0, 1, 2}));
}

TEST(OcaTest, SeedExhaustionHaltsImmediatelyWithItsOwnReason) {
  Graph g = TwoCliquesBridge();
  OcaOptions opt;
  opt.seed = 42;
  // Only exhaustion can stop this run: a huge seed budget, coverage
  // disabled, stagnation disabled.
  opt.halting.max_seeds = 10000;
  opt.halting.target_coverage = 2.0;
  opt.halting.stagnation_window = 0;
  auto result = RunOca(g, opt).value();
  EXPECT_EQ(result.stats.halting_reason, "seeds_exhausted");
  // Every expansion spends at least its seed node, so the loop cannot
  // have burned more seeds than there are nodes.
  EXPECT_LE(result.stats.seeds_expanded, g.num_nodes());
  EXPECT_EQ(result.cover.size(), 2u);
}

TEST(OcaTest, OrphanAssignmentCoversEverything) {
  Graph g = KarateClub();
  OcaOptions opt = SmallGraphOptions();
  opt.assign_orphans = true;
  auto result = RunOca(g, opt).value();
  EXPECT_TRUE(result.cover.UncoveredNodes(g.num_nodes()).empty());
}

TEST(OcaTest, StatsAreConsistent) {
  Graph g = KarateClub();
  auto result = RunOca(g, SmallGraphOptions()).value();
  EXPECT_GT(result.stats.seeds_expanded, 0u);
  EXPECT_GE(result.stats.raw_communities, result.cover.size());
  EXPECT_FALSE(result.stats.halting_reason.empty());
  EXPECT_GE(result.stats.coverage_fraction, 0.0);
  EXPECT_LE(result.stats.coverage_fraction, 1.0);
  EXPECT_GE(result.stats.TotalSeconds(), 0.0);
}

TEST(OcaTest, RecoversLfrCommunitiesWell) {
  LfrOptions lfr;
  lfr.num_nodes = 300;
  lfr.average_degree = 12.0;
  lfr.max_degree = 30;
  lfr.mixing = 0.15;
  lfr.min_community = 15;
  lfr.max_community = 50;
  lfr.seed = 5;
  auto bench = GenerateLfr(lfr).value();

  OcaOptions opt;
  opt.seed = 99;
  opt.halting.max_seeds = 400;
  opt.halting.target_coverage = 0.99;
  opt.halting.stagnation_window = 100;
  auto result = RunOca(bench.graph, opt).value();

  double theta = Theta(bench.ground_truth, result.cover).value();
  EXPECT_GT(theta, 0.6) << "OCA should recover sharp LFR communities; "
                        << result.cover.Summary();
}

TEST(OcaTest, RecoversDaisyPetalsAndCore) {
  DaisyTreeOptions dt;
  dt.daisy.p = 6;
  dt.daisy.q = 5;
  dt.daisy.n = 60;
  dt.daisy.alpha = 0.9;
  dt.daisy.beta = 0.9;
  dt.extra_daisies = 2;
  dt.gamma = 0.02;
  dt.seed = 3;
  auto bench = GenerateDaisyTree(dt).value();

  OcaOptions opt;
  opt.seed = 17;
  opt.halting.max_seeds = 600;
  opt.halting.target_coverage = 0.99;
  opt.halting.stagnation_window = 150;
  auto result = RunOca(bench.graph, opt).value();
  double theta = Theta(bench.ground_truth, result.cover).value();
  EXPECT_GT(theta, 0.5) << result.cover.Summary();
}

}  // namespace
}  // namespace oca
