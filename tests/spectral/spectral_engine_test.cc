#include "spectral/spectral_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "graph/graph_builder.h"
#include "testing/test_graphs.h"
#include "util/random.h"

namespace oca {
namespace {

using testing::Clique;
using testing::Cycle;
using testing::KarateClub;
using testing::Path5;
using testing::Star;

// A tightly converged min-end solve: the same engine at a far stricter
// tolerance and step budget — the role the seed power method played when
// it was run to convergence.
SpectralEngineOptions TightOptions() {
  SpectralEngineOptions tight;
  tight.coupling_tolerance = 1e-12;
  tight.max_steps = 40000;
  return tight;
}

double TightLambdaMin(const Graph& g) {
  SpectralEngine engine(TightOptions());
  return engine.CouplingConstant(g).value().lambda_min;
}

double RelDiff(double a, double b) {
  return std::fabs(a - b) / std::max(1e-300, std::fabs(b));
}

TEST(SpectralEngineTest, GoldenSpectraOnFixtures) {
  // One held engine across graphs of different shapes.
  SpectralEngine engine;
  // K_n: lambda_min = -1.
  for (size_t n : {3u, 5u, 8u}) {
    Graph g = Clique(n);
    EXPECT_NEAR(engine.CouplingConstant(g).value().lambda_min, -1.0, 1e-6)
        << "K" << n;
  }
  // Star: bipartite, -sqrt(leaves).
  Graph star = Star(16);
  EXPECT_NEAR(engine.CouplingConstant(star).value().lambda_min, -4.0, 1e-6);
  // Odd cycle: lambda_min = 2cos(4pi/5).
  Graph c5 = Cycle(5);
  EXPECT_NEAR(engine.CouplingConstant(c5).value().lambda_min,
              2.0 * std::cos(4.0 * M_PI / 5.0), 1e-6);
  // Path: lambda_min = -sqrt(3).
  Graph p5 = Path5();
  EXPECT_NEAR(engine.CouplingConstant(p5).value().lambda_min, -std::sqrt(3.0),
              1e-6);
}

TEST(SpectralEngineTest, CouplingMatchesTightReferenceTo4Digits) {
  // The adaptive stop targets a few significant digits of c; assert >= 4
  // against the tightly-converged reference on graphs with a hard
  // (small-gap) bottom edge — the regime the seed's fixed-tolerance
  // power loop could not reach within its iteration cap.
  Rng rng(77);
  std::vector<Graph> graphs;
  graphs.push_back(KarateClub());
  graphs.push_back(ErdosRenyi(300, 0.04, &rng).value());
  LfrOptions lfr;
  lfr.num_nodes = 800;
  lfr.average_degree = 16.0;
  lfr.max_degree = 40;
  lfr.mixing = 0.25;
  lfr.min_community = 20;
  lfr.max_community = 60;
  lfr.seed = 5;
  graphs.push_back(GenerateLfr(lfr).value().graph);

  for (const Graph& g : graphs) {
    ASSERT_GT(g.num_edges(), 0u);
    const double ref_lambda_min = TightLambdaMin(g);
    SpectralEngine engine;
    auto coupling = engine.CouplingConstant(g).value();
    double c_ref = std::min(-1.0 / ref_lambda_min, 1.0 - 1e-9);
    EXPECT_LT(RelDiff(coupling.c, c_ref), 5e-5)
        << "n=" << g.num_nodes() << " lambda_min=" << ref_lambda_min;
    EXPECT_LT(RelDiff(coupling.lambda_min, ref_lambda_min), 5e-5);
    // Admissibility: the reported c must not exceed the true maximum.
    EXPECT_LE(coupling.c, c_ref * (1.0 + 1e-9));
    EXPECT_TRUE(coupling.converged);
  }
}

TEST(SpectralEngineTest, DeterministicAcrossThreadCounts) {
  // 6,000 nodes: three row blocks (MatVecBlockRows) and ~114k entries,
  // so the 4-thread engine runs its mat-vecs on the pool.
  LfrOptions lfr;
  lfr.num_nodes = 6000;
  lfr.average_degree = 18.0;
  lfr.max_degree = 45;
  lfr.mixing = 0.3;
  lfr.min_community = 20;
  lfr.max_community = 60;
  lfr.seed = 17;
  Graph g = GenerateLfr(lfr).value().graph;
  const size_t block = MatVecBlockRows(g.num_nodes());
  ASSERT_GE((g.num_nodes() + block - 1) / block, 3u);
  ASSERT_GE(g.neighbor_array().size(), size_t{1} << 16);

  SpectralEngineOptions serial_opts;
  serial_opts.num_threads = 1;
  SpectralEngineOptions parallel_opts;
  parallel_opts.num_threads = 4;

  SpectralEngine serial(serial_opts);
  SpectralEngine parallel(parallel_opts);

  auto a = serial.CouplingConstant(g).value();
  auto b = parallel.CouplingConstant(g).value();
  // Fixed-block reductions: bit-identical, not merely close.
  EXPECT_EQ(a.c, b.c);
  EXPECT_EQ(a.lambda_min, b.lambda_min);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(SpectralEngineTest, DeterministicPerSeed) {
  Rng rng(3);
  Graph g = ErdosRenyi(120, 0.07, &rng).value();
  SpectralEngine e1, e2;
  auto a = e1.CouplingConstant(g).value();
  auto b = e2.CouplingConstant(g).value();
  EXPECT_EQ(a.c, b.c);
  EXPECT_EQ(a.iterations, b.iterations);

  // History independence, which the pooled hierarchy relies on: an
  // engine that already solved other graphs (one of the same size) and
  // forgot one of them answers g exactly as a fresh engine does.
  Graph same_size = ErdosRenyi(120, 0.09, &rng).value();
  Graph other = KarateClub();
  SpectralEngine used;
  ASSERT_TRUE(used.CouplingConstant(same_size).ok());
  ASSERT_TRUE(used.CouplingConstant(other).ok());
  used.Forget(same_size);
  auto c = used.CouplingConstant(g).value();
  EXPECT_EQ(c.c, a.c);
  EXPECT_EQ(c.lambda_min, a.lambda_min);
  EXPECT_EQ(c.iterations, a.iterations);
  EXPECT_EQ(c.converged, a.converged);
}

TEST(SpectralEngineTest, EmptyAndEdgelessErrorPaths) {
  SpectralEngine engine;
  Graph empty;
  EXPECT_TRUE(engine.CouplingConstant(empty).status().IsInvalidArgument());

  Graph edgeless = BuildGraph(5, {}).value();
  EXPECT_TRUE(
      engine.CouplingConstant(edgeless).status().IsFailedPrecondition());
}

TEST(SpectralEngineTest, CachesPerGraphAndForgetDropsEntries) {
  Rng rng(9);
  Graph g = ErdosRenyi(150, 0.06, &rng).value();
  SpectralEngine engine;
  auto first = engine.CouplingConstant(g).value();
  EXPECT_GT(first.iterations, 0u);
  size_t matvecs_after_first = engine.total_matvecs();

  auto second = engine.CouplingConstant(g).value();
  EXPECT_EQ(second.c, first.c);
  EXPECT_EQ(second.iterations, 0u);  // answered from cache
  EXPECT_EQ(engine.total_matvecs(), matvecs_after_first);
  EXPECT_EQ(engine.cache_hits(), 1u);

  // Forget drops the entry: the next call solves again.
  engine.Forget(g);
  auto third = engine.CouplingConstant(g).value();
  EXPECT_GT(third.iterations, 0u);
  EXPECT_EQ(third.c, first.c);  // same seed, same graph: bit-identical
}

TEST(SpectralEngineTest, GraphBuiltWhereADeadOneLivedMissesTheCache) {
  // A 4-node path and a 4-node star share n = 4 and m = 3. Built one
  // after the other in the same optional, they share an address too; the
  // star must still be solved, not answered from the path's entry, whose
  // c = 1/1.618 lies above the star's admissible bound 1/sqrt(3).
  SpectralEngine engine;
  std::optional<Graph> slot;
  slot.emplace(BuildGraph(4, {{0, 1}, {1, 2}, {2, 3}}).value());
  const Graph* const address = &*slot;
  const auto path = engine.CouplingConstant(*slot).value();
  EXPECT_NEAR(path.lambda_min, -(1.0 + std::sqrt(5.0)) / 2.0, 1e-4);
  slot.reset();
  slot.emplace(Star(3));
  ASSERT_EQ(&*slot, address);
  ASSERT_EQ(slot->num_edges(), 3u);
  const auto star = engine.CouplingConstant(*slot).value();
  EXPECT_GT(star.iterations, 0u);
  EXPECT_NEAR(star.lambda_min, -std::sqrt(3.0), 1e-4);
  EXPECT_LE(star.c, 1.0 / std::sqrt(3.0) + 1e-9);
  EXPECT_EQ(engine.cache_hits(), 0u);

  // A copy holds the same graph under the same id: a hit is correct.
  const Graph copy = *slot;
  const auto again = engine.CouplingConstant(copy).value();
  EXPECT_EQ(again.iterations, 0u);
  EXPECT_EQ(again.c, star.c);
}

// A default engine runs the solve RunOca, the recursive hierarchy and
// ComputeCouplingConstant run: every field of SpectralEngineOptions{}
// equals the mapping of a default PowerMethodOptions.
TEST(SpectralEngineTest, DefaultOptionsAreTheProductionSolve) {
  const SpectralEngineOptions held;
  const SpectralEngineOptions production =
      ValueSolveOptionsFrom(PowerMethodOptions{});
  EXPECT_EQ(held.coupling_tolerance, production.coupling_tolerance);
  EXPECT_EQ(held.max_steps, production.max_steps);
  EXPECT_EQ(held.seed, production.seed);
  EXPECT_EQ(held.num_threads, production.num_threads);
}

TEST(SpectralEngineTest, MatVecMatchesFreeFunction) {
  Rng rng(5);
  Graph g = ErdosRenyi(200, 0.05, &rng).value();
  std::vector<double> x(g.num_nodes());
  for (double& v : x) v = rng.NextGaussian();
  std::vector<double> expected;
  AdjacencyMatVec(g, x, &expected);
  SpectralEngine engine;
  std::vector<double> got(g.num_nodes());
  engine.MatVec(g, x.data(), got.data());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], expected[i]) << i;
  }
}

}  // namespace
}  // namespace oca
