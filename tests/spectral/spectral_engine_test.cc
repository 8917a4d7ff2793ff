#include "spectral/spectral_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
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

TEST(SpectralEngineTest, WarmStartEqualsColdStartAccuracy) {
  Rng rng(31);
  Graph g = ErdosRenyi(200, 0.06, &rng).value();
  ASSERT_GT(g.num_edges(), 0u);

  SpectralEngine cold;
  auto cold_result = cold.CouplingConstant(g).value();

  // Obtain the min-end eigenvector, then warm-start a fresh engine with
  // it. The warm solve must agree with the cold one to the same
  // tolerance (and typically converge in fewer steps).
  SpectralEngine vec_engine(TightOptions());
  std::vector<double> eigenvector;
  auto pair = vec_engine.CouplingConstantWithVector(g, &eigenvector).value();
  ASSERT_TRUE(pair.converged);

  SpectralEngine warm;
  warm.SetWarmStart(eigenvector);
  auto warm_result = warm.CouplingConstant(g).value();

  EXPECT_LT(RelDiff(warm_result.c, cold_result.c), 1e-4);
  EXPECT_LT(RelDiff(warm_result.lambda_min, cold_result.lambda_min), 1e-4);
  EXPECT_TRUE(warm_result.converged);
}

// The replay pass the warm-start chain uses rebuilds a true eigenvector:
// at a tight tolerance the Ritz vector satisfies A x = lambda_min x.
TEST(SpectralEngineTest, MinRitzVectorSatisfiesDefinition) {
  Graph g = KarateClub();
  SpectralEngine engine(TightOptions());
  std::vector<double> x;
  auto result = engine.CouplingConstantWithVector(g, &x).value();
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(x.size(), g.num_nodes());
  // ||A x - lambda x|| small.
  std::vector<double> y(g.num_nodes());
  engine.MatVec(g, x.data(), y.data());
  double err = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    double r = y[i] - result.lambda_min * x[i];
    err += r * r;
  }
  EXPECT_LT(std::sqrt(err), 1e-3);
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

  std::vector<double> va, vb;
  auto a = serial.CouplingConstantWithVector(g, &va).value();
  auto b = parallel.CouplingConstantWithVector(g, &vb).value();
  // Fixed-block reductions: bit-identical, not merely close.
  EXPECT_EQ(a.c, b.c);
  EXPECT_EQ(a.lambda_min, b.lambda_min);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(va.size(), vb.size());
  EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)), 0);
}

TEST(SpectralEngineTest, DeterministicPerSeed) {
  Rng rng(3);
  Graph g = ErdosRenyi(120, 0.07, &rng).value();
  SpectralEngine e1, e2;
  auto a = e1.CouplingConstant(g).value();
  auto b = e2.CouplingConstant(g).value();
  EXPECT_EQ(a.c, b.c);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(SpectralEngineTest, EmptyAndEdgelessErrorPaths) {
  SpectralEngine engine;
  std::vector<double> vec;
  Graph empty;
  EXPECT_TRUE(engine.CouplingConstant(empty).status().IsInvalidArgument());
  EXPECT_TRUE(engine.CouplingConstantWithVector(empty, &vec)
                  .status()
                  .IsInvalidArgument());

  Graph edgeless = BuildGraph(5, {}).value();
  EXPECT_TRUE(
      engine.CouplingConstant(edgeless).status().IsFailedPrecondition());
  EXPECT_TRUE(engine.CouplingConstantWithVector(edgeless, &vec)
                  .status()
                  .IsFailedPrecondition());
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

TEST(SpectralEngineTest, CouplingWithVectorReturnsUsableEigenvector) {
  Rng rng(33);
  Graph g = ErdosRenyi(120, 0.07, &rng).value();
  SpectralEngine engine;
  std::vector<double> vec;
  auto coupling = engine.CouplingConstantWithVector(g, &vec).value();
  ASSERT_EQ(vec.size(), g.num_nodes());
  EXPECT_GT(coupling.iterations, 0u);

  // Unit norm, and its Rayleigh quotient x'Ax sits near lambda_min (the
  // vector is resolved at the loose coupling tolerance, so only ask for
  // a few percent).
  double norm_sq = 0.0;
  for (double x : vec) norm_sq += x * x;
  EXPECT_NEAR(norm_sq, 1.0, 1e-9);
  std::vector<double> product(g.num_nodes());
  double rq = engine.MatVecFused(g, vec.data(), product.data());
  EXPECT_LT(RelDiff(rq, coupling.lambda_min), 0.05);

  // The vector is cached for warm-start chaining: a repeat call is a
  // pure cache hit returning the same pair.
  size_t matvecs = engine.total_matvecs();
  std::vector<double> again;
  auto hit = engine.CouplingConstantWithVector(g, &again).value();
  EXPECT_EQ(engine.total_matvecs(), matvecs);
  EXPECT_EQ(hit.iterations, 0u);
  EXPECT_DOUBLE_EQ(hit.c, coupling.c);
  EXPECT_EQ(again, vec);
}

TEST(SpectralEngineTest, CouplingWithVectorAfterVectorlessHitKeepsC) {
  Rng rng(34);
  Graph g = ErdosRenyi(120, 0.07, &rng).value();
  SpectralEngine engine;
  auto plain = engine.CouplingConstant(g).value();
  // The coupling value is cached but no vector exists yet: the call must
  // re-sweep for the vector while returning the cached c unchanged.
  std::vector<double> vec;
  auto with_vec = engine.CouplingConstantWithVector(g, &vec).value();
  EXPECT_DOUBLE_EQ(with_vec.c, plain.c);
  EXPECT_DOUBLE_EQ(with_vec.lambda_min, plain.lambda_min);
  EXPECT_GT(with_vec.iterations, 0u);
  EXPECT_EQ(vec.size(), g.num_nodes());
}

TEST(SpectralEngineTest, WarmStartFromParentRestrictsAndRegisters) {
  // Parent: two overlapping cliques; subgraph: one clique. The parent's
  // lambda_min eigenvector restricted onto the clique is a legitimate
  // start vector, and the warm-started solve must converge to the same
  // c as a cold solve within the coupling tolerance.
  Graph parent = testing::TwoCliquesOverlap();
  SpectralEngine engine;
  std::vector<double> parent_vec;
  ASSERT_TRUE(engine.CouplingConstantWithVector(parent, &parent_vec).ok());

  std::vector<NodeId> to_parent = {0, 1, 2, 3, 4, 5};
  Graph sub = Clique(6);
  EXPECT_TRUE(engine.WarmStartFromParent(parent_vec, to_parent));
  auto warm = engine.CouplingConstant(sub).value();

  SpectralEngine cold_engine;
  auto cold = cold_engine.CouplingConstant(sub).value();
  EXPECT_LT(RelDiff(warm.c, cold.c),
            2.0 * engine.options().coupling_tolerance);
  EXPECT_NEAR(warm.lambda_min, -1.0, 1e-5);  // K6
}

TEST(SpectralEngineTest, CacheHitConsumesSizeMatchingWarmStart) {
  // A pending warm start whose target solve is answered from the cache
  // must be consumed there, not leak into a later unrelated solve of
  // the same node count.
  Rng rng(35);
  Graph a = ErdosRenyi(80, 0.1, &rng).value();
  Graph b = ErdosRenyi(80, 0.1, &rng).value();
  SpectralEngine engine;
  std::vector<double> vec;
  // Populate a's cache including the eigenvector, so the next call is a
  // pure hit (no sweep at all).
  ASSERT_TRUE(engine.CouplingConstantWithVector(a, &vec).ok());

  std::vector<double> junk(80, 1.0);
  engine.SetWarmStart(junk);
  size_t matvecs = engine.total_matvecs();
  auto hit = engine.CouplingConstantWithVector(a, &vec);
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(engine.total_matvecs(), matvecs);  // pure cache hit
  // b's solve must now be a genuinely cold start: identical to a fresh
  // engine that never saw the warm vector.
  auto after_hit = engine.CouplingConstant(b).value();
  SpectralEngine fresh;
  auto cold = fresh.CouplingConstant(b).value();
  EXPECT_EQ(after_hit.iterations, cold.iterations);
  EXPECT_DOUBLE_EQ(after_hit.c, cold.c);
}

TEST(SpectralEngineTest, WarmStartFromParentRejectsDegenerateInput) {
  SpectralEngine engine;
  std::vector<double> parent_vec(10, 0.1);

  // Empty map.
  EXPECT_FALSE(engine.WarmStartFromParent(parent_vec, {}));
  // Out-of-range index.
  std::vector<NodeId> bad = {0, 12};
  EXPECT_FALSE(engine.WarmStartFromParent(parent_vec, bad));
  // Restriction with (near-)zero mass.
  std::vector<double> lopsided(10, 0.0);
  lopsided[9] = 1.0;
  std::vector<NodeId> zero_mass = {0, 1, 2};
  EXPECT_FALSE(engine.WarmStartFromParent(lopsided, zero_mass));
  // A usable restriction registers.
  std::vector<NodeId> good = {8, 9};
  EXPECT_TRUE(engine.WarmStartFromParent(lopsided, good));
}

// A default engine runs the solve RunOca, the hierarchy builders and
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
