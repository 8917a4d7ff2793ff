#include "gen/barabasi_albert.h"

#include <gtest/gtest.h>

#include "graph/degree_stats.h"
#include "graph/graph_checks.h"
#include "testing/connectivity.h"

namespace oca {
namespace {

TEST(BarabasiAlbertTest, NodeAndEdgeCounts) {
  Rng rng(1);
  const size_t n = 1000, m = 3;
  Graph g = BarabasiAlbert(n, m, &rng).value();
  EXPECT_EQ(g.num_nodes(), n);
  // Seed clique C(m+1,2) + (n - m - 1) arrivals with m edges each.
  size_t expected = (m + 1) * m / 2 + (n - m - 1) * m;
  EXPECT_EQ(g.num_edges(), expected);
  EXPECT_TRUE(ValidateGraph(g).ok());
}

TEST(BarabasiAlbertTest, AlwaysConnected) {
  Rng rng(2);
  Graph g = BarabasiAlbert(500, 2, &rng).value();
  EXPECT_TRUE(testing::IsConnected(g));
}

TEST(BarabasiAlbertTest, MinimumDegreeIsM) {
  Rng rng(3);
  Graph g = BarabasiAlbert(400, 4, &rng).value();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(g.Degree(v), 4u);
  }
}

TEST(BarabasiAlbertTest, ProducesHubs) {
  Rng rng(4);
  Graph g = BarabasiAlbert(5000, 3, &rng).value();
  auto stats = ComputeDegreeStats(g);
  // Preferential attachment: max degree far exceeds the average.
  EXPECT_GT(static_cast<double>(stats.max_degree),
            5.0 * stats.average_degree);
}

TEST(BarabasiAlbertTest, HeavyTailExponent) {
  Rng rng(5);
  Graph g = BarabasiAlbert(30000, 3, &rng).value();
  double gamma = EstimatePowerLawExponent(g, 6);
  EXPECT_GT(gamma, 2.2);
  EXPECT_LT(gamma, 4.2);
}

TEST(BarabasiAlbertTest, InvalidParamsError) {
  Rng rng(6);
  EXPECT_FALSE(BarabasiAlbert(10, 0, &rng).ok());
  EXPECT_FALSE(BarabasiAlbert(3, 5, &rng).ok());
}

TEST(BarabasiAlbertTest, MinimumViableSize) {
  Rng rng(7);
  // n = m + 1: just the seed clique.
  Graph g = BarabasiAlbert(4, 3, &rng).value();
  EXPECT_EQ(g.num_edges(), 6u);  // K4
}

TEST(BarabasiAlbertTest, DeterministicPerSeed) {
  Rng a(11), b(11);
  EXPECT_EQ(BarabasiAlbert(200, 3, &a).value().Edges(),
            BarabasiAlbert(200, 3, &b).value().Edges());
}

}  // namespace
}  // namespace oca
