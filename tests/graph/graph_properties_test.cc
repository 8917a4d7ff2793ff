// Cross-checking property tests for the graph substrate: every fast
// algorithm is validated against a brute-force reference or a structural
// invariant over random-graph sweeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "graph/k_core.h"
#include "graph/subgraph.h"
#include "testing/connectivity.h"
#include "testing/test_graphs.h"
#include "util/random.h"
#include "util/union_find.h"

namespace oca {
namespace {

using Groups = std::vector<std::vector<uint32_t>>;

// A graph's connected components as the library forms them: UnionFind
// over the edge list, groups ordered by smallest member.
Groups ComponentGroups(const Graph& g) {
  UnionFind uf(g.num_nodes());
  g.ForEachEdge([&uf](NodeId u, NodeId v) { uf.Union(u, v); });
  return uf.Groups();
}

TEST(ConnectedComponentsTest, SingleComponent) {
  EXPECT_EQ(ComponentGroups(testing::Triangle()), (Groups{{0, 1, 2}}));
}

TEST(ConnectedComponentsTest, MultipleComponents) {
  EXPECT_EQ(ComponentGroups(testing::ThreeComponents()),
            (Groups{{0, 1, 2}, {3, 4}, {5}}));
}

TEST(ConnectedComponentsTest, EmptyGraph) {
  EXPECT_TRUE(ComponentGroups(Graph()).empty());
}

TEST(ConnectedComponentsTest, IsolatedNodesAreSingletons) {
  Graph g = BuildGraph(4, {{0, 1}}).value();
  EXPECT_EQ(ComponentGroups(g), (Groups{{0, 1}, {2}, {3}}));
}

TEST(ConnectedComponentsTest, LargestComponentTieGoesToLowerId) {
  // Groups come ordered by smallest member, so the first of two
  // equal-size components, the one a largest-first scan keeps, holds
  // the lower ids.
  Graph g = BuildGraph(4, {{0, 1}, {2, 3}}).value();
  auto groups = ComponentGroups(g);
  ASSERT_EQ(groups.size(), 2u);
  auto largest = std::max_element(
      groups.begin(), groups.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  EXPECT_EQ(*largest, (std::vector<uint32_t>{0, 1}));
}

TEST(ConnectedComponentsTest, LabelsArePartition) {
  auto groups = ComponentGroups(testing::KarateClub());
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 34u);
}

class GraphSweepTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Graph MakeGraph() {
    Rng rng(GetParam());
    // Alternate families across seeds for diversity.
    if (GetParam() % 2 == 0) {
      return ErdosRenyi(80, 0.08, &rng).value();
    }
    return BarabasiAlbert(80, 3, &rng).value();
  }
};

TEST_P(GraphSweepTest, KCoreInducedSubgraphHasMinDegreeK) {
  Graph g = MakeGraph();
  uint32_t degeneracy = Degeneracy(g);
  for (uint32_t k = 1; k <= degeneracy; ++k) {
    auto nodes = KCoreNodes(g, k);
    if (nodes.empty()) continue;
    auto sub = InducedSubgraph(g, nodes).value();
    for (NodeId v = 0; v < sub.graph.num_nodes(); ++v) {
      EXPECT_GE(sub.graph.Degree(v), k)
          << "node " << sub.Original(v) << " violates the " << k << "-core";
    }
  }
}

TEST_P(GraphSweepTest, CoreNumbersAreMaximal) {
  // Each node's core number is tight: the (c+1)-core excludes it.
  Graph g = MakeGraph();
  auto core = CoreNumbers(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto higher = KCoreNodes(g, core[v] + 1);
    EXPECT_FALSE(std::binary_search(higher.begin(), higher.end(), v));
  }
}

TEST_P(GraphSweepTest, ComponentsPartitionAndEdgesStayInside) {
  Graph g = MakeGraph();
  auto groups = ComponentGroups(g);
  std::vector<size_t> label(g.num_nodes(), groups.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    for (uint32_t v : groups[i]) {
      EXPECT_EQ(label[v], groups.size()) << "node " << v << " in two groups";
      label[v] = i;
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LT(label[v], groups.size()) << "node " << v << " in no group";
  }
  g.ForEachEdge([&label](NodeId u, NodeId v) {
    EXPECT_EQ(label[u], label[v]) << "edge " << u << "-" << v;
  });
  EXPECT_EQ(groups.size() == 1, testing::IsConnected(g));
}

TEST_P(GraphSweepTest, DegreeSumEqualsTwiceEdges) {
  Graph g = MakeGraph();
  size_t sum = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) sum += g.Degree(v);
  EXPECT_EQ(sum, 2 * g.num_edges());
}

TEST_P(GraphSweepTest, SubgraphOfEverythingIsIdentity) {
  Graph g = MakeGraph();
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  auto sub = InducedSubgraph(g, all).value();
  EXPECT_EQ(sub.graph.Edges(), g.Edges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphSweepTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace oca
