#include "graph/subgraph.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "gen/nested_partition.h"
#include "gen/weight_assign.h"
#include "testing/reference_subgraph.h"
#include "testing/test_graphs.h"
#include "util/random.h"

namespace oca {
namespace {

using testing::TwoCliquesBridge;

TEST(InducedSubgraphTest, ExtractsCliqueIntact) {
  Graph g = TwoCliquesBridge();
  auto sub = InducedSubgraph(g, {0, 1, 2, 3, 4}).value();
  EXPECT_EQ(sub.graph.num_nodes(), 5u);
  EXPECT_EQ(sub.graph.num_edges(), 10u);  // K5
  EXPECT_EQ(sub.to_original, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(InducedSubgraphTest, RelabelsAcrossGap) {
  Graph g = TwoCliquesBridge();
  auto sub = InducedSubgraph(g, {4, 5, 6}).value();
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  // Edges present: 4-5 (bridge), 5-6 (clique). 4-6 absent.
  EXPECT_EQ(sub.graph.num_edges(), 2u);
  EXPECT_EQ(sub.Original(0), 4u);
  EXPECT_EQ(sub.Original(1), 5u);
  EXPECT_EQ(sub.Original(2), 6u);
  EXPECT_TRUE(sub.graph.HasEdge(0, 1));
  EXPECT_TRUE(sub.graph.HasEdge(1, 2));
  EXPECT_FALSE(sub.graph.HasEdge(0, 2));
}

TEST(InducedSubgraphTest, DuplicatesAndUnsortedInputHandled) {
  Graph g = TwoCliquesBridge();
  auto sub = InducedSubgraph(g, {3, 1, 3, 2, 1}).value();
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.to_original, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(sub.graph.num_edges(), 3u);  // triangle inside K5
}

TEST(InducedSubgraphTest, EmptySelection) {
  Graph g = TwoCliquesBridge();
  auto sub = InducedSubgraph(g, {}).value();
  EXPECT_EQ(sub.graph.num_nodes(), 0u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);
}

TEST(InducedSubgraphTest, OutOfRangeErrors) {
  Graph g = TwoCliquesBridge();
  auto result = InducedSubgraph(g, {0, 99});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Differential: the direct CSR writer against the hash-map-and-builder
// reference (tests/testing/reference_subgraph.h), array for array.
// ---------------------------------------------------------------------

std::vector<Graph> NestedGraphs() {
  NestedPartitionOptions gen;
  gen.num_supers = 6;
  gen.subs_per_super = 4;
  gen.nodes_per_sub = 40;
  gen.p_sub = 0.85;
  gen.p_super = 0.15;
  gen.p_out = 0.03;
  gen.seed = 5;
  Graph plain = GenerateNestedPartition(gen).value().graph;
  Graph weighted = AssignWeights(plain).value();
  std::vector<Graph> graphs;
  graphs.push_back(std::move(plain));
  graphs.push_back(std::move(weighted));
  return graphs;
}

template <typename T>
bool SameBits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectMatchesReference(const Graph& g, const std::vector<NodeId>& nodes) {
  Subgraph got = InducedSubgraph(g, nodes).value();
  Subgraph want = testing::ReferenceInducedSubgraph(g, nodes).value();
  EXPECT_EQ(got.to_original, want.to_original);
  EXPECT_EQ(got.graph.is_weighted(), want.graph.is_weighted());
  EXPECT_TRUE(SameBits(got.graph.offsets(), want.graph.offsets()));
  EXPECT_TRUE(
      SameBits(got.graph.neighbor_array(), want.graph.neighbor_array()));
  EXPECT_TRUE(SameBits(got.graph.weight_array(), want.graph.weight_array()));
}

TEST(InducedSubgraphDifferentialTest, PlantedCommunitiesMatchReference) {
  for (const Graph& g : NestedGraphs()) {
    SCOPED_TRACE(g.is_weighted() ? "weighted" : "unweighted");
    // Supers (160 nodes) and subs (40 nodes) of the 6 x 4 x 40 layout.
    for (NodeId width : {160u, 40u}) {
      for (NodeId begin = 0; begin < g.num_nodes(); begin += width) {
        std::vector<NodeId> block(width);
        for (NodeId i = 0; i < width; ++i) block[i] = begin + i;
        ExpectMatchesReference(g, block);
      }
    }
  }
}

TEST(InducedSubgraphDifferentialTest, RandomSubsetsMatchReference) {
  for (const Graph& g : NestedGraphs()) {
    SCOPED_TRACE(g.is_weighted() ? "weighted" : "unweighted");
    Rng rng(17);
    for (size_t size : {1u, 2u, 7u, 50u, 300u, 900u, 2000u}) {
      // Unsorted draws with repeats; the larger ones cover most nodes.
      std::vector<NodeId> nodes(size);
      for (NodeId& v : nodes) {
        v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
      }
      ExpectMatchesReference(g, nodes);
    }
  }
}

TEST(InducedSubgraphDifferentialTest, WholeGraphAndEmptySetMatchReference) {
  for (const Graph& g : NestedGraphs()) {
    SCOPED_TRACE(g.is_weighted() ? "weighted" : "unweighted");
    std::vector<NodeId> all(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = g.num_nodes() - 1 - v;
    ExpectMatchesReference(g, all);
    ExpectMatchesReference(g, {});
    // The whole graph comes back as itself.
    Subgraph whole = InducedSubgraph(g, all).value();
    EXPECT_TRUE(SameBits(whole.graph.offsets(), g.offsets()));
    EXPECT_TRUE(SameBits(whole.graph.neighbor_array(), g.neighbor_array()));
    EXPECT_TRUE(SameBits(whole.graph.weight_array(), g.weight_array()));
  }
}

}  // namespace
}  // namespace oca
