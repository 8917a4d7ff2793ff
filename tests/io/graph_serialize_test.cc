#include "io/graph_serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "gen/erdos_renyi.h"
#include "graph/mmap_graph.h"
#include "testing/test_graphs.h"
#include "util/random.h"

namespace oca {
namespace {

TEST(GraphSerializeTest, StreamRoundTrip) {
  Graph g = testing::KarateClub();
  std::stringstream buffer;
  ASSERT_TRUE(WriteGraphBinary(g, buffer).ok());
  Graph loaded = ReadGraphBinary(buffer).value();
  EXPECT_TRUE(std::ranges::equal(loaded.offsets(), g.offsets()));
  EXPECT_TRUE(std::ranges::equal(loaded.neighbor_array(), g.neighbor_array()));
}

TEST(GraphSerializeTest, EmptyGraphRoundTrip) {
  Graph g;
  std::stringstream buffer;
  ASSERT_TRUE(WriteGraphBinary(g, buffer).ok());
  Graph loaded = ReadGraphBinary(buffer).value();
  EXPECT_EQ(loaded.num_nodes(), 0u);
  EXPECT_EQ(loaded.num_edges(), 0u);
}

TEST(GraphSerializeTest, RandomGraphRoundTrip) {
  Rng rng(5);
  Graph g = ErdosRenyi(300, 0.05, &rng).value();
  std::stringstream buffer;
  ASSERT_TRUE(WriteGraphBinary(g, buffer).ok());
  Graph loaded = ReadGraphBinary(buffer).value();
  EXPECT_EQ(loaded.Edges(), g.Edges());
}

TEST(GraphSerializeTest, BadMagicRejected) {
  std::stringstream buffer("NOPE not a graph file");
  auto result = ReadGraphBinary(buffer);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST(GraphSerializeTest, TruncatedBodyRejected) {
  Graph g = testing::KarateClub();
  std::stringstream buffer;
  ASSERT_TRUE(WriteGraphBinary(g, buffer).ok());
  std::string bytes = buffer.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(ReadGraphBinary(truncated).ok());
}

TEST(GraphSerializeTest, CorruptedCsrRejectedByValidation) {
  Graph g = testing::Triangle();
  std::stringstream buffer;
  ASSERT_TRUE(WriteGraphBinary(g, buffer).ok());
  std::string bytes = buffer.str();
  // Flip a neighbor id in the body (last 4 bytes region).
  bytes[bytes.size() - 2] ^= 0x7F;
  std::stringstream corrupted(bytes);
  auto result = ReadGraphBinary(corrupted);
  EXPECT_FALSE(result.ok());
}

TEST(GraphSerializeTest, FileRoundTrip) {
  Graph g = testing::TwoCliquesOverlap();
  std::string path = ::testing::TempDir() + "/oca_graph_test.bin";
  ASSERT_TRUE(WriteGraphBinaryFile(g, path).ok());
  Graph loaded = ReadGraphBinaryFile(path).value();
  EXPECT_EQ(loaded.Edges(), g.Edges());
  std::remove(path.c_str());
}

TEST(GraphSerializeTest, RewriteKeepsMappedReadersIntact) {
  // Rewriting a file another Graph has mapped must not truncate the
  // bytes under that mapping: the mapped copy keeps the old graph, and a
  // fresh open sees the new one.
  Rng rng(7);
  Graph a = ErdosRenyi(2000, 0.01, &rng).value();
  Graph b = testing::KarateClub();
  const std::string path = ::testing::TempDir() + "/oca_graph_rewrite.ocag";
  ASSERT_TRUE(WriteGraphBinaryFile(a, path).ok());
  Graph mapped = OpenMmapGraph(path).value();
  ASSERT_TRUE(WriteGraphBinaryFile(b, path).ok());
  ASSERT_EQ(mapped.num_nodes(), a.num_nodes());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_TRUE(std::ranges::equal(mapped.Neighbors(v), a.Neighbors(v)))
        << "row " << v;
  }
  EXPECT_EQ(OpenMmapGraph(path).value().Edges(), b.Edges());
  std::remove(path.c_str());
}

TEST(GraphSerializeTest, MissingFileErrors) {
  EXPECT_TRUE(ReadGraphBinaryFile("/no/such/g.bin").status().IsIOError());
}

}  // namespace
}  // namespace oca
