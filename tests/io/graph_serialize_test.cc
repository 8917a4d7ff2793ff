#include "io/graph_serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "gen/erdos_renyi.h"
#include "graph/mmap_graph.h"
#include "io/graph_format.h"
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

TEST(GraphSerializeTest, WrappingArrayLengthIsTypedError) {
  // n = 1 and 2m = 2^62 + 2: the header's byte count (n + 1) * 8 +
  // 2m * 4 (v1) or 2m * 12 (v2) wraps round in 64 bits to exactly the
  // 24 or 40 payload bytes that follow, so only a bound taken before
  // multiplying stops the reader from allocating 2^62 entries.
  for (const uint32_t version :
       {kGraphFileVersion, kGraphFileVersionWeighted}) {
    const uint64_t n = 1;
    const uint64_t arr = (uint64_t{1} << 62) + 2;
    std::string bytes(kGraphFileMagic, sizeof(kGraphFileMagic));
    bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
    bytes.append(reinterpret_cast<const char*>(&n), sizeof(n));
    bytes.append(reinterpret_cast<const char*>(&arr), sizeof(arr));
    bytes.append(version == kGraphFileVersion ? 24 : 40, '\0');
    ASSERT_EQ(bytes.size(), version == kGraphFileVersion ? 48u : 64u);
    std::stringstream in(bytes);
    auto result = ReadGraphBinary(in);
    ASSERT_FALSE(result.ok()) << "version " << version;
    EXPECT_TRUE(result.status().IsIOError()) << result.status().message();
  }
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
