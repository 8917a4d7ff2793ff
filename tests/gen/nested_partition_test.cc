#include "gen/nested_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

namespace oca {
namespace {

NestedPartitionOptions SmallOptions() {
  NestedPartitionOptions opt;
  opt.num_supers = 3;
  opt.subs_per_super = 2;
  opt.nodes_per_sub = 10;
  opt.p_sub = 0.8;
  opt.p_super = 0.2;
  opt.p_out = 0.02;
  opt.seed = 11;
  return opt;
}

TEST(NestedPartitionTest, SizesAndGroundTruthShapes) {
  auto bench = GenerateNestedPartition(SmallOptions()).value();
  EXPECT_EQ(bench.graph.num_nodes(), 60u);
  ASSERT_EQ(bench.sub_truth.size(), 6u);
  ASSERT_EQ(bench.super_truth.size(), 3u);
  for (const Community& c : bench.sub_truth) EXPECT_EQ(c.size(), 10u);
  for (const Community& c : bench.super_truth) EXPECT_EQ(c.size(), 20u);
  // Both truths partition the node universe exactly.
  EXPECT_EQ(bench.sub_truth.CoveredNodeCount(), 60u);
  EXPECT_EQ(bench.super_truth.CoveredNodeCount(), 60u);
  EXPECT_EQ(bench.sub_truth.TotalMembership(), 60u);
  EXPECT_EQ(bench.super_truth.TotalMembership(), 60u);
}

TEST(NestedPartitionTest, SubBlocksNestInsideSupers) {
  auto bench = GenerateNestedPartition(SmallOptions()).value();
  for (const Community& sub : bench.sub_truth) {
    size_t containing = 0;
    for (const Community& super : bench.super_truth) {
      if (std::includes(super.begin(), super.end(), sub.begin(),
                        sub.end())) {
        ++containing;
      }
    }
    EXPECT_EQ(containing, 1u) << "every sub-block lies in exactly one super";
  }
}

TEST(NestedPartitionTest, DensityOrderingIsRealized) {
  NestedPartitionOptions opt = SmallOptions();
  opt.nodes_per_sub = 20;  // enough edges for stable statistics
  auto bench = GenerateNestedPartition(opt).value();

  auto density_between = [&](const Community& a, const Community& b) {
    size_t edges = 0;
    for (NodeId u : a) {
      for (NodeId v : bench.graph.Neighbors(u)) {
        if (std::binary_search(b.begin(), b.end(), v)) ++edges;
      }
    }
    return static_cast<double>(edges) /
           (static_cast<double>(a.size()) * static_cast<double>(b.size()));
  };
  // Within-block vs within-super-across-blocks vs across-supers.
  const Community& block0 = bench.sub_truth[0];
  const Community& block1 = bench.sub_truth[1];  // same super as block0
  const Community& far = bench.sub_truth[bench.sub_truth.size() - 1];
  EXPECT_GT(density_between(block0, block0), density_between(block0, block1));
  EXPECT_GT(density_between(block0, block1), density_between(block0, far));
}

TEST(NestedPartitionTest, DeterministicPerSeed) {
  auto a = GenerateNestedPartition(SmallOptions()).value();
  auto b = GenerateNestedPartition(SmallOptions()).value();
  EXPECT_EQ(a.graph.Edges(), b.graph.Edges());
  NestedPartitionOptions other = SmallOptions();
  other.seed = 12;
  auto c = GenerateNestedPartition(other).value();
  EXPECT_NE(a.graph.Edges(), c.graph.Edges());
}

TEST(NestedPartitionTest, InvalidOptionsError) {
  NestedPartitionOptions opt = SmallOptions();
  opt.num_supers = 0;
  EXPECT_TRUE(GenerateNestedPartition(opt).status().IsInvalidArgument());

  opt = SmallOptions();
  opt.p_sub = 1.5;
  EXPECT_TRUE(GenerateNestedPartition(opt).status().IsInvalidArgument());

  opt = SmallOptions();
  opt.p_out = -0.1;
  EXPECT_TRUE(GenerateNestedPartition(opt).status().IsInvalidArgument());

  // Inverted nesting: glue denser than the blocks it joins.
  opt = SmallOptions();
  opt.p_super = 0.9;
  EXPECT_TRUE(GenerateNestedPartition(opt).status().IsInvalidArgument());

  // A node count whose size_t product wraps (a -1 cast to size_t).
  opt = SmallOptions();
  opt.num_supers = std::numeric_limits<size_t>::max();
  EXPECT_TRUE(GenerateNestedPartition(opt).status().IsInvalidArgument());

  // 2^16 x 2^8 x 2^8 = 2^32 nodes: fits size_t, one past NodeId's max.
  opt = SmallOptions();
  opt.num_supers = size_t{1} << 16;
  opt.subs_per_super = size_t{1} << 8;
  opt.nodes_per_sub = size_t{1} << 8;
  EXPECT_TRUE(GenerateNestedPartition(opt).status().IsInvalidArgument());
}

}  // namespace
}  // namespace oca
