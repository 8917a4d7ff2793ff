#include "core/parallel_driver.h"

#include <gtest/gtest.h>

#include "spectral/spectral_engine.h"
#include "testing/test_graphs.h"

namespace oca {
namespace {

using testing::TwoCliquesBridge;

LocalSearchOptions Options(const Graph& g) {
  LocalSearchOptions opt;
  opt.fitness.kind = FitnessKind::kDirectedLaplacian;
  opt.fitness.c = ComputeCouplingConstant(g).value();
  return opt;
}

TEST(ExpandSeedBatchTest, SerialExpandsAll) {
  Graph g = TwoCliquesBridge();
  std::vector<Community> seeds = {{0}, {9}, {4}};
  auto results = ExpandSeedBatch(g, seeds, Options(g), nullptr);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].community, (Community{0, 1, 2, 3, 4}));
  EXPECT_EQ(results[1].community, (Community{5, 6, 7, 8, 9}));
  EXPECT_FALSE(results[2].community.empty());
}

TEST(ExpandSeedBatchTest, ParallelMatchesSerial) {
  Graph g = testing::KarateClub();
  std::vector<Community> seeds;
  for (NodeId v = 0; v < g.num_nodes(); ++v) seeds.push_back({v});
  auto serial = ExpandSeedBatch(g, seeds, Options(g), nullptr);
  ThreadPool pool(4);
  auto parallel = ExpandSeedBatch(g, seeds, Options(g), &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].community, parallel[i].community) << "slot " << i;
    EXPECT_EQ(serial[i].fitness, parallel[i].fitness);
  }
}

TEST(ExpandSeedBatchTest, InvalidSeedYieldsEmptySlot) {
  Graph g = TwoCliquesBridge();
  std::vector<Community> seeds = {{0}, {}, {99}};
  auto results = ExpandSeedBatch(g, seeds, Options(g), nullptr);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].community.empty());
  EXPECT_TRUE(results[1].community.empty());  // empty seed -> error slot
  EXPECT_TRUE(results[2].community.empty());  // out of range -> error slot
}

// A serial RunOca climbs one slot at a time with ExpandSeed, a pooled
// one the whole batch with ExpandSeedBatch; both must give each slot
// the same result, failed climbs included.
TEST(ExpandSeedBatchTest, SlotsMatchExpandSeed) {
  Graph g = testing::KarateClub();
  std::vector<Community> seeds = {{0}, {}, {99}, {5, 6}, {33, 32, 8}};
  ThreadPool pool(2);
  auto batch = ExpandSeedBatch(g, seeds, Options(g), &pool);
  ASSERT_EQ(batch.size(), seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    LocalSearchResult one = ExpandSeed(g, seeds[i], Options(g));
    EXPECT_EQ(one.community, batch[i].community) << "slot " << i;
    EXPECT_EQ(one.fitness, batch[i].fitness) << "slot " << i;
    EXPECT_EQ(one.steps, batch[i].steps) << "slot " << i;
  }
  EXPECT_TRUE(batch[1].community.empty());
  EXPECT_TRUE(batch[2].community.empty());
}

TEST(ExpandSeedBatchTest, EmptyBatch) {
  Graph g = TwoCliquesBridge();
  ThreadPool pool(2);
  auto results = ExpandSeedBatch(g, {}, Options(g), &pool);
  EXPECT_TRUE(results.empty());
}

TEST(ExpandSeedBatchTest, SingleSeedSkipsPool) {
  Graph g = TwoCliquesBridge();
  ThreadPool pool(2);
  auto results = ExpandSeedBatch(g, {{3}}, Options(g), &pool);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].community, (Community{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace oca
