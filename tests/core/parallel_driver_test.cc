#include "core/parallel_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

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

// RunOca climbs through SeedExpander, one slot at a time, and bench/e2e's
// seed-loop replay climbs whole batches with ExpandSeedBatch; both must
// give each slot ExpandSeed's result, failed climbs included.
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

// Karate seeds that include a failed climb (empty and out-of-range
// sets), as a few batches.
std::vector<std::vector<Community>> KarateBatches() {
  std::vector<std::vector<Community>> batches(3);
  for (NodeId v = 0; v < 34; ++v) batches[v % 3].push_back({v});
  batches[1].push_back({});
  batches[2].push_back({99});
  batches[2].push_back({33, 32, 8});
  return batches;
}

TEST(SeedExpanderTest, TakesMatchExpandSeedSerialAndPooled) {
  Graph g = testing::KarateClub();
  const LocalSearchOptions options = Options(g);
  for (size_t threads : {0, 1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    SeedExpander expander(g, options, pool.get());
    size_t slots = 0;
    for (const std::vector<Community>& batch : KarateBatches()) {
      expander.Reset(batch);
      ASSERT_EQ(expander.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        LocalSearchResult want = ExpandSeed(g, batch[i], options);
        LocalSearchResult got = expander.Take(i);
        EXPECT_EQ(got.community, want.community) << "slot " << i;
        EXPECT_EQ(got.fitness, want.fitness) << "slot " << i;
        EXPECT_EQ(got.steps, want.steps) << "slot " << i;
      }
      slots += batch.size();
    }
    EXPECT_EQ(expander.climbs(), slots);
  }
}

// A reader that stops partway (a halt) leaves 2 x threads - 1 slots
// climbed past the last one it took; the next batch, and the
// destructor, wait those out before the seed sets they read go away.
TEST(SeedExpanderTest, StoppingEarlyLeavesOnlyTheLookAheadInFlight) {
  Graph g = testing::KarateClub();
  const LocalSearchOptions options = Options(g);
  for (size_t threads : {1, 2, 4}) {
    for (size_t taken : {0, 1, 3, 10}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " taken=" + std::to_string(taken));
      ThreadPool pool(threads);
      std::vector<Community> first;
      for (NodeId v = 0; v < 34; ++v) first.push_back({v});
      SeedExpander expander(g, options, &pool);
      expander.Reset(first);
      for (size_t i = 0; i < taken; ++i) expander.Take(i);
      if (taken == 0) {
        EXPECT_EQ(expander.climbs(), 0u);
      } else {
        EXPECT_EQ(expander.climbs(),
                  std::min(first.size(), taken + 2 * threads - 1));
      }
      // A new batch after the early stop reads its own slots.
      std::vector<Community> second = {{5}, {33, 32, 8}};
      expander.Reset(second);
      for (size_t i = 0; i < second.size(); ++i) {
        EXPECT_EQ(expander.Take(i).community,
                  ExpandSeed(g, second[i], options).community);
      }
      // Stop after one slot of a third batch: the destructor waits.
      expander.Reset(first);
      expander.Take(0);
    }
  }
}

}  // namespace
}  // namespace oca
