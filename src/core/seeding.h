// Seed-set construction (paper Section IV: OCA "starts with a random
// neighborhood of the seed", drawn from "randomly distributed initial
// seeds"). The paper leaves seed selection open; we provide the natural
// strategies and make the choice a config knob (ablation bench A1).

#ifndef OCA_CORE_SEEDING_H_
#define OCA_CORE_SEEDING_H_

#include <cstdint>
#include <string_view>

#include "core/cover.h"
#include "graph/graph.h"
#include "util/random.h"

namespace oca {

/// How the initial subset is built around a seed node.
enum class SeedMode {
  kNodeOnly,            // {v}
  kClosedNeighborhood,  // {v} + all neighbors
  kRandomNeighborhood,  // {v} + each neighbor kept with probability
                        // `neighbor_keep_probability` (the paper's choice)
};

std::string_view SeedModeName(SeedMode mode);

/// How seed nodes are drawn.
enum class SeedSelection {
  kUniform,        // uniform over all nodes
  kUncoveredFirst, // uniform over nodes not yet in any found community,
                   // falling back to uniform when all are covered
};

struct SeedingOptions {
  SeedMode mode = SeedMode::kRandomNeighborhood;
  SeedSelection selection = SeedSelection::kUncoveredFirst;
  double neighbor_keep_probability = 0.5;
};

/// Tracks covered nodes and produces seed sets. Not thread-safe, and
/// never shared: RunOca keeps one Seeder on its calling thread, which
/// draws every seed, serial or pooled, and marks coverage after each
/// expansion its seed loop records.
class Seeder {
 public:
  Seeder(const Graph& graph, const SeedingOptions& options, Rng rng);

  /// Draws a seed node according to the selection policy. Once
  /// Exhausted() is true every remaining draw is an arbitrary
  /// already-exhausted node; callers should check Exhausted() first.
  NodeId NextSeedNode();

  /// Builds the initial subset around `seed` according to the mode.
  Community BuildSeedSet(NodeId seed);

  /// Marks nodes covered (affects kUncoveredFirst selection). Returns how
  /// many of them were newly covered — the driver's novelty signal for
  /// the stagnation halting criterion.
  size_t MarkCovered(const Community& community);

  /// Marks a seed node as spent: kUncoveredFirst will not draw it again
  /// even if it remains uncovered. The driver spends every expanded seed,
  /// so nodes whose climbs keep rediscovering known communities cannot
  /// stall the halting criterion. Does not affect CoverageFraction.
  void MarkSeedSpent(NodeId seed);

  /// Fraction of nodes covered so far.
  double CoverageFraction() const;

  /// True once every node is covered or spent as a seed. From this point
  /// NextSeedNode can only return already-exhausted nodes (it falls back
  /// to a uniform draw), so the driver checks this before each draw and
  /// halts with reason "seeds_exhausted" instead of burning seeds until
  /// a stagnation window fires.
  bool Exhausted() const { return exhausted_count_ >= exhausted_.size(); }

  size_t covered_count() const { return covered_count_; }

 private:
  const Graph* graph_;
  SeedingOptions options_;
  Rng rng_;
  std::vector<bool> covered_;    // nodes inside some found community
  std::vector<bool> exhausted_;  // covered OR spent as a seed
  size_t covered_count_ = 0;
  size_t exhausted_count_ = 0;
};

}  // namespace oca

#endif  // OCA_CORE_SEEDING_H_
