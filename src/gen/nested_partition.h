// Nested planted-partition benchmark graphs: a two-level stochastic
// block model with ground truth at BOTH scales. Super-communities are
// made of dense sub-blocks; sub-blocks inside a super are linked more
// densely than nodes across supers. The workload the recursive
// hierarchy (core/recursive_hierarchy.h) is built for: a flat run finds
// one scale, the recursive run should find supers at the top level and
// sub-blocks inside them.

#ifndef OCA_GEN_NESTED_PARTITION_H_
#define OCA_GEN_NESTED_PARTITION_H_

#include <cstdint>

#include "core/cover.h"
#include "graph/graph.h"
#include "util/result.h"

namespace oca {

struct NestedPartitionOptions {
  size_t num_supers = 4;       // super-communities
  size_t subs_per_super = 3;   // dense sub-blocks per super
  size_t nodes_per_sub = 16;   // nodes per sub-block
  double p_sub = 0.6;    // edge probability within a sub-block
  double p_super = 0.1;  // within a super, across its sub-blocks
  double p_out = 0.005;  // across supers
  uint64_t seed = 1;
};

/// A generated two-level benchmark graph with ground truth at each scale.
/// Node layout is contiguous: sub-block b spans
/// [b * nodes_per_sub, (b+1) * nodes_per_sub), and super s owns
/// sub-blocks [s * subs_per_super, (s+1) * subs_per_super).
struct NestedBenchmarkGraph {
  Graph graph;
  Cover super_truth;  // coarse scale: one community per super
  Cover sub_truth;    // fine scale: one community per sub-block
};

/// Generates the nested model. Errors on zero counts, a node count past
/// NodeId's max, probabilities outside [0, 1], or a density ordering
/// that inverts the nesting (requires p_sub >= p_super >= p_out).
Result<NestedBenchmarkGraph> GenerateNestedPartition(
    const NestedPartitionOptions& options);

}  // namespace oca

#endif  // OCA_GEN_NESTED_PARTITION_H_
