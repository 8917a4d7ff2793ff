// The handcrafted community tree shared by the .ocac store tests and
// the snapshot golden pins. Its doubles are exact binary fractions, so
// every byte of its snapshot is the same on any libm.

#ifndef OCA_TESTS_TESTING_HANDCRAFTED_TREE_H_
#define OCA_TESTS_TESTING_HANDCRAFTED_TREE_H_

#include "core/recursive_hierarchy.h"

namespace oca::testing {

/// Two overlapping roots over an 8-node graph, each split once:
///
///   root 0 {0..5} -> 2 {0,1,2}, 3 {3,4,5}
///   root 1 {4..7} -> 4 {6,7}
///
/// Nodes 4 and 5 sit in both roots, so the posting and path sections
/// carry genuine multi-path overlap.
inline RecursiveHierarchy HandcraftedTree() {
  RecursiveHierarchy tree;
  tree.nodes.resize(5);
  tree.nodes[0].community = {0, 1, 2, 3, 4, 5};
  tree.nodes[0].children = {2, 3};
  tree.nodes[0].stop_reason = "split";
  tree.nodes[0].subgraph_c = 1.5;
  tree.nodes[0].subgraph_lambda_min = -0.25;
  tree.nodes[1].community = {4, 5, 6, 7};
  tree.nodes[1].children = {4};
  tree.nodes[1].stop_reason = "split";
  tree.nodes[2].community = {0, 1, 2};
  tree.nodes[2].parent = 0;
  tree.nodes[2].depth = 1;
  tree.nodes[2].stop_reason = "min_size";
  tree.nodes[3].community = {3, 4, 5};
  tree.nodes[3].parent = 0;
  tree.nodes[3].depth = 1;
  tree.nodes[3].stop_reason = "density";
  tree.nodes[4].community = {6, 7};
  tree.nodes[4].parent = 1;
  tree.nodes[4].depth = 1;
  tree.nodes[4].stop_reason = "max_depth";
  tree.roots = {0, 1};
  tree.max_depth_reached = 1;
  tree.root_stats.coupling_constant = 2.25;
  tree.root_stats.lambda_min = -0.4375;
  return tree;
}

}  // namespace oca::testing

#endif  // OCA_TESTS_TESTING_HANDCRAFTED_TREE_H_
