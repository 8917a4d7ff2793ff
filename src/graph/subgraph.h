// Induced-subgraph extraction with node relabeling.

#ifndef OCA_GRAPH_SUBGRAPH_H_
#define OCA_GRAPH_SUBGRAPH_H_

#include <vector>

#include "graph/graph.h"
#include "util/result.h"

namespace oca {

/// An induced subgraph together with the mapping back to original ids.
struct Subgraph {
  Graph graph;                      // relabeled to [0, nodes.size())
  std::vector<NodeId> to_original;  // local id -> original id (sorted)

  /// Original id of local node `local`.
  NodeId Original(NodeId local) const { return to_original[local]; }
};

/// Extracts the subgraph induced by `nodes` (need not be sorted or unique;
/// duplicates are ignored), writing its CSR rows straight from the
/// parent's: weights carry over bit for bit. O(s log s + sum of degrees
/// of selected nodes) for s selected nodes, through a per-thread id map
/// that grows to the largest graph the thread has extracted from.
Result<Subgraph> InducedSubgraph(const Graph& graph,
                                 const std::vector<NodeId>& nodes);

}  // namespace oca

#endif  // OCA_GRAPH_SUBGRAPH_H_
