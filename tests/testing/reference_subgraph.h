// The hash-map-and-GraphBuilder induced-subgraph extraction that
// InducedSubgraph replaced, kept apart from the library as the reference
// its direct CSR writer is judged against.

#ifndef OCA_TESTS_TESTING_REFERENCE_SUBGRAPH_H_
#define OCA_TESTS_TESTING_REFERENCE_SUBGRAPH_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/subgraph.h"

namespace oca::testing {

/// Same contract as InducedSubgraph: members sorted and deduplicated,
/// local ids in sorted order, each internal edge added once through a
/// GraphBuilder (with the weight of its lower local endpoint's entry).
inline Result<Subgraph> ReferenceInducedSubgraph(
    const Graph& graph, const std::vector<NodeId>& nodes) {
  std::vector<NodeId> sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (!sorted.empty() && sorted.back() >= graph.num_nodes()) {
    return Status::InvalidArgument("subgraph node " +
                                   std::to_string(sorted.back()) +
                                   " out of range");
  }
  std::unordered_map<NodeId, NodeId> to_local;
  to_local.reserve(sorted.size() * 2);
  for (NodeId i = 0; i < sorted.size(); ++i) to_local[sorted[i]] = i;

  GraphBuilder builder(sorted.size());
  const bool weighted = graph.is_weighted();
  for (NodeId local = 0; local < sorted.size(); ++local) {
    auto nbrs = graph.Neighbors(sorted[local]);
    auto wts = graph.Weights(sorted[local]);  // empty when unweighted
    for (size_t e = 0; e < nbrs.size(); ++e) {
      auto it = to_local.find(nbrs[e]);
      if (it != to_local.end() && it->second > local) {
        if (weighted) {
          builder.AddEdge(local, it->second, wts[e]);
        } else {
          builder.AddEdge(local, it->second);
        }
      }
    }
  }
  OCA_ASSIGN_OR_RETURN(Graph sub, builder.Build());
  return Subgraph{std::move(sub), std::move(sorted)};
}

}  // namespace oca::testing

#endif  // OCA_TESTS_TESTING_REFERENCE_SUBGRAPH_H_
