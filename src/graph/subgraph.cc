#include "graph/subgraph.h"

#include <algorithm>
#include <string>

namespace oca {

Result<Subgraph> InducedSubgraph(const Graph& graph,
                                 const std::vector<NodeId>& nodes) {
  std::vector<NodeId> sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (!sorted.empty() && sorted.back() >= graph.num_nodes()) {
    return Status::InvalidArgument("subgraph node " +
                                   std::to_string(sorted.back()) +
                                   " out of range");
  }

  // Local ids follow the sorted member list, so a parent row read in
  // order yields its local row already sorted: each member neighbour is
  // found by a lower_bound that starts at the previous hit.
  const bool weighted = graph.is_weighted();
  const size_t n = sorted.size();
  std::vector<uint64_t> offsets(n + 1, 0);
  std::vector<NodeId> neighbors;
  std::vector<double> weights;
  for (size_t local = 0; local < n; ++local) {
    auto nbrs = graph.Neighbors(sorted[local]);
    auto wts = graph.Weights(sorted[local]);  // empty when unweighted
    auto hit = sorted.begin();
    for (size_t e = 0; e < nbrs.size(); ++e) {
      hit = std::lower_bound(hit, sorted.end(), nbrs[e]);
      if (hit == sorted.end()) break;
      if (*hit != nbrs[e]) continue;
      neighbors.push_back(static_cast<NodeId>(hit - sorted.begin()));
      if (weighted) weights.push_back(wts[e]);
    }
    offsets[local + 1] = neighbors.size();
  }
  return Subgraph{Graph(std::move(offsets), std::move(neighbors),
                        std::move(weights), {}),
                  std::move(sorted)};
}

}  // namespace oca
