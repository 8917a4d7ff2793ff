#include "graph/subgraph.h"

#include <algorithm>
#include <cstdint>
#include <string>

namespace oca {

namespace {

constexpr NodeId kNotMember = UINT32_MAX;

/// Local id of each member of the subgraph being extracted, indexed by
/// parent id, and kNotMember everywhere else between calls. Per thread,
/// so that concurrent extractions never share it; grown to the parent's
/// node count on demand and reset member by member, so a call costs
/// O(s) on top of its rows, not O(n).
thread_local std::vector<NodeId> tls_local_id;

}  // namespace

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

  // Every allocation happens before the map holds any id, so nothing
  // below can throw and leave it dirty: the rows are reserved at the
  // members' parent degrees, an upper bound on what they keep.
  const bool weighted = graph.is_weighted();
  const size_t n = sorted.size();
  size_t parent_entries = 0;
  for (NodeId v : sorted) parent_entries += graph.Degree(v);
  std::vector<uint64_t> offsets(n + 1, 0);
  std::vector<NodeId> neighbors;
  std::vector<double> weights;
  neighbors.reserve(parent_entries);
  if (weighted) weights.reserve(parent_entries);
  std::vector<NodeId>& local_id = tls_local_id;
  if (local_id.size() < graph.num_nodes()) {
    local_id.resize(graph.num_nodes(), kNotMember);
  }

  // Local ids follow the sorted member list, so a parent row read in
  // order yields its local row already sorted.
  for (size_t local = 0; local < n; ++local) {
    local_id[sorted[local]] = static_cast<NodeId>(local);
  }
  for (size_t local = 0; local < n; ++local) {
    auto nbrs = graph.Neighbors(sorted[local]);
    auto wts = graph.Weights(sorted[local]);  // empty when unweighted
    for (size_t e = 0; e < nbrs.size(); ++e) {
      const NodeId id = local_id[nbrs[e]];
      if (id == kNotMember) continue;
      neighbors.push_back(id);
      if (weighted) weights.push_back(wts[e]);
    }
    offsets[local + 1] = neighbors.size();
  }
  for (NodeId v : sorted) local_id[v] = kNotMember;

  return Subgraph{Graph(std::move(offsets), std::move(neighbors),
                        std::move(weights), {}),
                  std::move(sorted)};
}

}  // namespace oca
