#include "graph/graph.h"

#include <algorithm>
#include <atomic>

namespace oca {

uint64_t Graph::NextId() {
  static std::atomic<uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  // Search the smaller list.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double Graph::EdgeWeight(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) return 0.0;
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return 0.0;
  if (!is_weighted()) return 1.0;
  return weights_view_[offsets_view_[u] +
                       static_cast<size_t>(it - nbrs.begin())];
}

double Graph::WeightedDegree(NodeId v) const {
  if (!is_weighted()) return static_cast<double>(Degree(v));
  double sum = 0.0;
  for (double w : Weights(v)) sum += w;
  return sum;
}

double Graph::MaxWeightedDegree() const {
  if (!is_weighted()) return static_cast<double>(MaxDegree());
  double best = 0.0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    best = std::max(best, WeightedDegree(v));
  }
  return best;
}

double Graph::TotalWeight() const {
  if (!is_weighted()) return static_cast<double>(num_edges());
  // Each undirected edge is stored twice with the same weight; summing
  // the full array and halving keeps one deterministic order.
  double sum = 0.0;
  for (double w : weights_view_) sum += w;
  return sum / 2.0;
}

size_t Graph::MaxDegree() const {
  size_t best = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    best = std::max(best, Degree(v));
  }
  return best;
}

double Graph::AverageDegree() const {
  if (num_nodes() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(num_nodes());
}

std::vector<Edge> Graph::Edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  ForEachEdge([&out](NodeId u, NodeId v) { out.emplace_back(u, v); });
  return out;
}

std::vector<WeightedEdge> Graph::WeightedEdges() const {
  std::vector<WeightedEdge> out;
  out.reserve(num_edges());
  ForEachWeightedEdge([&out](NodeId u, NodeId v, double w) {
    out.push_back(WeightedEdge{u, v, w});
  });
  return out;
}

}  // namespace oca
