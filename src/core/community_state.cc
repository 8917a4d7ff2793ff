#include "core/community_state.h"

#include <algorithm>
#include <cassert>

namespace oca {

void CommunityState::Add(NodeId v) {
  NodeInfo& info = deg_in_[v];
  assert(!info.member && "Add on existing member");
  info.member = true;
  members_.push_back(v);

  stats_.size += 1;
  stats_.ein += info.count;  // v's in-neighbors become internal edges
  stats_.volume += graph_->Degree(v);

  if (graph_->is_weighted()) {
    stats_.w_in += info.wcount;
    stats_.w_volume += graph_->WeightedDegree(v);
    auto nbrs = graph_->Neighbors(v);
    auto wts = graph_->Weights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      NodeInfo& ni = deg_in_[nbrs[i]];
      ++ni.count;
      ni.wcount += wts[i];
    }
    return;
  }
  // Unweighted: the historical loop, with the weighted stats mirroring
  // the integer counters (exact — they are integer-valued doubles).
  stats_.w_in = static_cast<double>(stats_.ein);
  stats_.w_volume = static_cast<double>(stats_.volume);
  for (NodeId u : graph_->Neighbors(v)) {
    ++deg_in_[u].count;
  }
}

void CommunityState::Remove(NodeId v) {
  auto it = deg_in_.find(v);
  assert(it != deg_in_.end() && it->second.member && "Remove on non-member");
  it->second.member = false;

  stats_.size -= 1;
  stats_.ein -= it->second.count;
  stats_.volume -= graph_->Degree(v);

  const bool weighted = graph_->is_weighted();
  if (weighted) {
    stats_.w_in -= it->second.wcount;
    stats_.w_volume -= graph_->WeightedDegree(v);
  } else {
    stats_.w_in = static_cast<double>(stats_.ein);
    stats_.w_volume = static_cast<double>(stats_.volume);
  }

  auto pos = std::find(members_.begin(), members_.end(), v);
  assert(pos != members_.end());
  // Order-preserving erase keeps Frontier() deterministic across
  // different std::find positions; member count is small relative to
  // neighbor scans so the O(|S|) erase is immaterial.
  members_.erase(pos);

  auto nbrs = graph_->Neighbors(v);
  auto wts = graph_->Weights(v);  // empty when unweighted
  for (size_t i = 0; i < nbrs.size(); ++i) {
    auto uit = deg_in_.find(nbrs[i]);
    assert(uit != deg_in_.end() && uit->second.count > 0);
    --uit->second.count;
    if (weighted) uit->second.wcount -= wts[i];
    // Garbage-collect empty non-member entries to keep the map small on
    // long add/remove sequences. (count == 0 means no edges into S, so
    // any weighted residue left by float cancellation is dropped too.)
    if (uit->second.count == 0 && !uit->second.member) {
      deg_in_.erase(uit);
    }
  }
  if (it->second.count == 0) {
    // Re-find: the neighbor loop may have rehashed the map.
    auto self = deg_in_.find(v);
    if (self != deg_in_.end() && self->second.count == 0 &&
        !self->second.member) {
      deg_in_.erase(self);
    }
  }
}

std::vector<std::pair<NodeId, uint32_t>> CommunityState::Frontier() const {
  std::vector<std::pair<NodeId, uint32_t>> frontier;
  frontier.reserve(deg_in_.size());
  for (const auto& [node, info] : deg_in_) {
    if (!info.member && info.count > 0) {
      frontier.emplace_back(node, info.count);
    }
  }
  // Hash-map iteration order is implementation-defined; sort for
  // reproducibility of tie-breaks in the greedy search.
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

Community CommunityState::ToCommunity() const {
  Community out = members_;
  std::sort(out.begin(), out.end());
  return out;
}

void CommunityState::Clear() {
  stats_ = SubsetStats{};
  members_.clear();
  deg_in_.clear();
}

SubsetStats ComputeSubsetStats(const Graph& graph, const Community& nodes) {
  // Epoch-marked membership scratch: exactly O(sum deg), no sort and no
  // per-neighbor binary search. thread_local (mirroring the climber's
  // scratch) so metric sweeps over many communities reuse one
  // allocation. `nodes` must be duplicate-free (Community contract).
  thread_local std::vector<uint32_t> mark;
  thread_local uint32_t epoch = 0;
  if (mark.size() < graph.num_nodes()) mark.resize(graph.num_nodes(), 0);
  if (++epoch == 0) {  // wrapped: invalidate stale marks
    std::fill(mark.begin(), mark.end(), 0);
    epoch = 1;
  }
  for (NodeId v : nodes) {
    assert(v < graph.num_nodes() && "subset node out of range");
    mark[v] = epoch;
  }
  SubsetStats stats;
  stats.size = nodes.size();
  if (graph.is_weighted()) {
    for (NodeId v : nodes) {
      stats.volume += graph.Degree(v);
      stats.w_volume += graph.WeightedDegree(v);
      auto nbrs = graph.Neighbors(v);
      auto wts = graph.Weights(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        if (nbrs[i] > v && mark[nbrs[i]] == epoch) {
          ++stats.ein;
          stats.w_in += wts[i];
        }
      }
    }
    return stats;
  }
  for (NodeId v : nodes) {
    stats.volume += graph.Degree(v);
    for (NodeId u : graph.Neighbors(v)) {
      if (u > v && mark[u] == epoch) ++stats.ein;
    }
  }
  // Exact mirrors (see SubsetStats): all-1.0 weights and no weights
  // must be indistinguishable to weighted fitness evaluation.
  stats.w_in = static_cast<double>(stats.ein);
  stats.w_volume = static_cast<double>(stats.volume);
  return stats;
}

}  // namespace oca
