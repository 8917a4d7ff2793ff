#include "core/local_search.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

namespace oca {

namespace {

/// Sentinel for "no candidate move found".
constexpr NodeId kNoNode = UINT32_MAX;

// ---------------------------------------------------------------------
// Fast path for deg-in-ranked fitness functions.
//
// For the directed Laplacian (and raw phi), the gain of adding a frontier
// node depends only on (s, ein, deg_in) and is strictly increasing in
// deg_in: L(s+1, ein + d) carries 2c(ein + d) with positive coefficient
// (1 - (s-1)/sqrt(s(s+1))) > 0. Symmetrically the removal gain is
// maximized by the member with the SMALLEST deg_in. The greedy argmax is
// therefore "frontier node with max deg_in vs member with min deg_in" —
// two bucket queues keyed by deg_in, giving O(1) candidate selection and
// O(deg) per committed move. This is what makes a single OCA expansion
// cost O(vol(S)) instead of O(|S| * frontier), and the whole algorithm
// flat in community size (paper Fig. 6).
// ---------------------------------------------------------------------

/// Monotone-in-deg-in fitness kinds eligible for a fast path. For these
/// two kinds the gain reads only (s, ein) — never the candidate's total
/// degree — and is strictly monotone in deg-in, so the greedy argmax is
/// an extreme-deg-in lookup. The weighted forms inherit the property
/// verbatim with deg-in generalized to the weighted deg-in (the gain is
/// linear in w_in with positive coefficient), so use_weights routes to
/// the quantized WeightedFastClimb rather than forfeiting the fast path.
bool DegInRanked(const FitnessParams& params) {
  return params.kind == FitnessKind::kDirectedLaplacian ||
         params.kind == FitnessKind::kRawPhi;
}

/// Bucket queue over nodes keyed by small non-negative integers (a
/// deg-in, so never above the node's degree). Flat-array storage reused
/// across climbs via Reset, so the hot path does no hashing and no
/// allocation once warm. The bucket array grows on demand to the largest
/// key ever inserted, so preparing a climb never scans the graph for its
/// maximum degree. O(1) insert/erase/re-key; amortized O(1) max/min via
/// moving hints. Deterministic: ties return the most recently inserted
/// node of the extreme bucket.
class BucketQueue {
 public:
  /// Prepares for a graph with `num_nodes` nodes. Must be empty (freshly
  /// constructed or after Reset).
  void Configure(size_t num_nodes) {
    if (pos_.size() < num_nodes) pos_.resize(num_nodes, Pos{0, 0, false});
    max_hint_ = 0;
    min_hint_ = 0;
    size_ = 0;
  }

  /// Empties all buckets and membership flags. O(buckets + content).
  void Reset() {
    for (auto& bucket : buckets_) {
      for (NodeId v : bucket) pos_[v].in = false;
      bucket.clear();
    }
    size_ = 0;
    max_hint_ = 0;
    min_hint_ = 0;
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  bool Contains(NodeId v) const { return pos_[v].in; }

  /// Current key of a contained node. Precondition: Contains(v).
  uint32_t KeyOf(NodeId v) const { return pos_[v].key; }

  void Insert(NodeId v, uint32_t key) {
    if (key >= buckets_.size()) Grow(key);
    auto& bucket = buckets_[key];
    pos_[v] = {key, static_cast<uint32_t>(bucket.size()), true};
    bucket.push_back(v);
    ++size_;
    max_hint_ = std::max(max_hint_, key);
    min_hint_ = std::min(min_hint_, key);
  }

  void Erase(NodeId v) {
    Pos& p = pos_[v];
    auto& bucket = buckets_[p.key];
    NodeId moved = bucket.back();
    bucket[p.index] = moved;
    bucket.pop_back();
    if (moved != v) pos_[moved].index = p.index;
    p.in = false;
    --size_;
  }

  void ChangeKey(NodeId v, uint32_t new_key) {
    Erase(v);
    Insert(v, new_key);
  }

  /// Node with the largest key (ties: last inserted). Queue must be
  /// non-empty.
  std::pair<NodeId, uint32_t> Max() {
    while (buckets_[max_hint_].empty()) --max_hint_;
    return {buckets_[max_hint_].back(), max_hint_};
  }

  /// Node with the smallest key (ties: last inserted).
  std::pair<NodeId, uint32_t> Min() {
    while (buckets_[min_hint_].empty()) ++min_hint_;
    return {buckets_[min_hint_].back(), min_hint_};
  }

  /// Contents of the largest-key non-empty bucket (advances the hint).
  /// Queue must be non-empty. Used by the weighted climber: keys are
  /// QUANTIZED weighted deg-ins there, so the exact argmax needs a scan
  /// of the extreme bucket, not just its last element.
  const std::vector<NodeId>& MaxBucket() {
    while (buckets_[max_hint_].empty()) --max_hint_;
    return buckets_[max_hint_];
  }

  /// Contents of the smallest-key non-empty bucket (advances the hint).
  const std::vector<NodeId>& MinBucket() {
    while (buckets_[min_hint_].empty()) ++min_hint_;
    return buckets_[min_hint_];
  }

  /// Calls fn(v, key) for every contained node (bucket order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t key = 0; key < buckets_.size(); ++key) {
      for (NodeId v : buckets_[key]) fn(v, key);
    }
  }

 private:
  struct Pos {
    uint32_t key;
    uint32_t index;
    bool in;
  };

  /// Out of line so that Insert, which the climbs call in their inner
  /// loops, stays small enough to be inlined there.
  [[gnu::noinline]] void Grow(uint32_t key) { buckets_.resize(key + 1); }

  std::vector<std::vector<NodeId>> buckets_;
  std::vector<Pos> pos_;
  size_t size_ = 0;
  uint32_t max_hint_ = 0;
  uint32_t min_hint_ = 0;
};

/// Per-thread reusable climb state: flat deg-in array plus the two
/// bucket queues. Memory O(n) per thread, reset in O(touched).
struct ClimbScratch {
  std::vector<uint32_t> deg_in;
  BucketQueue frontier;  // non-members touching S, key = deg_in
  BucketQueue members;   // members, key = deg_in

  void Configure(size_t num_nodes) {
    if (deg_in.size() < num_nodes) deg_in.resize(num_nodes, 0);
    frontier.Configure(num_nodes);
    members.Configure(num_nodes);
  }

  /// Clears everything the last climb touched (deg_in of any node still
  /// in a queue; evicted frontier nodes are already zero).
  void Reset() {
    frontier.ForEach([this](NodeId v, uint32_t) { deg_in[v] = 0; });
    members.ForEach([this](NodeId v, uint32_t) { deg_in[v] = 0; });
    frontier.Reset();
    members.Reset();
  }
};

/// Fast climber: bucket-queue greedy for deg-in-ranked fitness.
LocalSearchResult FastClimb(const Graph& graph, const Community& seed,
                            const LocalSearchOptions& options) {
  thread_local ClimbScratch scratch;
  scratch.Configure(graph.num_nodes());
  auto& deg_in = scratch.deg_in;
  auto& frontier = scratch.frontier;
  auto& members = scratch.members;
  SubsetStats stats;
  // This climber reaches use_weights only on an UNWEIGHTED graph (the
  // all-1.0 case; weighted graphs take WeightedFastClimb). There the
  // weighted stats are exact integer mirrors, kept live move by move so
  // the weighted gain evaluations below see current values.
  const bool use_weights = options.fitness.use_weights;

  auto add_node = [&](NodeId v) {
    uint32_t d = deg_in[v];
    if (frontier.Contains(v)) frontier.Erase(v);
    members.Insert(v, d);
    stats.size += 1;
    stats.ein += d;
    stats.volume += graph.Degree(v);
    stats.w_in = static_cast<double>(stats.ein);
    stats.w_volume = static_cast<double>(stats.volume);
    for (NodeId u : graph.Neighbors(v)) {
      uint32_t du = ++deg_in[u];
      if (members.Contains(u)) {
        members.ChangeKey(u, du);
      } else if (du == 1) {
        frontier.Insert(u, 1);
      } else {
        frontier.ChangeKey(u, du);
      }
    }
  };

  auto remove_node = [&](NodeId v) {
    uint32_t d = deg_in[v];
    members.Erase(v);
    stats.size -= 1;
    stats.ein -= d;
    stats.volume -= graph.Degree(v);
    stats.w_in = static_cast<double>(stats.ein);
    stats.w_volume = static_cast<double>(stats.volume);
    for (NodeId u : graph.Neighbors(v)) {
      uint32_t du = --deg_in[u];
      if (members.Contains(u)) {
        members.ChangeKey(u, du);
      } else if (du == 0) {
        frontier.Erase(u);
      } else {
        frontier.ChangeKey(u, du);
      }
    }
    if (d > 0) frontier.Insert(v, d);
  };

  for (NodeId v : seed) add_node(v);

  LocalSearchResult result;
  for (;;) {
    if (options.max_steps != 0 && result.steps >= options.max_steps) {
      result.hit_step_cap = true;
      break;
    }
    double best_gain = options.epsilon;
    NodeId best_node = kNoNode;
    bool best_is_add = true;

    if (!frontier.empty() && (options.max_community_size == 0 ||
                              stats.size < options.max_community_size)) {
      auto [v, d] = frontier.Max();
      // With use_weights the gain must move w_in, not ein (the weighted
      // evaluation reads only the weighted fields); on the mirrors the
      // result is bit-identical to the integer gain.
      double gain =
          use_weights
              ? WeightedFitnessGainAdd(stats, static_cast<double>(d),
                                       static_cast<double>(graph.Degree(v)),
                                       options.fitness)
              : FitnessGainAdd(stats, d, graph.Degree(v), options.fitness);
      if (gain > best_gain) {
        best_gain = gain;
        best_node = v;
        best_is_add = true;
      }
    }
    if (options.allow_remove && stats.size > 1) {
      auto [v, d] = members.Min();
      double gain =
          use_weights
              ? WeightedFitnessGainRemove(stats, static_cast<double>(d),
                                          static_cast<double>(graph.Degree(v)),
                                          options.fitness)
              : FitnessGainRemove(stats, d, graph.Degree(v), options.fitness);
      if (gain > best_gain) {
        best_gain = gain;
        best_node = v;
        best_is_add = false;
      }
    }

    if (best_node == kNoNode) break;  // local maximum
    if (best_is_add) {
      add_node(best_node);
      ++result.adds;
    } else {
      remove_node(best_node);
      ++result.removes;
    }
    ++result.steps;
  }

  // Collect members and release the scratch for the next climb.
  result.community.reserve(stats.size);
  members.ForEach(
      [&result](NodeId v, uint32_t) { result.community.push_back(v); });
  std::sort(result.community.begin(), result.community.end());
  scratch.Reset();
  // stats already carries the exact integer mirrors in its weighted
  // fields (maintained move by move above), so the returned SubsetStats
  // is self-consistent for both routes into this climber.
  result.stats = stats;
  result.fitness = EvaluateFitness(stats, options.fitness);
  return result;
}

// ---------------------------------------------------------------------
// Weighted fast path: quantized bucket queues over the weighted deg-in.
//
// For the deg-in-ranked kinds the weighted gain is linear in the
// candidate's weighted deg-in with a positive coefficient, so the greedy
// argmax is still "frontier node with max w_deg_in vs member with min
// w_deg_in" — but the key is now a double. Exact bucketing is
// impossible; instead each node is filed under the QUANTIZED key
// floor(w * inv_quantum), a monotone map, so the true extreme always
// lives in the extreme non-empty bucket and an exact scan of that one
// bucket recovers it. Buckets hold nodes within one quantum
// (MaxWeightedDegree / 1023) of each other, so the scan is short on any
// graph whose weights are not all identical; moves stay O(deg) with
// re-keys only when a node crosses a quantum boundary.
//
// Bookkeeping parity: the float accumulations (w_deg_in updates in
// adjacency order, stats.w_in/w_volume updates per move, residue drop
// when a non-member's deg-in hits zero) replicate CommunityState::Add/
// Remove operation for operation, so an identical move sequence yields
// bit-identical SubsetStats — the property the weighted differential
// test pins. Exact w_deg_in TIES are broken toward the smallest node id
// (the generic climber breaks removal ties by insertion order instead;
// distinct weights make ties measure-zero).
// ---------------------------------------------------------------------

/// Number of quantization buckets for the weighted climber. 1024 keeps
/// the two queues' bucket arrays L1-resident while making same-bucket
/// collisions rare on real weight distributions.
constexpr uint32_t kWeightBuckets = 1024;

/// Per-thread reusable state for WeightedFastClimb. On top of the
/// integer scratch it carries the weighted deg-ins, the per-graph
/// weighted-degree table, and the quantization scale — the latter two
/// cached across climbs keyed on the graph's weight storage identity,
/// so the O(n + m) precompute runs once per (thread, graph), not once
/// per seed.
struct WeightedClimbScratch {
  std::vector<uint32_t> deg_in;
  std::vector<double> w_deg_in;
  std::vector<double> wdeg;  // WeightedDegree(v) for all v, precomputed
  BucketQueue frontier;      // non-members touching S, key = q(w_deg_in)
  BucketQueue members;       // members, key = q(w_deg_in)
  double inv_quantum = 0.0;

  // Identity of the graph the caches were built for. The weight span's
  // data pointer and length pin the storage; CSR arrays are immutable
  // after construction, so equality means "same weights".
  const double* cached_weights = nullptr;
  size_t cached_num_weights = 0;

  void Configure(const Graph& graph) {
    size_t n = graph.num_nodes();
    if (deg_in.size() < n) deg_in.resize(n, 0);
    if (w_deg_in.size() < n) w_deg_in.resize(n, 0.0);
    frontier.Configure(n);
    members.Configure(n);

    auto weights = graph.weight_array();
    if (weights.data() == cached_weights &&
        weights.size() == cached_num_weights && wdeg.size() == n) {
      return;  // same graph as the previous climb on this thread
    }
    wdeg.assign(n, 0.0);
    double max_wdeg = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      // Same summation order as Graph::WeightedDegree — the table must
      // be bit-identical to what the generic climber memoizes.
      wdeg[v] = graph.WeightedDegree(v);
      max_wdeg = std::max(max_wdeg, wdeg[v]);
    }
    // w_deg_in(v) <= WeightedDegree(v) <= max_wdeg, so this maps every
    // key into [0, kWeightBuckets); Quantize still clamps to absorb
    // float accumulation overshoot.
    inv_quantum =
        max_wdeg > 0.0 ? (kWeightBuckets - 1) / max_wdeg : 0.0;
    cached_weights = weights.data();
    cached_num_weights = weights.size();
  }

  /// Monotone map from a weighted deg-in to its bucket. Non-positive
  /// inputs (possible only as float residue) file under 0.
  uint32_t Quantize(double w) const {
    if (w <= 0.0) return 0;
    double scaled = w * inv_quantum;
    if (scaled >= kWeightBuckets - 1) return kWeightBuckets - 1;
    return static_cast<uint32_t>(scaled);
  }

  /// Clears everything the last climb touched.
  void Reset() {
    frontier.ForEach([this](NodeId v, uint32_t) {
      deg_in[v] = 0;
      w_deg_in[v] = 0.0;
    });
    members.ForEach([this](NodeId v, uint32_t) {
      deg_in[v] = 0;
      w_deg_in[v] = 0.0;
    });
    frontier.Reset();
    members.Reset();
  }
};

/// Weighted fast climber: quantized bucket-queue greedy for
/// deg-in-ranked fitness with use_weights on a weighted graph.
LocalSearchResult WeightedFastClimb(const Graph& graph, const Community& seed,
                                    const LocalSearchOptions& options) {
  thread_local WeightedClimbScratch scratch;
  scratch.Configure(graph);
  auto& deg_in = scratch.deg_in;
  auto& w_deg_in = scratch.w_deg_in;
  auto& wdeg = scratch.wdeg;
  auto& frontier = scratch.frontier;
  auto& members = scratch.members;
  SubsetStats stats;

  // Re-keys a queued neighbor only when its quantized key moved —
  // most weight deltas stay inside one quantum, so the common case is
  // a pure array update with no queue traffic.
  auto rekey = [&](BucketQueue& queue, NodeId u) {
    uint32_t k = scratch.Quantize(w_deg_in[u]);
    if (k != queue.KeyOf(u)) queue.ChangeKey(u, k);
  };

  auto add_node = [&](NodeId v) {
    uint32_t d = deg_in[v];
    if (frontier.Contains(v)) frontier.Erase(v);
    members.Insert(v, scratch.Quantize(w_deg_in[v]));
    stats.size += 1;
    stats.ein += d;
    stats.volume += graph.Degree(v);
    stats.w_in += w_deg_in[v];
    stats.w_volume += wdeg[v];
    auto nbrs = graph.Neighbors(v);
    auto wts = graph.Weights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      NodeId u = nbrs[i];
      uint32_t du = ++deg_in[u];
      w_deg_in[u] += wts[i];
      if (members.Contains(u)) {
        rekey(members, u);
      } else if (du == 1) {
        frontier.Insert(u, scratch.Quantize(w_deg_in[u]));
      } else {
        rekey(frontier, u);
      }
    }
  };

  auto remove_node = [&](NodeId v) {
    uint32_t d = deg_in[v];
    members.Erase(v);
    stats.size -= 1;
    stats.ein -= d;
    stats.volume -= graph.Degree(v);
    stats.w_in -= w_deg_in[v];
    stats.w_volume -= wdeg[v];
    auto nbrs = graph.Neighbors(v);
    auto wts = graph.Weights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      NodeId u = nbrs[i];
      uint32_t du = --deg_in[u];
      w_deg_in[u] -= wts[i];
      if (members.Contains(u)) {
        rekey(members, u);
      } else if (du == 0) {
        frontier.Erase(u);
        // Mirror CommunityState's garbage collection: zero edges into S
        // means the weighted deg-in is exactly 0 — drop any float
        // residue the subtraction left behind.
        w_deg_in[u] = 0.0;
      } else {
        rekey(frontier, u);
      }
    }
    if (d > 0) {
      frontier.Insert(v, scratch.Quantize(w_deg_in[v]));
    } else {
      w_deg_in[v] = 0.0;
    }
  };

  for (NodeId v : seed) add_node(v);

  LocalSearchResult result;
  for (;;) {
    if (options.max_steps != 0 && result.steps >= options.max_steps) {
      result.hit_step_cap = true;
      break;
    }
    double best_gain = options.epsilon;
    NodeId best_node = kNoNode;
    bool best_is_add = true;

    if (!frontier.empty() && (options.max_community_size == 0 ||
                              stats.size < options.max_community_size)) {
      // Exact argmax: the max w_deg_in is in the top bucket because the
      // quantization is monotone. Ties toward the smallest node id.
      NodeId v = kNoNode;
      double w = -1.0;
      for (NodeId u : frontier.MaxBucket()) {
        if (w_deg_in[u] > w || (w_deg_in[u] == w && u < v)) {
          v = u;
          w = w_deg_in[u];
        }
      }
      double gain = WeightedFitnessGainAdd(stats, w, wdeg[v], options.fitness);
      if (gain > best_gain) {
        best_gain = gain;
        best_node = v;
        best_is_add = true;
      }
    }
    if (options.allow_remove && stats.size > 1) {
      NodeId v = kNoNode;
      double w = 0.0;
      for (NodeId u : members.MinBucket()) {
        if (v == kNoNode || w_deg_in[u] < w ||
            (w_deg_in[u] == w && u < v)) {
          v = u;
          w = w_deg_in[u];
        }
      }
      double gain =
          WeightedFitnessGainRemove(stats, w, wdeg[v], options.fitness);
      if (gain > best_gain) {
        best_gain = gain;
        best_node = v;
        best_is_add = false;
      }
    }

    if (best_node == kNoNode) break;  // local maximum
    if (best_is_add) {
      add_node(best_node);
      ++result.adds;
    } else {
      remove_node(best_node);
      ++result.removes;
    }
    ++result.steps;
  }

  result.community.reserve(stats.size);
  members.ForEach(
      [&result](NodeId v, uint32_t) { result.community.push_back(v); });
  std::sort(result.community.begin(), result.community.end());
  scratch.Reset();
  // stats.w_in / w_volume carry the true weighted accumulations (no
  // integer mirroring here — the graph is weighted).
  result.stats = stats;
  result.fitness = EvaluateFitness(stats, options.fitness);
  return result;
}

/// Generic climber: full candidate scan per step. Correct for every
/// fitness kind (the gain may depend on the candidate's total degree);
/// used by the LFK/conductance ablation variants and as the reference
/// implementation the fast path is tested against.
LocalSearchResult GenericClimb(const Graph& graph, const Community& seed,
                               const LocalSearchOptions& options) {
  CommunityState state(graph);
  for (NodeId v : seed) state.Add(v);

  // Weighted scoring needs each candidate's weighted degree, an O(deg)
  // scan of its weight row; memoize it — candidates are rescored every
  // step, and a node's weighted degree never changes.
  const bool weighted = options.fitness.use_weights;
  std::unordered_map<NodeId, double> wdeg_memo;
  auto weighted_degree = [&](NodeId v) {
    auto it = wdeg_memo.find(v);
    if (it != wdeg_memo.end()) return it->second;
    const double d = graph.WeightedDegree(v);
    wdeg_memo.emplace(v, d);
    return d;
  };

  LocalSearchResult result;
  for (;;) {
    if (options.max_steps != 0 && result.steps >= options.max_steps) {
      result.hit_step_cap = true;
      break;
    }
    const SubsetStats& stats = state.stats();

    double best_gain = options.epsilon;
    NodeId best_node = kNoNode;
    bool best_is_add = true;
    if (options.max_community_size == 0 ||
        stats.size < options.max_community_size) {
      for (const auto& [node, deg_in] : state.Frontier()) {
        double gain =
            weighted
                ? WeightedFitnessGainAdd(stats, state.WDegIn(node),
                                         weighted_degree(node), options.fitness)
                : FitnessGainAdd(stats, deg_in, graph.Degree(node),
                                 options.fitness);
        if (gain > best_gain) {
          best_gain = gain;
          best_node = node;
          best_is_add = true;
        }
      }
    }

    if (options.allow_remove && stats.size > 1) {
      for (NodeId v : state.members()) {
        double gain =
            weighted
                ? WeightedFitnessGainRemove(stats, state.WDegIn(v),
                                            weighted_degree(v), options.fitness)
                : FitnessGainRemove(stats, state.DegIn(v), graph.Degree(v),
                                    options.fitness);
        if (gain > best_gain) {
          best_gain = gain;
          best_node = v;
          best_is_add = false;
        }
      }
    }

    if (best_node == kNoNode) break;  // local maximum
    if (best_is_add) {
      state.Add(best_node);
      ++result.adds;
    } else {
      state.Remove(best_node);
      ++result.removes;
    }
    ++result.steps;
  }

  result.community = state.ToCommunity();
  result.stats = state.stats();
  result.fitness = EvaluateFitness(result.stats, options.fitness);
  return result;
}

}  // namespace

Result<LocalSearchResult> GreedyLocalSearch(
    const Graph& graph, const Community& seed_set,
    const LocalSearchOptions& options) {
  if (seed_set.empty()) {
    return Status::InvalidArgument("local search needs a non-empty seed set");
  }
  Community seed = seed_set;
  std::sort(seed.begin(), seed.end());
  seed.erase(std::unique(seed.begin(), seed.end()), seed.end());
  if (seed.back() >= graph.num_nodes()) {
    return Status::InvalidArgument("seed node " + std::to_string(seed.back()) +
                                   " out of range");
  }
  if (!options.force_generic_climber && DegInRanked(options.fitness)) {
    // Weighted fitness on a weighted graph ranks candidates by the
    // weighted deg-in (a double) — the quantized climber. Everything
    // else ranks by the integer deg-in: use_weights on an UNWEIGHTED
    // graph is exactly the all-1.0 case, where the integer climber's
    // mirrored stats make the weighted evaluation bit-identical.
    if (options.fitness.use_weights && graph.is_weighted()) {
      return WeightedFastClimb(graph, seed, options);
    }
    return FastClimb(graph, seed, options);
  }
  return GenericClimb(graph, seed, options);
}

}  // namespace oca
