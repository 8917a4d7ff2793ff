#include "core/local_search.h"

#include <algorithm>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace oca {

namespace {

/// Sentinel for "no candidate move found".
constexpr NodeId kNoNode = UINT32_MAX;

// ---------------------------------------------------------------------
// The bucket-queue climber, for deg-in-ranked fitness.
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
//
// One climber body serves both graph kinds; only the key differs. On an
// unweighted graph it is the exact deg-in. With use_weights on a
// weighted graph the gain is linear in the weighted deg-in instead, a
// double, so each node is filed under floor(w_deg_in * inv_quantum), one
// of kWeightBuckets levels. That map is monotone, so the true extreme
// lies in the extreme non-empty bucket and an exact rescan of that one
// bucket recovers it.
//
// Every climber keeps one tie rule: among equal-best moves the smallest
// node id wins, and an add beats a removal of equal gain. The rule reads
// only S and the deg-ins, never the order in which the queues were
// filled, so this climber and the reference scan take the same move at
// every step. It costs a scan of an extreme bucket per step, which is
// short: on the lfr_flat and nested_tree benchmark workloads the scanned
// bucket holds 2.4 and 2.3 nodes on average. Unweighted climbs price
// both moves from the bucket keys and scan only the winning bucket,
// comparing ids alone; its longest case is a single-node seed's first
// step, with the whole neighbourhood at deg-in 1.
//
// The weighted bookkeeping replicates CommunityState::Add/Remove
// operation for operation (w_deg_in updates in adjacency order, stats
// updates per move, residue dropped when a non-member's deg-in hits
// zero), so an identical move sequence yields bit-identical SubsetStats.
// ---------------------------------------------------------------------

/// Fitness kinds whose greedy argmax is an extreme-deg-in lookup: the
/// gain reads only (s, ein), never the candidate's total degree, and is
/// strictly increasing in the deg-in. The weighted forms keep this with
/// the weighted deg-in (the gain is linear in w_in with a positive
/// coefficient). These kinds climb on bucket queues; the others take the
/// generic scan.
bool DegInRanked(const FitnessParams& params) {
  return params.kind == FitnessKind::kDirectedLaplacian ||
         params.kind == FitnessKind::kRawPhi;
}

/// Bucket queue over nodes keyed by small non-negative integers (a
/// deg-in, or a quantized weighted deg-in). Flat-array storage reused
/// across climbs via Reset, so the hot path does no hashing and no
/// allocation once warm. The bucket array grows on demand to the largest
/// key ever inserted, so preparing a climb never scans the graph for its
/// maximum degree. O(1) insert/erase/re-key; amortized O(1) access to the
/// extreme buckets via moving hints. The order inside a bucket is erase
/// history, so callers choose within a bucket by node id, not position.
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

  /// Empties all buckets and membership flags. O(keys used + content).
  void Reset() {
    for (uint32_t key = min_hint_; key <= max_hint_ && key < buckets_.size();
         ++key) {
      for (NodeId v : buckets_[key]) pos_[v].in = false;
      buckets_[key].clear();
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

  /// Moves v to bucket `new_key`; a no-op when v is already there (a
  /// weighted deg-in mostly moves within one quantum).
  void ChangeKey(NodeId v, uint32_t new_key) {
    if (pos_[v].key == new_key) return;
    Erase(v);
    Insert(v, new_key);
  }

  /// A non-empty bucket: its key and its nodes.
  struct Bucket {
    uint32_t key;
    std::span<const NodeId> nodes;
  };

  /// The largest-key non-empty bucket (advances the hint). Queue must be
  /// non-empty.
  Bucket MaxBucket() {
    while (buckets_[max_hint_].empty()) --max_hint_;
    return {max_hint_, buckets_[max_hint_]};
  }

  /// The smallest-key non-empty bucket (advances the hint).
  Bucket MinBucket() {
    while (buckets_[min_hint_].empty()) ++min_hint_;
    return {min_hint_, buckets_[min_hint_]};
  }

  /// Calls fn(v, key) for every contained node (bucket order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t key = min_hint_; key <= max_hint_ && key < buckets_.size();
         ++key) {
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
  // Every non-empty bucket lies in [min_hint_, max_hint_]: Insert widens
  // the range, and the extreme-bucket lookups narrow it only past empty
  // buckets.
  uint32_t max_hint_ = 0;
  uint32_t min_hint_ = 0;
};

/// Number of quantization levels for weighted keys. 1024 keeps the two
/// queues' bucket arrays L1-resident while making same-bucket collisions
/// rare on real weight distributions.
constexpr uint32_t kWeightBuckets = 1024;

/// Per-thread reusable climb state: the deg-in arrays and the two bucket
/// queues, O(n) memory, reset in O(touched) after each climb. Weighted
/// climbs also read a weighted-degree table and a quantization scale.
/// Building them costs O(n + m), so they are kept across climbs, keyed
/// on Graph::id(): no other graph, even one later built over the same
/// storage, can carry that id.
struct ClimbScratch {
  std::vector<uint32_t> deg_in;
  std::vector<double> w_deg_in;  // weighted climbs only
  std::vector<double> wdeg;      // WeightedDegree(v) of graph `cached_id`
  double inv_quantum = 0.0;      // quantization scale of graph `cached_id`
  uint64_t cached_id = 0;        // 0 = no table built yet
  BucketQueue frontier;          // non-members touching S
  BucketQueue members;

  void Configure(const Graph& graph, bool weighted) {
    const size_t n = graph.num_nodes();
    if (deg_in.size() < n) deg_in.resize(n, 0);
    frontier.Configure(n);
    members.Configure(n);
    if (!weighted) return;
    if (w_deg_in.size() < n) w_deg_in.resize(n, 0.0);
    if (graph.id() == cached_id) return;
    wdeg.resize(n);
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
    inv_quantum = max_wdeg > 0.0 ? (kWeightBuckets - 1) / max_wdeg : 0.0;
    cached_id = graph.id();
  }

  /// Monotone map from a weighted deg-in to its bucket. Non-positive
  /// inputs (possible only as float residue) file under 0.
  uint32_t Quantize(double w) const {
    if (w <= 0.0) return 0;
    double scaled = w * inv_quantum;
    if (scaled >= kWeightBuckets - 1) return kWeightBuckets - 1;
    return static_cast<uint32_t>(scaled);
  }

  /// Clears everything the last climb touched (the deg-ins of every node
  /// still queued; evicted frontier nodes are already zero).
  void Reset(bool weighted) {
    auto clear = [this, weighted](NodeId v, uint32_t) {
      deg_in[v] = 0;
      if (weighted) w_deg_in[v] = 0.0;
    };
    frontier.ForEach(clear);
    members.ForEach(clear);
    frontier.Reset();
    members.Reset();
  }
};

/// The smallest id in a bucket: the tie rule among equal deg-ins.
NodeId SmallestId(std::span<const NodeId> bucket) {
  NodeId best = bucket.front();
  for (NodeId u : bucket) best = std::min(best, u);
  return best;
}

/// The exact extreme of a weighted bucket under the tie rule: the
/// largest weighted deg-in if kLargest, else the smallest, then the
/// smallest id.
template <bool kLargest>
NodeId WeightedExtreme(std::span<const NodeId> bucket,
                       const std::vector<double>& w_deg_in) {
  NodeId best = bucket.front();
  double best_w = w_deg_in[best];
  for (NodeId u : bucket.subspan(1)) {
    const double w = w_deg_in[u];
    if ((kLargest ? w > best_w : w < best_w) || (w == best_w && u < best)) {
      best = u;
      best_w = w;
    }
  }
  return best;
}

/// The bucket-queue climber. kWeighted (use_weights on a weighted
/// graph) keys the queues on quantized weighted deg-ins, otherwise on
/// exact deg-ins.
template <bool kWeighted>
LocalSearchResult BucketClimb(const Graph& graph, const Community& seed,
                              const LocalSearchOptions& options,
                              ClimbScratch& scratch) {
  scratch.Configure(graph, kWeighted);
  auto& deg_in = scratch.deg_in;
  auto& w_deg_in = scratch.w_deg_in;
  auto& frontier = scratch.frontier;
  auto& members = scratch.members;
  // use_weights on an unweighted graph is the all-1.0 case. There the
  // weighted fields mirror the integer ones and evaluate bit for bit
  // alike (fitness.h), so unweighted climbs evaluate the integer fields.
  FitnessParams fitness = options.fitness;
  fitness.use_weights = kWeighted;
  SubsetStats stats;

  // The queue key of a node: its exact deg-in, or on weighted climbs its
  // quantized weighted deg-in.
  auto key_of = [&](NodeId u) -> uint32_t {
    if constexpr (kWeighted) {
      return scratch.Quantize(w_deg_in[u]);
    } else {
      return deg_in[u];
    }
  };

  // The neighbour loops below compute keys from the values in hand
  // rather than through key_of: they are the hot path of every climb.
  auto add_node = [&](NodeId v) {
    if (frontier.Contains(v)) frontier.Erase(v);
    members.Insert(v, key_of(v));
    stats.size += 1;
    stats.ein += deg_in[v];
    stats.volume += graph.Degree(v);
    const double* w = nullptr;  // v's edge weights, in neighbour order
    if constexpr (kWeighted) {
      stats.w_in += w_deg_in[v];
      stats.w_volume += scratch.wdeg[v];
      w = graph.Weights(v).data();
    }
    for (NodeId u : graph.Neighbors(v)) {
      uint32_t du = ++deg_in[u];
      double wu = 0.0;
      if constexpr (kWeighted) wu = w_deg_in[u] += *w++;
      uint32_t key = kWeighted ? scratch.Quantize(wu) : du;
      if (members.Contains(u)) {
        members.ChangeKey(u, key);
      } else if (du == 1) {
        frontier.Insert(u, key);
      } else {
        frontier.ChangeKey(u, key);
      }
    }
  };

  auto remove_node = [&](NodeId v) {
    uint32_t d = deg_in[v];
    members.Erase(v);
    stats.size -= 1;
    stats.ein -= d;
    stats.volume -= graph.Degree(v);
    const double* w = nullptr;
    if constexpr (kWeighted) {
      stats.w_in -= w_deg_in[v];
      stats.w_volume -= scratch.wdeg[v];
      w = graph.Weights(v).data();
    }
    for (NodeId u : graph.Neighbors(v)) {
      uint32_t du = --deg_in[u];
      double wu = 0.0;
      if constexpr (kWeighted) wu = w_deg_in[u] -= *w++;
      if (members.Contains(u)) {
        members.ChangeKey(u, kWeighted ? scratch.Quantize(wu) : du);
      } else if (du == 0) {
        frontier.Erase(u);
        // Mirror CommunityState's garbage collection: zero edges into S
        // means the weighted deg-in is exactly 0 — drop any float
        // residue the subtraction left behind.
        if constexpr (kWeighted) w_deg_in[u] = 0.0;
      } else {
        frontier.ChangeKey(u, kWeighted ? scratch.Quantize(wu) : du);
      }
    }
    if (d > 0) {
      frontier.Insert(v, key_of(v));
    } else if constexpr (kWeighted) {
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
    // Each side offers the move of its extreme bucket. A deg-in-ranked
    // gain reads only the candidate's deg-in, so an unweighted bucket's
    // key prices its move (and stands in for the candidate's degree,
    // which the gain never reads); the bucket is scanned for its
    // smallest id only once its move has won. A weighted bucket spans a
    // range of weighted deg-ins, so it is scanned first for the exact
    // extreme, which prices the move.
    double best_gain = options.epsilon;
    std::span<const NodeId> best_bucket;  // empty: no improving move
    NodeId best_node = kNoNode;
    bool best_is_add = true;
    if (!frontier.empty() && (options.max_community_size == 0 ||
                              stats.size < options.max_community_size)) {
      const BucketQueue::Bucket bucket = frontier.MaxBucket();
      NodeId v = kNoNode;
      double gain;
      if constexpr (kWeighted) {
        v = WeightedExtreme<true>(bucket.nodes, w_deg_in);
        gain = WeightedFitnessGainAdd(stats, w_deg_in[v], scratch.wdeg[v],
                                      fitness);
      } else {
        gain = FitnessGainAdd(stats, bucket.key, bucket.key, fitness);
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_bucket = bucket.nodes;
        best_node = v;
      }
    }
    // Strictly greater: an add wins a tie with a removal.
    if (options.allow_remove && stats.size > 1) {
      const BucketQueue::Bucket bucket = members.MinBucket();
      NodeId v = kNoNode;
      double gain;
      if constexpr (kWeighted) {
        v = WeightedExtreme<false>(bucket.nodes, w_deg_in);
        gain = WeightedFitnessGainRemove(stats, w_deg_in[v], scratch.wdeg[v],
                                         fitness);
      } else {
        gain = FitnessGainRemove(stats, bucket.key, bucket.key, fitness);
      }
      if (gain > best_gain) {
        best_bucket = bucket.nodes;
        best_node = v;
        best_is_add = false;
      }
    }

    if (best_bucket.empty()) break;  // local maximum
    if constexpr (!kWeighted) best_node = SmallestId(best_bucket);
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
  scratch.Reset(kWeighted);
  if constexpr (!kWeighted) {
    // The exact integer mirrors (see SubsetStats).
    stats.w_in = static_cast<double>(stats.ein);
    stats.w_volume = static_cast<double>(stats.volume);
  }
  result.stats = stats;
  result.fitness = EvaluateFitness(stats, fitness);
  return result;
}

/// Generic climber: full candidate scan per step. Correct for every
/// fitness kind (the gain may depend on the candidate's total degree);
/// used by the LFK/conductance ablation variants and, as
/// ReferenceLocalSearch, the reference the bucket climber is tested
/// against. Same tie rule: Frontier() lists candidates by ascending id,
/// so a strict comparison keeps the smallest id among equal adds; the
/// members are in insertion order, so removals compare ids explicitly.
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
        // An add wins a tie with a removal; of tied removals, the
        // smallest id.
        if (gain > best_gain ||
            (gain == best_gain && !best_is_add && v < best_node)) {
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

/// Sorts and dedups `seed` in place, then checks it against the graph.
Status CanonicalizeSeed(const Graph& graph, Community& seed) {
  if (seed.empty()) {
    return Status::InvalidArgument("local search needs a non-empty seed set");
  }
  std::sort(seed.begin(), seed.end());
  seed.erase(std::unique(seed.begin(), seed.end()), seed.end());
  if (seed.back() >= graph.num_nodes()) {
    return Status::InvalidArgument("seed node " + std::to_string(seed.back()) +
                                   " out of range");
  }
  return Status::OK();
}

}  // namespace

Result<LocalSearchResult> GreedyLocalSearch(
    const Graph& graph, const Community& seed_set,
    const LocalSearchOptions& options) {
  Community seed = seed_set;
  OCA_RETURN_IF_ERROR(CanonicalizeSeed(graph, seed));
  if (!DegInRanked(options.fitness)) {
    return GenericClimb(graph, seed, options);
  }
  thread_local ClimbScratch scratch;
  // Weighted fitness on a weighted graph ranks candidates by the
  // weighted deg-in (a double), hence the quantized key. use_weights on
  // an unweighted graph is the all-1.0 case, which the exact integer
  // key serves.
  if (options.fitness.use_weights && graph.is_weighted()) {
    return BucketClimb<true>(graph, seed, options, scratch);
  }
  return BucketClimb<false>(graph, seed, options, scratch);
}

Result<LocalSearchResult> ReferenceLocalSearch(
    const Graph& graph, const Community& seed_set,
    const LocalSearchOptions& options) {
  Community seed = seed_set;
  OCA_RETURN_IF_ERROR(CanonicalizeSeed(graph, seed));
  return GenericClimb(graph, seed, options);
}

}  // namespace oca
