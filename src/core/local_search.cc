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
// double, so each node is filed under floor(w_deg_in / w_max), w_max
// being the graph's largest edge weight. That map is monotone, so the
// true extreme lies in the extreme non-empty bucket and an exact rescan
// of that one bucket recovers it, whatever the scale. This scale makes a
// neighbour update, which moves a weighted deg-in by one edge weight,
// move its key by at most one level (rounding aside), as it moves an
// exact deg-in by exactly one.
//
// The queues are flat (Batagelj & Zaversnik's bucket array,
// arXiv:cs/0310049). Each node has one record: its deg-in (and on
// weighted climbs its weighted deg-in) and its index in a single array
// that holds both queues, the members first, then the frontier, each
// sorted by key in descending order. The
// members' smallest key and the frontier's largest meet in the middle,
// so both extreme buckets are contiguous spans there. Each queue keeps
// where each of its buckets starts, so moving a node one key level swaps
// it with the boundary node of its bucket and shifts that boundary. A
// node joining S swaps to the middle, which then shifts past it, and it
// climbs from the members' smallest key to its own; a node leaving S
// makes the mirror move. A climb touches only the nodes it reaches and
// the keys they take, never the whole graph.
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

/// Queue index of a node in neither queue.
constexpr uint32_t kUnqueued = UINT32_MAX;

/// One node's climb state, packed so that a neighbour update reads one
/// record: its deg-in, its index in the queue array, which also tells the
/// queue (members fill the front of the array), and on weighted climbs
/// its weighted deg-in.
template <bool kWeighted>
struct NodeRecord {
  uint32_t deg_in = 0;
  uint32_t pos = kUnqueued;
};

template <>
struct NodeRecord<true> {
  uint32_t deg_in = 0;
  uint32_t pos = kUnqueued;
  double w_deg_in = 0.0;
};

/// A non-empty extreme bucket: its key and its nodes.
struct Bucket {
  uint32_t key;
  std::span<const NodeId> nodes;
};

/// The member and frontier bucket queues of one climb, in one array:
/// members in [0, m_), then the frontier (non-members with an edge into
/// S) in [m_, size_), each sorted by key in descending order. For a key
/// k, member_first_[k] and frontier_first_[k] hold the index of the
/// queue's first node with key <= k, so bucket k spans first[k] up to
/// first[k - 1] (for k = 0, up to the queue's end).
///
/// Boundaries are kept only over the keys in use, and written when a key
/// comes into use, so neither preparing nor clearing a climb walks every
/// key. The frontier's cover [0, frontier_top_], and nothing lies above
/// frontier_top_ (frontier_first_[frontier_top_] == m_). The members'
/// cover [member_low_, member_top_]; below member_low_ every member
/// boundary would be m_, above member_top_ it would be 0. frontier_top_
/// and member_low_ may lag the extreme keys; the extreme-bucket lookups
/// move them past empty buckets. Records and the array are reused across
/// climbs and reset in O(nodes queued).
///
/// The order inside a bucket is move history, so callers choose within a
/// bucket by node id, never by position.
template <bool kWeighted>
class ClimbQueues {
 public:
  using Record = NodeRecord<kWeighted>;

  /// Prepares for a graph with `num_nodes` nodes. Must be empty (freshly
  /// constructed or after Reset).
  void Configure(size_t num_nodes) {
    if (records_.size() < num_nodes) {
      records_.resize(num_nodes);
      order_.resize(num_nodes);
    }
    if (frontier_first_.empty()) frontier_first_.push_back(0);
  }

  Record& record(NodeId v) { return records_[v]; }
  std::span<const NodeId> members() const { return {order_.data(), m_}; }
  bool frontier_empty() const { return size_ == m_; }

  /// Node v, outside S, joins it with key `key` (its frontier key, or 0
  /// for a seed node off the frontier): it rises to the frontier's top
  /// bucket, the middle shifts past it, and it climbs from the members'
  /// smallest key to its own.
  void Admit(NodeId v, uint32_t key) {
    uint32_t from = key;
    if (records_[v].pos == kUnqueued) {
      Append(v);
      from = 0;
    }
    TightenFrontierTop();
    Rise<false>(v, from, frontier_top_);
    if (m_ > 0) TightenMemberLow();
    Swap(records_[v].pos, m_++);
    frontier_first_[frontier_top_] = m_;
    if (m_ == 1) {  // the first member
      if (key >= member_first_.size()) Grow(member_first_, key);
      member_first_[key] = 0;
      member_low_ = member_top_ = key;
    } else if (key < member_low_) {
      for (uint32_t k = key; k < member_low_; ++k) member_first_[k] = m_ - 1;
      member_low_ = key;
    } else {
      Rise<true>(v, member_low_, key);
    }
  }

  /// Member v, in the smallest-key bucket, leaves S with key `key`: the
  /// middle shifts back past it and it moves from the frontier's top
  /// bucket to its key, or, with no edge into S (`attached` false), out
  /// of both queues.
  void Release(NodeId v, uint32_t key, bool attached) {
    TightenFrontierTop();
    Swap(records_[v].pos, --m_);
    frontier_first_[frontier_top_] = m_;
    if (!attached) {
      Detach(v, frontier_top_);
    } else if (key < frontier_top_) {
      Fall<false>(v, frontier_top_, key);
    } else {
      Rise<false>(v, frontier_top_, key);
    }
  }

  /// Refiles v, a neighbour of a node that just joined S, from key
  /// `from` up to key `to`. A node off both queues (this is its first
  /// edge into S) joins the frontier.
  void Raise(NodeId v, uint32_t from, uint32_t to) {
    const uint32_t pos = records_[v].pos;
    if (pos < m_) {
      Rise<true>(v, from, to);
    } else if (pos == kUnqueued) {
      Append(v);
      Rise<false>(v, 0, to);
    } else {
      Rise<false>(v, from, to);
    }
  }

  /// Refiles v, a neighbour of a node that just left S, from key `from`
  /// down to key `to`. A frontier node left with no edge into S leaves
  /// the frontier.
  void Lower(NodeId v, uint32_t from, uint32_t to) {
    if (records_[v].pos < m_) {
      Fall<true>(v, from, to);
    } else if (records_[v].deg_in == 0) {
      Detach(v, from);
    } else {
      Fall<false>(v, from, to);
    }
  }

  /// The frontier's largest-key bucket. The frontier must be non-empty.
  Bucket FrontierTop() {
    TightenFrontierTop();
    const uint32_t end =
        frontier_top_ > 0 ? frontier_first_[frontier_top_ - 1] : size_;
    return {frontier_top_, {order_.data() + m_, end - m_}};
  }

  /// The members' smallest-key bucket. S must be non-empty.
  Bucket MemberBottom() {
    TightenMemberLow();
    const uint32_t begin = member_first_[member_low_];
    return {member_low_, {order_.data() + begin, m_ - begin}};
  }

  /// Clears the record of every queued node, then empties both queues.
  void Reset() {
    for (uint32_t i = 0; i < size_; ++i) records_[order_[i]] = Record{};
    m_ = 0;
    size_ = 0;
    frontier_top_ = 0;
    frontier_first_[0] = 0;
  }

 private:
  /// Frontier node v, at key `from`, has no edge into S left: it leaves
  /// the frontier through its last bucket, and its record is cleared.
  void Detach(NodeId v, uint32_t from) {
    Fall<false>(v, from, 0);
    Swap(records_[v].pos, --size_);
    records_[v] = Record{};
  }

  // Moves within the members' queue (kMember) or the frontier's. A
  // weighted key stays put on about 40% of neighbour updates, too
  // irregularly for branch prediction, so the last level of a move is a
  // conditional swap (of v with itself when the key stays) rather than a
  // branch.
  template <bool kMember>
  void Rise(NodeId v, uint32_t from, uint32_t to) {
    for (; to - from > 1; ++from) StepUp<kMember>(v, from, 1);
    StepUp<kMember>(v, from, to - from);
  }

  template <bool kMember>
  void Fall(NodeId v, uint32_t from, uint32_t to) {
    for (; from - to > 1; --from) StepDown<kMember>(v, from, 1);
    StepDown<kMember>(v, from, from - to);
  }

  /// Raises v from `key` by `step` (0 or 1) levels: swaps it with the
  /// first node of its bucket, which then starts one later.
  template <bool kMember>
  void StepUp(NodeId v, uint32_t key, uint32_t step) {
    std::vector<uint32_t>& first = kMember ? member_first_ : frontier_first_;
    uint32_t& top = kMember ? member_top_ : frontier_top_;
    if (key == top) {  // key + 1 comes into use if v moves
      if (top + 1 == first.size()) Grow(first, top + 1);
      first[top + 1] = kMember ? 0 : m_;
      top += step;
    }
    uint32_t& boundary = first[key];
    const uint32_t pos = records_[v].pos;
    Swap(pos, step != 0 ? boundary : pos);
    boundary += step;
  }

  /// Lowers v from `key` by `step` (0 or 1) levels: swaps it with the
  /// last node of its bucket, which then ends one earlier.
  template <bool kMember>
  void StepDown(NodeId v, uint32_t key, uint32_t step) {
    std::vector<uint32_t>& first = kMember ? member_first_ : frontier_first_;
    if (kMember && key == member_low_ && key > 0) {
      first[key - 1] = m_;  // key - 1 comes into use if v moves
      member_low_ -= step;
    }
    uint32_t& boundary = first[key - step];
    boundary -= step;
    const uint32_t pos = records_[v].pos;
    Swap(pos, step != 0 ? boundary : pos);
  }

  /// Exchanges the nodes at indices i and j.
  void Swap(uint32_t i, uint32_t j) {
    const NodeId a = order_[i];
    const NodeId b = order_[j];
    order_[i] = b;
    records_[b].pos = i;
    order_[j] = a;
    records_[a].pos = j;
  }

  /// Files v at the end of the frontier, in its key-0 bucket.
  void Append(NodeId v) {
    order_[size_] = v;
    records_[v].pos = size_++;
  }

  void TightenFrontierTop() {
    while (frontier_top_ > 0 && frontier_first_[frontier_top_ - 1] == m_) {
      --frontier_top_;
    }
  }

  /// S must be non-empty.
  void TightenMemberLow() {
    while (member_first_[member_low_] == m_) ++member_low_;
  }

  /// Out of line so that the moves, which the climbs call in their inner
  /// loops, stay small enough to be inlined there.
  [[gnu::noinline]] static void Grow(std::vector<uint32_t>& first,
                                     uint32_t key) {
    first.resize(std::max<size_t>(2 * first.size(), key + 1));
  }

  std::vector<Record> records_;
  std::vector<NodeId> order_;
  std::vector<uint32_t> member_first_;
  std::vector<uint32_t> frontier_first_;
  uint32_t m_ = 0;
  uint32_t size_ = 0;
  uint32_t frontier_top_ = 0;
  uint32_t member_low_ = 0;
  uint32_t member_top_ = 0;
};

/// Per-thread reusable climb state: the queues and, for weighted climbs,
/// a weighted-degree table and the key scale. Building the table and
/// scale costs O(n + m), so they are kept across climbs, keyed on
/// Graph::id(): no other graph, even one later built over the same
/// storage, can carry that id.
template <bool kWeighted>
struct ClimbScratch {
  ClimbQueues<kWeighted> queues;
  std::vector<double> wdeg;  // WeightedDegree(v) of graph `cached_id`
  double inv_scale = 0.0;    // 1 / largest edge weight of `cached_id`
  uint64_t cached_id = 0;    // 0 = no table built yet

  void Configure(const Graph& graph) {
    const size_t n = graph.num_nodes();
    queues.Configure(n);
    if (!kWeighted || graph.id() == cached_id) return;
    wdeg.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      // Same summation order as Graph::WeightedDegree — the table must
      // be bit-identical to what the generic climber memoizes.
      wdeg[v] = graph.WeightedDegree(v);
    }
    double max_weight = 0.0;
    for (double w : graph.weight_array()) max_weight = std::max(max_weight, w);
    inv_scale = max_weight > 0.0 ? 1.0 / max_weight : 0.0;
    cached_id = graph.id();
  }

  /// Monotone map from a weighted deg-in to its key. Non-positive inputs
  /// (possible only as float residue) file under 0.
  uint32_t Quantize(double w) const {
    return w > 0.0 ? static_cast<uint32_t>(w * inv_scale) : 0;
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
                       ClimbQueues<true>& queues) {
  NodeId best = bucket.front();
  double best_w = queues.record(best).w_deg_in;
  for (NodeId u : bucket.subspan(1)) {
    const double w = queues.record(u).w_deg_in;
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
                              ClimbScratch<kWeighted>& scratch) {
  scratch.Configure(graph);
  auto& queues = scratch.queues;
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
      return scratch.Quantize(queues.record(u).w_deg_in);
    } else {
      return queues.record(u).deg_in;
    }
  };

  // The neighbour loops below compute keys from the values in hand
  // rather than through key_of: they are the hot path of every climb.
  auto add_node = [&](NodeId v) {
    queues.Admit(v, key_of(v));
    stats.size += 1;
    stats.ein += queues.record(v).deg_in;
    stats.volume += graph.Degree(v);
    const double* w = nullptr;  // v's edge weights, in neighbour order
    if constexpr (kWeighted) {
      stats.w_in += queues.record(v).w_deg_in;
      stats.w_volume += scratch.wdeg[v];
      w = graph.Weights(v).data();
    }
    for (NodeId u : graph.Neighbors(v)) {
      auto& r = queues.record(u);
      const uint32_t du = ++r.deg_in;
      uint32_t from = du - 1;
      uint32_t to = du;
      if constexpr (kWeighted) {
        from = scratch.Quantize(r.w_deg_in);
        to = scratch.Quantize(r.w_deg_in += *w++);
      }
      queues.Raise(u, from, to);
    }
  };

  // Detaching a node from both queues clears its record, and so drops
  // any float residue the subtractions left in its weighted deg-in, as
  // CommunityState drops a non-member with no edge into S.
  auto remove_node = [&](NodeId v) {
    const uint32_t d = queues.record(v).deg_in;
    stats.size -= 1;
    stats.ein -= d;
    stats.volume -= graph.Degree(v);
    const double* w = nullptr;
    if constexpr (kWeighted) {
      stats.w_in -= queues.record(v).w_deg_in;
      stats.w_volume -= scratch.wdeg[v];
      w = graph.Weights(v).data();
    }
    queues.Release(v, key_of(v), d > 0);
    for (NodeId u : graph.Neighbors(v)) {
      auto& r = queues.record(u);
      const uint32_t du = --r.deg_in;
      uint32_t from = du + 1;
      uint32_t to = du;
      if constexpr (kWeighted) {
        from = scratch.Quantize(r.w_deg_in);
        to = scratch.Quantize(r.w_deg_in -= *w++);
      }
      queues.Lower(u, from, to);
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
    if (!queues.frontier_empty() && (options.max_community_size == 0 ||
                                     stats.size < options.max_community_size)) {
      const Bucket bucket = queues.FrontierTop();
      NodeId v = kNoNode;
      double gain;
      if constexpr (kWeighted) {
        v = WeightedExtreme<true>(bucket.nodes, queues);
        gain = WeightedFitnessGainAdd(stats, queues.record(v).w_deg_in,
                                      scratch.wdeg[v], fitness);
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
      const Bucket bucket = queues.MemberBottom();
      NodeId v = kNoNode;
      double gain;
      if constexpr (kWeighted) {
        v = WeightedExtreme<false>(bucket.nodes, queues);
        gain = WeightedFitnessGainRemove(stats, queues.record(v).w_deg_in,
                                         scratch.wdeg[v], fitness);
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
  const std::span<const NodeId> members = queues.members();
  result.community.assign(members.begin(), members.end());
  std::sort(result.community.begin(), result.community.end());
  queues.Reset();
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
  // Weighted fitness on a weighted graph ranks candidates by the
  // weighted deg-in (a double), hence the quantized key. use_weights on
  // an unweighted graph is the all-1.0 case, which the exact integer
  // key serves.
  if (options.fitness.use_weights && graph.is_weighted()) {
    thread_local ClimbScratch<true> scratch;
    return BucketClimb(graph, seed, options, scratch);
  }
  thread_local ClimbScratch<false> scratch;
  return BucketClimb(graph, seed, options, scratch);
}

Result<LocalSearchResult> ReferenceLocalSearch(
    const Graph& graph, const Community& seed_set,
    const LocalSearchOptions& options) {
  Community seed = seed_set;
  OCA_RETURN_IF_ERROR(CanonicalizeSeed(graph, seed));
  return GenericClimb(graph, seed, options);
}

}  // namespace oca
